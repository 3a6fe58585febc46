// Package graph implements the directed labeled graph substrate
// G = (V, E, L) of Section II: vertices and edges carry labels (vertex
// labels represent values/types, edge labels represent predicates), with
// adjacency queries, simple paths, and edge-cut partitioning for the BSP
// engine.
package graph

import "fmt"

// VID identifies a vertex within one graph.
type VID int32

// NoVertex is the invalid vertex id.
const NoVertex VID = -1

// Edge is one outgoing edge: a labeled arc to a target vertex.
type Edge struct {
	To    VID
	Label string
}

// Graph is a directed labeled graph. The zero value is not usable; call New.
type Graph struct {
	labels []string
	out    [][]Edge
	in     [][]VID // reverse adjacency (sources only; labels live on out)
	nEdges int
}

// New creates an empty graph, optionally pre-sizing for n vertices.
func New(sizeHint ...int) *Graph {
	n := 0
	if len(sizeHint) > 0 {
		n = sizeHint[0]
	}
	return &Graph{
		labels: make([]string, 0, n),
		out:    make([][]Edge, 0, n),
		in:     make([][]VID, 0, n),
	}
}

// AddVertex appends a vertex with the given label and returns its id.
func (g *Graph) AddVertex(label string) VID {
	id := VID(len(g.labels))
	g.labels = append(g.labels, label)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddEdge adds a directed edge from → to with the given label.
func (g *Graph) AddEdge(from, to VID, label string) error {
	if !g.Valid(from) || !g.Valid(to) {
		return fmt.Errorf("graph: AddEdge(%d,%d): vertex out of range (n=%d)", from, to, len(g.labels))
	}
	g.out[from] = append(g.out[from], Edge{To: to, Label: label})
	g.in[to] = append(g.in[to], from)
	g.nEdges++
	return nil
}

// MustAddEdge is AddEdge that panics on error, for fixtures and generators.
func (g *Graph) MustAddEdge(from, to VID, label string) {
	if err := g.AddEdge(from, to, label); err != nil {
		panic(err)
	}
}

// Copy is a graph that shares no memory with the one it was taken from.
// Only (*Graph).Copy produces a non-zero value, so a function or struct
// that asks for a Copy — shard.Inputs does — cannot be handed a graph
// its owner goes on mutating: a *Graph does not convert to one. The
// zero Copy holds no graph.
type Copy struct{ g *Graph }

// Graph returns the copied graph, nil for the zero Copy. Whoever holds
// the Copy owns that graph and may read it without a lock.
func (c Copy) Graph() *Graph { return c.g }

// Copy returns a deep copy of g: labels, adjacency and edge count share
// no memory with the original, so growing either graph (AddVertex,
// AddEdge) never affects the other. A graph's owner takes it
// under its own lock; the result is then read without one.
func (g *Graph) Copy() Copy {
	c := &Graph{
		labels: append([]string(nil), g.labels...),
		out:    make([][]Edge, len(g.out)),
		in:     make([][]VID, len(g.in)),
		nEdges: g.nEdges,
	}
	for i, es := range g.out {
		if len(es) > 0 {
			c.out[i] = append([]Edge(nil), es...)
		}
	}
	for i, vs := range g.in {
		if len(vs) > 0 {
			c.in[i] = append([]VID(nil), vs...)
		}
	}
	return Copy{c}
}

// Clone is Copy for a caller that wants a second graph to mutate.
func (g *Graph) Clone() *Graph { return g.Copy().g }

// Valid reports whether v is a vertex of g.
func (g *Graph) Valid(v VID) bool { return v >= 0 && int(v) < len(g.labels) }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.nEdges }

// Size returns |V| + |E|, the measure the paper's complexity bounds use.
func (g *Graph) Size() int { return len(g.labels) + g.nEdges }

// Label returns the label of v.
func (g *Graph) Label(v VID) string { return g.labels[v] }

// Labels returns the label column, indexed by vertex id. It is g's own
// slice, not a copy: callers must not modify it. Labels are append-only
// — AddVertex is the only write, and it writes past the end — so the
// slice stays valid, at its length, while g goes on growing; an owner
// that publishes it may let readers index it without its lock.
func (g *Graph) Labels() []string { return g.labels }

// Out returns the outgoing edges of v. The returned slice must not be
// modified.
func (g *Graph) Out(v VID) []Edge { return g.out[v] }

// In returns the source vertices of the incoming edges of v. The returned
// slice must not be modified.
func (g *Graph) In(v VID) []VID { return g.in[v] }

// OutDegree returns the number of outgoing edges (|ch(v)| in the paper).
func (g *Graph) OutDegree(v VID) int { return len(g.out[v]) }

// Degree returns the total degree of v.
func (g *Graph) Degree(v VID) int { return len(g.out[v]) + len(g.in[v]) }

// IsLeaf reports whether v has no children.
func (g *Graph) IsLeaf(v VID) bool { return len(g.out[v]) == 0 }

// ReverseRegion returns v and every vertex that reaches v within hops
// edges, followed backwards; hops < 0 means any number of edges. The
// vertices whose bounded neighbourhoods can see an edge out of v are
// exactly these.
func (g *Graph) ReverseRegion(v VID, hops int) map[VID]bool {
	region := map[VID]bool{v: true}
	frontier := []VID{v}
	for d := 0; len(frontier) > 0 && (hops < 0 || d < hops); d++ {
		next := make([]VID, 0, len(frontier))
		for _, x := range frontier {
			for _, in := range g.in[x] {
				if !region[in] {
					region[in] = true
					next = append(next, in)
				}
			}
		}
		frontier = next
	}
	return region
}
