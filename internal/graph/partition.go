package graph

import "fmt"

// Fragment describes one edge-cut fragment F_i = (V_i ∪ O_i, E_i, L_i) of
// Section VI-B: V_i is the set of owned vertices, O_i the border nodes —
// vertices owned elsewhere that have incoming edges from V_i.
type Fragment struct {
	ID     int
	Owned  []VID        // V_i
	Border []VID        // O_i
	Owner  map[VID]bool // membership test for Owned
}

// Partition is an edge-cut partition of a graph into n fragments.
type Partition struct {
	Graph     *Graph
	Fragments []Fragment
	Of        []int // vertex → fragment id
}

// PartitionEdgeCut splits g into n fragments. Assignment is round-robin
// over a BFS order from each unvisited vertex, which keeps neighborhoods
// mostly co-located (a cheap stand-in for balanced edge partitioners such
// as Bourse et al., which the paper cites). Deterministic for a given graph.
//
// The partition is total and disjoint: every vertex is owned by exactly
// one fragment, and exactly n fragments are returned in id order even
// when n exceeds |V| — the surplus fragments are simply empty (Owned,
// Border and Owner all empty), which is a valid fragment consumers must
// tolerate. Callers that spread work one fragment per worker
// (internal/shard, the BSP engine) rely on both properties: a vertex is
// matched by exactly one worker, and repeated runs over the same graph
// produce the same fragment list — no map iteration or randomness is
// involved anywhere in the assignment.
func PartitionEdgeCut(g *Graph, n int) (*Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: partition count must be positive, got %d", n)
	}
	nv := g.NumVertices()
	of := make([]int, nv)
	for i := range of {
		of[i] = -1
	}
	// Walk vertices in BFS order so neighborhoods land in contiguous
	// blocks, then chunk the order into n nearly equal fragments.
	order := make([]VID, 0, nv)
	visited := make([]bool, nv)
	for s := 0; s < nv; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue := []VID{VID(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, e := range g.Out(v) {
				if !visited[e.To] {
					visited[e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
	}
	per := (nv + n - 1) / n
	if per == 0 {
		per = 1
	}
	for i, v := range order {
		f := i / per
		if f >= n {
			f = n - 1
		}
		of[v] = f
	}
	p := &Partition{Graph: g, Of: of, Fragments: make([]Fragment, n)}
	for i := range p.Fragments {
		p.Fragments[i] = Fragment{ID: i, Owner: make(map[VID]bool)}
	}
	for v := 0; v < nv; v++ {
		f := of[v]
		p.Fragments[f].Owned = append(p.Fragments[f].Owned, VID(v))
		p.Fragments[f].Owner[VID(v)] = true
	}
	// Border nodes: targets of cross-fragment edges.
	for v := 0; v < nv; v++ {
		f := of[v]
		for _, e := range g.Out(VID(v)) {
			if of[e.To] != f {
				frag := &p.Fragments[f]
				if !frag.Owner[e.To] && !containsVID(frag.Border, e.To) {
					frag.Border = append(frag.Border, e.To)
				}
			}
		}
	}
	return p, nil
}

func containsVID(s []VID, v VID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// FragmentOf returns the fragment owning v.
func (p *Partition) FragmentOf(v VID) int { return p.Of[v] }
