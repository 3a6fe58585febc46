package graph

import "fmt"

// Fragment is one edge-cut fragment of Section VI-B, by its owned
// vertex set V_i.
type Fragment struct {
	ID    int
	Owned []VID // V_i, ascending
}

// Partition is an edge-cut partition of a graph into n fragments.
type Partition struct {
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
// when n exceeds |V| — the surplus fragments simply own nothing, which
// is a valid fragment consumers must tolerate. Callers that spread work one fragment per worker
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
	p := &Partition{Of: of, Fragments: make([]Fragment, n)}
	for i := range p.Fragments {
		p.Fragments[i].ID = i
	}
	for v := 0; v < nv; v++ {
		f := of[v]
		p.Fragments[f].Owned = append(p.Fragments[f].Owned, VID(v))
	}
	return p, nil
}
