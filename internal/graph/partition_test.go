package graph

import (
	"math/rand"
	"testing"
)

// randomGraph builds a seeded random graph with nv vertices and roughly
// 2·nv edges (self-loops and multi-edges allowed).
func randomGraph(seed int64, nv int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(nv)
	for i := 0; i < nv; i++ {
		g.AddVertex("v")
	}
	for i := 0; i < 2*nv; i++ {
		from := VID(rng.Intn(nv))
		to := VID(rng.Intn(nv))
		g.MustAddEdge(from, to, "e")
	}
	return g
}

// checkPartition asserts the PartitionEdgeCut contract on one (g, n)
// input: exactly n fragments in id order, every vertex owned exactly
// once, Owned ascending and consistent with Of.
func checkPartition(t *testing.T, g *Graph, n int) *Partition {
	t.Helper()
	p, err := PartitionEdgeCut(g, n)
	if err != nil {
		t.Fatalf("PartitionEdgeCut(|V|=%d, n=%d): %v", g.NumVertices(), n, err)
	}
	if len(p.Fragments) != n {
		t.Fatalf("got %d fragments, want exactly %d", len(p.Fragments), n)
	}
	seen := make(map[VID]int)
	for i, f := range p.Fragments {
		if f.ID != i {
			t.Fatalf("fragment %d carries id %d: not in id order", i, f.ID)
		}
		for j, v := range f.Owned {
			if j > 0 && v <= f.Owned[j-1] {
				t.Fatalf("fragment %d: Owned not ascending at %d", i, j)
			}
			if prev, dup := seen[v]; dup {
				t.Fatalf("vertex %d owned by fragments %d and %d", v, prev, i)
			}
			seen[v] = i
			if p.Of[v] != i {
				t.Fatalf("Of[%d] = %d, fragment %d claims it", v, p.Of[v], i)
			}
		}
	}
	if len(seen) != g.NumVertices() {
		t.Fatalf("%d vertices assigned, want %d (total cover)", len(seen), g.NumVertices())
	}
	return p
}

// TestPartitionContractSweep sweeps seeded random graphs across
// fragment counts from 1 up to beyond |V|, asserting the full contract
// everywhere — in particular that n > |V| yields exactly n fragments
// with the surplus ones empty. (TestPartitionProperty in
// graph_test.go quick-checks ownership totality on a different input
// distribution; this sweep pins the rest of the documented contract.)
func TestPartitionContractSweep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		nv := 1 + int(seed)*3
		g := randomGraph(seed, nv)
		for _, n := range []int{1, 2, 3, nv, nv + 1, 2*nv + 5} {
			p := checkPartition(t, g, n)
			if n > nv {
				empty := 0
				for _, f := range p.Fragments {
					if len(f.Owned) == 0 {
						empty++
					}
				}
				if empty != n-nv {
					t.Fatalf("n=%d over %d vertices: %d empty fragments, want %d",
						n, nv, empty, n-nv)
				}
			}
		}
	}
}

// TestPartitionDeterministic: the same graph partitions identically on
// every call — fragment order and owned order included.
func TestPartitionDeterministic(t *testing.T) {
	g := randomGraph(42, 60)
	a, err := PartitionEdgeCut(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		b, err := PartitionEdgeCut(g, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Fragments {
			fa, fb := a.Fragments[i], b.Fragments[i]
			if len(fa.Owned) != len(fb.Owned) {
				t.Fatalf("fragment %d shape differs across runs", i)
			}
			for j := range fa.Owned {
				if fa.Owned[j] != fb.Owned[j] {
					t.Fatalf("fragment %d owned order differs at %d", i, j)
				}
			}
		}
	}
}

// TestPartitionEmptyGraph: zero vertices still yields n valid (empty)
// fragments.
func TestPartitionEmptyGraph(t *testing.T) {
	g := New()
	if p := checkPartition(t, g, 4); crossEdges(g, p) != 0 {
		t.Fatal("empty graph has cross edges")
	}
}

// TestPartitionRejectsNonPositive pins the only error case.
func TestPartitionRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := PartitionEdgeCut(New(1), n); err == nil {
			t.Errorf("PartitionEdgeCut(n=%d) accepted", n)
		}
	}
}

// crossEdges counts the edges of g whose endpoints live in different
// fragments of p, the edge-cut cost.
func crossEdges(g *Graph, p *Partition) int {
	cut := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(VID(v)) {
			if p.Of[v] != p.Of[e.To] {
				cut++
			}
		}
	}
	return cut
}
