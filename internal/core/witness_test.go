package core

import (
	"math/rand"
	"testing"

	"her/internal/graph"
	"her/internal/ranking"
)

// TestWitnessSatisfiesDefinition checks, on random graphs, that every
// confirmed match's recorded witness Π really is a parametric-simulation
// relation: each pair satisfies h_v ≥ σ, and each non-leaf pair's
// lineage is injective with aggregate h_ρ ≥ δ and members inside Π.
func TestWitnessSatisfiesDefinition(t *testing.T) {
	labels := []string{"P", "Q", "R"}
	edgeLabels := []string{"x", "y"}
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 80 && checked < 25; trial++ {
		nv := 4 + rng.Intn(5)
		ne := rng.Intn(2 * nv)
		gd := randomGraph(rng, nv, ne, labels, edgeLabels)
		g := randomGraph(rng, nv, ne, labels, edgeLabels)
		p := Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.4, K: 3}
		m, err := NewMatcher(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
		if err != nil {
			t.Fatal(err)
		}
		u := graph.VID(rng.Intn(nv))
		v := graph.VID(rng.Intn(nv))
		if !m.Match(u, v) {
			continue
		}
		mustCheckState(t, m, "trial %d", trial)
		checked++
		w := m.Witness(u, v)
		inPi := make(map[Pair]bool, len(w))
		for _, pr := range w {
			inPi[pr] = true
		}
		if !inPi[(Pair{U: u, V: v})] {
			t.Fatalf("witness misses the root pair")
		}
		for _, pr := range w {
			if m.Hv(pr.U, pr.V) < p.Sigma {
				t.Errorf("witness pair %v violates sigma", pr)
			}
			if gd.IsLeaf(pr.U) {
				continue
			}
			lineage := m.Lineage(pr.U, pr.V)
			// Injectivity.
			usedV := map[graph.VID]bool{}
			var sum float64
			sel := map[graph.VID]ranking.Selected{}
			for _, s := range m.RD.TopK(pr.U, p.K) {
				sel[s.Desc] = s
			}
			selV := map[graph.VID]ranking.Selected{}
			for _, s := range m.RG.TopK(pr.V, p.K) {
				selV[s.Desc] = s
			}
			for _, lp := range lineage {
				if usedV[lp.V] {
					t.Errorf("lineage of %v not injective", pr)
				}
				usedV[lp.V] = true
				if !inPi[lp] {
					t.Errorf("lineage pair %v of %v missing from witness", lp, pr)
				}
				su, okU := sel[lp.U]
				sv, okV := selV[lp.V]
				if !okU || !okV {
					t.Fatalf("lineage pair %v not among top-k selections", lp)
				}
				sum += m.Hrho(su.Path, sv.Path)
			}
			if sum < p.Delta-1e-9 {
				t.Errorf("lineage of %v aggregates to %f < delta", pr, sum)
			}
		}
	}
	if checked == 0 {
		t.Skip("no matches produced on random graphs this seed")
	}
}

// TestMaximumMatchUnion is Proposition 4's machinery: ParaMatch confirms
// exactly the pairs of the unique maximum match computed by the
// reference fixpoint, and the union of their witnesses (from different
// query roots over the same graphs) stays inside it.
func TestMaximumMatchUnion(t *testing.T) {
	labels := []string{"P", "Q"}
	edgeLabels := []string{"x"}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		nv := 4 + rng.Intn(4)
		ne := rng.Intn(2 * nv)
		gd := randomGraph(rng, nv, ne, labels, edgeLabels)
		g := randomGraph(rng, nv, ne, labels, edgeLabels)
		p := Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.4, K: 3}
		m, err := NewMatcher(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
		if err != nil {
			t.Fatal(err)
		}
		m2, _ := NewMatcher(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
		ref := pairSet(ReferenceMatch(m2))
		var union []Pair
		for u := 0; u < nv; u++ {
			for v := 0; v < nv; v++ {
				pr := Pair{U: graph.VID(u), V: graph.VID(v)}
				got := m.Match(pr.U, pr.V)
				if got != ref[pr] {
					t.Fatalf("trial %d: ParaMatch%v = %t, reference %t", trial, pr, got, ref[pr])
				}
				if got {
					union = append(union, m.Witness(pr.U, pr.V)...)
				}
			}
		}
		// Every witnessed pair must be in the greatest fixpoint.
		for _, pr := range union {
			if !ref[pr] {
				t.Fatalf("trial %d: witnessed pair %v outside the maximum match", trial, pr)
			}
		}
	}
}

func TestLineageOfUnknownPair(t *testing.T) {
	f := buildPaperFixture(t)
	m := newMatcher(t, f.gd, f.g, f.params)
	if m.Lineage(f.u1, f.v1) != nil {
		t.Error("lineage before matching should be nil")
	}
	if m.Witness(f.u1, f.v3) != nil {
		t.Error("witness of unevaluated pair should be nil")
	}
}

// TestVPairEqualsPerPairMatch: the degree-sorted, cache-sharing
// VParaMatch returns exactly the vertices a fresh per-pair ParaMatch
// confirms (DESIGN.md invariant).
func TestVPairEqualsPerPairMatch(t *testing.T) {
	labels := []string{"P", "Q", "R"}
	edgeLabels := []string{"x", "y"}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		nv := 4 + rng.Intn(6)
		ne := rng.Intn(2 * nv)
		gd := randomGraph(rng, nv, ne, labels, edgeLabels)
		g := randomGraph(rng, nv, ne, labels, edgeLabels)
		p := Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.4, K: 3}
		u := graph.VID(rng.Intn(nv))

		m, err := NewMatcher(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
		if err != nil {
			t.Fatal(err)
		}
		got := map[graph.VID]bool{}
		for _, pr := range m.VPair(u, nil) {
			got[pr.V] = true
		}
		mustCheckState(t, m, "trial %d", trial)
		for v := 0; v < nv; v++ {
			fresh, _ := NewMatcher(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
			want := fresh.Match(u, graph.VID(v))
			if got[graph.VID(v)] != want {
				t.Fatalf("trial %d: VPair and per-pair Match disagree on (%d,%d): %v vs %v",
					trial, u, v, got[graph.VID(v)], want)
			}
		}
	}
}
