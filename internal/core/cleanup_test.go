package core

import (
	"math/rand"
	"testing"

	"her/internal/graph"
	"her/internal/ranking"
)

// sccFixture builds the appendix-C style interdependence scenario. With
// δ = 1.0, every pair needs two children contributing h_ρ = 0.5 apiece:
//
//	G_D: u1 --b--> u2; u2 --c--> u1 (SCC); u2 --e--> u4 (leaf K);
//	     u1 --d--> u3; u3 --f--> u5 --g--> u6 (leaf); u3 --h--> u7 (leaf)
//	G:   mirrors it with v1..v7 and the same edge labels, except the
//	     labels of v6 and v7 differ from u6 and u7.
//
// Evaluation order makes (u2, v2) validate first using the optimistic
// entry for (u1, v1); then (u3, v3) fails (both its candidate lists are
// empty), which invalidates (u1, v1), whose cleanup must rectify the now
// stale (u2, v2).
func sccFixture() (gd, g *graph.Graph, u1, v1, u2, v2 graph.VID) {
	gd = graph.New()
	u1 = gd.AddVertex("A")
	u2 = gd.AddVertex("B")
	u3 := gd.AddVertex("C")
	u4 := gd.AddVertex("K")
	u5 := gd.AddVertex("E")
	u6 := gd.AddVertex("W")
	u7 := gd.AddVertex("P")
	gd.MustAddEdge(u1, u2, "b")
	gd.MustAddEdge(u2, u1, "c")
	gd.MustAddEdge(u2, u4, "e")
	gd.MustAddEdge(u1, u3, "d")
	gd.MustAddEdge(u3, u5, "f")
	gd.MustAddEdge(u5, u6, "g")
	gd.MustAddEdge(u3, u7, "h")

	g = graph.New()
	v1 = g.AddVertex("A")
	v2 = g.AddVertex("B")
	v3 := g.AddVertex("C")
	v4 := g.AddVertex("K")
	v5 := g.AddVertex("E")
	v6 := g.AddVertex("Z") // mismatches u6
	v7 := g.AddVertex("Q") // mismatches u7
	g.MustAddEdge(v1, v2, "b")
	g.MustAddEdge(v2, v1, "c")
	g.MustAddEdge(v2, v4, "e")
	g.MustAddEdge(v1, v3, "d")
	g.MustAddEdge(v3, v5, "f")
	g.MustAddEdge(v5, v6, "g")
	g.MustAddEdge(v3, v7, "h")
	return gd, g, u1, v1, u2, v2
}

func TestInterdependentCleanup(t *testing.T) {
	gd, g, u1, v1, u2, v2 := sccFixture()
	m := newMatcher(t, gd, g, Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 1.0, K: 5})
	if m.Match(u1, v1) {
		t.Error("(u1, v1) should not match: the SCC's support collapses")
	}
	mustCheckState(t, m, "after cleanup")
	// The stale (u2, v2) entry must have been rectified by cleanup.
	if valid, found := m.Cached(Pair{U: u2, V: v2}); found && valid {
		t.Error("(u2, v2) left stale-valid after cleanup")
	}
	if m.Stats().Cleanups == 0 {
		t.Error("cleanup stage never ran")
	}
	if m.Stats().Rechecks == 0 {
		t.Error("no dependant pair was rechecked")
	}
	// Agreement with the reference fixpoint.
	m2 := newMatcher(t, gd, g, Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 1.0, K: 5})
	if pairSet(ReferenceMatch(m2))[Pair{U: u1, V: v1}] {
		t.Error("reference should also reject")
	}
}

func TestSelfSupportingCyclePositive(t *testing.T) {
	// u1 <-> u2 and v1 <-> v2 with identical labels; δ = 0.5 is supplied
	// by the single cyclic child, so the pair is coinductively valid —
	// the greatest-fixpoint semantics of simulation.
	gd := graph.New()
	u1 := gd.AddVertex("A")
	u2 := gd.AddVertex("B")
	gd.MustAddEdge(u1, u2, "x")
	gd.MustAddEdge(u2, u1, "y")
	g := graph.New()
	v1 := g.AddVertex("A")
	v2 := g.AddVertex("B")
	g.MustAddEdge(v1, v2, "x")
	g.MustAddEdge(v2, v1, "y")
	p := Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.5, K: 3}
	m := newMatcher(t, gd, g, p)
	if !m.Match(u1, v1) {
		t.Error("self-supporting cycle should match coinductively")
	}
	m2 := newMatcher(t, gd, g, p)
	if !pairSet(ReferenceMatch(m2))[Pair{U: u1, V: v1}] {
		t.Error("reference disagrees on cycle")
	}
}

func TestRecheckBudgetTerminates(t *testing.T) {
	// A dense SCC with partially matching labels stresses repeated
	// cleanup. A pair is re-run only when a member of its W turns false,
	// and each pair turns false at most once, so the cleanups terminate
	// at the reference verdict.
	gd := graph.New()
	g := graph.New()
	const n = 6
	var us, vs []graph.VID
	for i := 0; i < n; i++ {
		us = append(us, gd.AddVertex("N"))
		vs = append(vs, g.AddVertex("N"))
	}
	for i := 0; i < n; i++ {
		gd.MustAddEdge(us[i], us[(i+1)%n], "e")
		g.MustAddEdge(vs[i], vs[(i+2)%n], "e")
	}
	m := newMatcher(t, gd, g, Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.4, K: 3})
	got := m.Match(us[0], vs[0])
	mustCheckState(t, m, "after the cleanups")
	m2 := newMatcher(t, gd, g, Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.4, K: 3})
	if ref := pairSet(ReferenceMatch(m2))[Pair{U: us[0], V: vs[0]}]; got != ref {
		t.Errorf("ParaMatch=%t, reference=%t", got, ref)
	}
}

// pairSet indexes a match set.
func pairSet(ps []Pair) map[Pair]bool {
	set := make(map[Pair]bool, len(ps))
	for _, p := range ps {
		set[p] = true
	}
	return set
}

// randomGraph builds a small random labeled graph.
func randomGraph(rng *rand.Rand, nv, ne int, labels []string, edgeLabels []string) *graph.Graph {
	g := graph.New()
	for i := 0; i < nv; i++ {
		g.AddVertex(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < ne; i++ {
		from := graph.VID(rng.Intn(nv))
		to := graph.VID(rng.Intn(nv))
		g.MustAddEdge(from, to, edgeLabels[rng.Intn(len(edgeLabels))])
	}
	return g
}

// TestSoundnessAgainstReference: ParaMatch confirms a pair exactly when
// the maximum-weight-assignment greatest fixpoint contains it — sound
// (no pair outside Π) and complete (no pair of Π missed).
func TestSoundnessAgainstReference(t *testing.T) {
	labels := []string{"P", "Q", "R"}
	edgeLabels := []string{"x", "y"}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		nv := 3 + rng.Intn(4)
		ne := rng.Intn(2 * nv)
		gd := randomGraph(rng, nv, ne, labels, edgeLabels)
		g := randomGraph(rng, nv, ne, labels, edgeLabels)
		delta := []float64{0.3, 0.5, 1.0}[rng.Intn(3)]
		p := Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: delta, K: 3}
		u := graph.VID(rng.Intn(nv))
		v := graph.VID(rng.Intn(nv))
		m, err := NewMatcher(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
		if err != nil {
			t.Fatal(err)
		}
		got := m.Match(u, v)
		mustCheckState(t, m, "trial %d", trial)
		m2, _ := NewMatcher(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
		if ref := pairSet(ReferenceMatch(m2))[Pair{U: u, V: v}]; got != ref {
			t.Fatalf("trial %d: ParaMatch=%t but reference=%t (nv=%d ne=%d δ=%.1f u=%d v=%d)",
				trial, got, ref, nv, ne, delta, u, v)
		}
	}
}

func TestAssumeAndInvalidObserver(t *testing.T) {
	gd := graph.New()
	u := gd.AddVertex("A")
	g := graph.New()
	v := g.AddVertex("B")
	m := newMatcher(t, gd, g, Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.5, K: 2})
	p := Pair{U: u, V: v}
	m.Assume(p)
	if !m.IsAssumed(p) {
		t.Error("assumption not recorded")
	}
	if ok, found := m.Cached(p); !found || !ok {
		t.Error("assumed pair should answer true from cache")
	}
	var invalidated []Pair
	m.SetBorder(Border{OnInvalid: func(q Pair) { invalidated = append(invalidated, q) }})
	// Force evaluation: labels differ so it is invalid.
	delete(m.verdict, p)
	if m.Match(u, v) {
		t.Error("A/B should not match at sigma=1")
	}
	mustCheckState(t, m, "after invalidation")
	if len(invalidated) != 1 || invalidated[0] != p {
		t.Errorf("observer saw %v", invalidated)
	}
	if m.IsAssumed(p) {
		t.Error("invalidation should clear the assumption")
	}
}

func TestResetClearsState(t *testing.T) {
	f := buildPaperFixture(t)
	m := newMatcher(t, f.gd, f.g, f.params)
	m.Match(f.u1, f.v1)
	if m.Stats().Calls == 0 {
		t.Fatal("setup")
	}
	m.Reset()
	if m.Stats().Calls != 0 {
		t.Error("Reset did not clear stats")
	}
	if _, found := m.Cached(Pair{U: f.u1, V: f.v1}); found {
		t.Error("Reset did not clear cache")
	}
}
