package core

import (
	"testing"

	"her/internal/graph"
	"her/internal/ranking"
)

// trackedFixture: u1 needs both children (δ=1.0); the (u2,v2) child is
// decided externally via assumption.
func trackedFixture(t *testing.T) (*Matcher, Pair, Pair) {
	t.Helper()
	gd := graph.New()
	u1 := gd.AddVertex("A")
	u2 := gd.AddVertex("B")
	u3 := gd.AddVertex("C")
	gd.MustAddEdge(u1, u2, "b")
	gd.MustAddEdge(u1, u3, "c")
	g := graph.New()
	v1 := g.AddVertex("A")
	v2 := g.AddVertex("B")
	v3 := g.AddVertex("C")
	g.MustAddEdge(v1, v2, "b")
	g.MustAddEdge(v1, v3, "c")
	m := newMatcher(t, gd, g, Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 1.0, K: 3})
	m.SetBorder(Border{})
	return m, Pair{U: u1, V: v1}, Pair{U: u2, V: v2}
}

func TestInvalidateAssumptionFlipsReader(t *testing.T) {
	m, root, child := trackedFixture(t)
	// Delegate the child pair: assume it true.
	m.SetBorder(Border{Delegate: func(p Pair) bool { return p == child }})
	if !m.Match(root.U, root.V) {
		t.Fatal("root should match under the assumption")
	}
	mustCheckState(t, m, "Assume")
	// The owner refutes the assumption: the root must flip to false.
	m.Invalidate(child)
	mustCheckState(t, m, "Invalidate")
	if valid, ok := m.Cached(root); !ok || valid {
		t.Error("root not rectified after assumption refuted")
	}
	// And back: revalidation restores it.
	m.Revalidate(child)
	mustCheckState(t, m, "Revalidate")
	if valid, ok := m.Cached(root); !ok || !valid {
		t.Error("root not restored after revalidation")
	}
}

func TestRevalidateObserver(t *testing.T) {
	m, root, child := trackedFixture(t)
	var revalidated []Pair
	m.SetBorder(Border{
		Delegate:  func(p Pair) bool { return p == child },
		OnRevalid: func(p Pair) { revalidated = append(revalidated, p) },
	})
	m.Match(root.U, root.V)
	m.Invalidate(child)
	m.Revalidate(child)
	mustCheckState(t, m, "Invalidate, Revalidate")
	// The root flipped false→true during Revalidate's rerun.
	found := false
	for _, p := range revalidated {
		if p == root {
			found = true
		}
	}
	if !found {
		t.Errorf("onRevalid saw %v, want root %v", revalidated, root)
	}
}

func TestFrozenPairStaysInvalid(t *testing.T) {
	m, root, child := trackedFixture(t)
	m.SetBorder(Border{Delegate: func(p Pair) bool { return p == child }})
	m.Match(root.U, root.V)
	// Oscillate the assumption beyond the recheck budget.
	budget := m.maxRechecks()
	for i := 0; i < budget+5; i++ {
		m.Invalidate(child)
		mustCheckState(t, m, "round %d: Invalidate", i)
		m.Revalidate(child)
		mustCheckState(t, m, "round %d: Revalidate", i)
	}
	// The root is frozen at a conservative verdict; further revalidation
	// cannot resurrect it.
	if !m.frozen[root] {
		t.Skip("budget not exhausted in this configuration")
	}
	if valid, ok := m.Cached(root); !ok || valid {
		t.Error("frozen root should stay invalid")
	}
	m.Revalidate(child)
	mustCheckState(t, m, "Revalidate of a frozen reader")
	if valid, _ := m.Cached(root); valid {
		t.Error("frozen pair resurrected")
	}
}

func TestForgetVertices(t *testing.T) {
	f := buildPaperFixture(t)
	m := newMatcher(t, f.gd, f.g, f.params)
	if !m.Match(f.u1, f.v1) {
		t.Fatal("setup")
	}
	if _, ok := m.Cached(Pair{U: f.u2, V: f.v10}); !ok {
		t.Fatal("brand pair should be cached")
	}
	mustCheckState(t, m, "Match")
	// Forget everything whose G side is the brand vertex: the brand pair
	// AND the root (which depends on it) must both be dropped.
	m.ForgetVertices(func(v graph.VID) bool { return v == f.v10 })
	mustCheckState(t, m, "ForgetVertices")
	if _, ok := m.Cached(Pair{U: f.u2, V: f.v10}); ok {
		t.Error("brand pair survived ForgetVertices")
	}
	if _, ok := m.Cached(Pair{U: f.u1, V: f.v1}); ok {
		t.Error("dependent root survived ForgetVertices")
	}
	// Re-evaluation from scratch reproduces the match.
	if !m.Match(f.u1, f.v1) {
		t.Error("match lost after forget + re-evaluate")
	}
	mustCheckState(t, m, "re-evaluate")
}

func TestNoteReadIgnoresSelf(t *testing.T) {
	m, root, _ := trackedFixture(t)
	m.noteRead(root, root)
	if len(m.readers[root]) != 0 {
		t.Error("self-read recorded")
	}
}

func TestCandidateListOrdering(t *testing.T) {
	gd := graph.New()
	u := gd.AddVertex("E")
	ua := gd.AddVertex("x")
	gd.MustAddEdge(u, ua, "good")
	g := graph.New()
	v := g.AddVertex("E")
	va := g.AddVertex("x")
	vb := g.AddVertex("x")
	g.MustAddEdge(v, va, "good")
	g.MustAddEdge(v, vb, "bad")
	// M_ρ scores "good/good" above "good/bad"; the candidate list for
	// ua must come back sorted by descending h_ρ.
	mrho := func(a, b []string) float64 {
		if a[0] == b[0] {
			return 1
		}
		return 0.2
	}
	m, err := NewMatcher(gd, g,
		ranking.NewRanker(gd, nil, 2), ranking.NewRanker(g, nil, 2),
		Params{Mv: exactMv, Mrho: mrho, Sigma: 1, Delta: 0.1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	vuk := m.RD.TopK(u, 3)
	vvk := m.RG.TopK(v, 3)
	l := m.candidateList(vuk[0], vvk)
	if len(l) != 2 {
		t.Fatalf("candidate list = %+v", l)
	}
	if l[0].score < l[1].score {
		t.Errorf("list not descending: %+v", l)
	}
	if l[0].v != va {
		t.Errorf("best candidate should be va (via 'good'), got %v", l[0].v)
	}
}
