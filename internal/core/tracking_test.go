package core

import (
	"testing"

	"her/internal/graph"
	"her/internal/ranking"
)

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
