package index

import (
	"strings"
	"testing"

	"her/internal/graph"
)

func buildGraph() (*graph.Graph, []graph.VID) {
	g := graph.New()
	v0 := g.AddVertex("Dame Basketball Shoes")
	v1 := g.AddVertex("Lightweight Running Shoes")
	v2 := g.AddVertex("Germany")
	v3 := g.AddVertex("Dame Gen 7")
	return g, []graph.VID{v0, v1, v2, v3}
}

func TestLookupSharedTokens(t *testing.T) {
	g, vs := buildGraph()
	ix := BuildDocs(g, nil, nil)
	got := ix.lookup("Dame Basketball Shoes D7", 1, nil)
	// v0 shares 3 tokens, v1 shares 1 ("shoes"), v3 shares 1 ("dame").
	if len(got) != 3 {
		t.Fatalf("Lookup = %v", got)
	}
	if got[0] != vs[0] {
		t.Errorf("highest-overlap vertex should come first, got %v", got)
	}
	// minShared=2 keeps only v0.
	got2 := ix.lookup("Dame Basketball Shoes D7", 2, nil)
	if len(got2) != 1 || got2[0] != vs[0] {
		t.Errorf("minShared=2 Lookup = %v", got2)
	}
	if hits := ix.lookup("nonexistent tokens", 1, nil); hits != nil {
		t.Errorf("no-match lookup = %v", hits)
	}
}

func TestBuildFilter(t *testing.T) {
	g, vs := buildGraph()
	ix := BuildDocs(g, func(v graph.VID) bool { return v == vs[2] }, nil)
	if hits := ix.lookup("Germany", 1, nil); len(hits) != 1 || hits[0] != vs[2] {
		t.Errorf("filtered lookup = %v", hits)
	}
	if hits := ix.lookup("Shoes", 1, nil); hits != nil {
		t.Errorf("filtered-out vertex returned: %v", hits)
	}
	if ix.NumTokens() != 1 {
		t.Errorf("NumTokens = %d", ix.NumTokens())
	}
}

func TestDuplicateTokensCountOnce(t *testing.T) {
	g := graph.New()
	v := g.AddVertex("red red red")
	ix := BuildDocs(g, nil, nil)
	if p := ix.postings["red"]; len(p) != 1 || p[0] != v {
		t.Errorf("postings[red] = %v", p)
	}
	// Query with repeated token should not inflate overlap.
	if hits := ix.lookup("red red", 2, nil); hits != nil {
		t.Errorf("repeated query token inflated overlap: %v", hits)
	}
}

func TestLookupDeterministicOrder(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("alpha common")
	b := g.AddVertex("beta common")
	ix := BuildDocs(g, nil, nil)
	h1 := ix.lookup("common", 1, nil)
	h2 := ix.lookup("common", 1, nil)
	if len(h1) != 2 || h1[0] != h2[0] || h1[1] != h2[1] {
		t.Errorf("order not deterministic: %v vs %v", h1, h2)
	}
	if h1[0] != a || h1[1] != b {
		t.Errorf("ties should break by id: %v", h1)
	}
}

func TestNeighborhoodDoc(t *testing.T) {
	g := graph.New()
	e := g.AddVertex("item")
	v1 := g.AddVertex("red")
	v2 := g.AddVertex("Dame Seven")
	g.MustAddEdge(e, v1, "hasColor")
	g.MustAddEdge(e, v2, "names")
	doc := NeighborhoodDoc(g)(e)
	for _, want := range []string{"item", "red", "Dame Seven"} {
		if !strings.Contains(doc, want) {
			t.Errorf("doc %q missing %q", doc, want)
		}
	}
	// Indexing with the neighborhood doc finds the entity by its values.
	ix := BuildDocs(g, func(v graph.VID) bool { return !g.IsLeaf(v) }, NeighborhoodDoc(g))
	hits := ix.lookup("red dame", 2, nil)
	if len(hits) != 1 || hits[0] != e {
		t.Errorf("neighborhood lookup = %v", hits)
	}
}

// TestNeighborhoodDocExactFormat pins the exact document string
// (label, then each out-neighbor label, space-separated, in edge
// order). The strings.Builder rewrite of NeighborhoodDoc must produce
// byte-identical docs to the old "+"-concatenation, or previously
// indexed tokenizations would shift.
func TestNeighborhoodDocExactFormat(t *testing.T) {
	g := graph.New()
	e := g.AddVertex("item")
	v1 := g.AddVertex("red")
	v2 := g.AddVertex("Dame Seven")
	g.MustAddEdge(e, v1, "hasColor")
	g.MustAddEdge(e, v2, "names")
	naive := g.Label(e)
	for _, edge := range g.Out(e) {
		naive += " " + g.Label(edge.To)
	}
	if got := NeighborhoodDoc(g)(e); got != naive {
		t.Errorf("NeighborhoodDoc = %q, want %q", got, naive)
	}
	// A vertex with no out-edges is just its own label, no trailing space.
	if got := NeighborhoodDoc(g)(v1); got != "red" {
		t.Errorf("leaf doc = %q, want %q", got, "red")
	}
}

// TestLookupNoMatchNil pins the no-match contract: Lookup returns nil,
// never a non-nil empty slice. The capacity-preallocated rewrite
// regressed this once; callers distinguish "no candidates" by == nil.
func TestLookupNoMatchNil(t *testing.T) {
	g, _ := buildGraph()
	ix := BuildDocs(g, nil, nil)
	if got := ix.lookup("zzz qqq", 1, nil); got != nil {
		t.Errorf("Lookup(no shared tokens) = %#v, want nil", got)
	}
	if got := ix.lookup("dame", 5, nil); got != nil {
		t.Errorf("Lookup(minShared unreachable) = %#v, want nil", got)
	}
}

// TestBlockingCandidates pins the blocking rule: only non-leaf vertices
// are indexed, each under its neighborhood document; a G_D vertex is
// queried by its own neighborhood document at the index's minShared;
// keep drops vertices before counting; and the order is shared tokens
// descending, then id ascending.
func TestBlockingCandidates(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("shoe")
	g.MustAddEdge(a, g.AddVertex("Dame Seven"), "name")
	g.MustAddEdge(a, g.AddVertex("red"), "color")
	b := g.AddVertex("shoe")
	g.MustAddEdge(b, g.AddVertex("Dame Six"), "name")
	g.AddVertex("shoe red dame") // a leaf: not indexed

	gd := graph.New()
	u := gd.AddVertex("shoe")
	gd.MustAddEdge(u, gd.AddVertex("Dame red"), "name")

	ix := Blocking(g, 2)
	if got := ix.Candidates(gd, u, nil); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("Candidates = %v, want [%d %d] (a shares 3 tokens, b 2; the leaf is not indexed)", got, a, b)
	}
	if got := ix.Candidates(gd, u, func(v graph.VID) bool { return v != a }); len(got) != 1 || got[0] != b {
		t.Errorf("Candidates keeping all but %d = %v, want [%d]", a, got, b)
	}
	if got := Blocking(g, 4).Candidates(gd, u, nil); got != nil {
		t.Errorf("Candidates at minShared 4 = %v, want nil", got)
	}
	if got := Blocking(g, 1).Candidates(gd, 1, nil); len(got) != 2 {
		t.Errorf("Candidates of a G_D leaf = %v, want both entities (its doc is its label)", got)
	}
}
