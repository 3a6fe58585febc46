package core

import (
	"strings"
	"testing"

	"her/internal/graph"
	"her/internal/ranking"
)

// exactMv scores 1 for identical labels, 0 otherwise.
func exactMv(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// exactMrho scores 1 for identical label sequences, 0 otherwise.
func exactMrho(a, b []string) float64 {
	if strings.Join(a, " ") == strings.Join(b, " ") {
		return 1
	}
	return 0
}

// tableMv/tableMrho return table-driven scorers falling back to exact.
func tableMv(t map[[2]string]float64) VertexScorer {
	return func(a, b string) float64 {
		if a == b {
			return 1
		}
		if s, ok := t[[2]string{a, b}]; ok {
			return s
		}
		return 0
	}
}

func tableMrho(t map[[2]string]float64) PathScorer {
	return func(a, b []string) float64 {
		ka, kb := strings.Join(a, " "), strings.Join(b, " ")
		if ka == kb {
			return 0.8
		}
		if s, ok := t[[2]string{ka, kb}]; ok {
			return s
		}
		return 0
	}
}

func newMatcher(t *testing.T, gd, g *graph.Graph, p Params) *Matcher {
	t.Helper()
	m, err := NewMatcher(gd, g, ranking.NewRanker(gd, nil, 4), ranking.NewRanker(g, nil, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	good := Params{Mv: exactMv, Mrho: exactMrho, Sigma: 0.5, Delta: 1, K: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
	bad := []Params{
		{Mrho: exactMrho, Sigma: 0.5, Delta: 1, K: 3},
		{Mv: exactMv, Sigma: 0.5, Delta: 1, K: 3},
		{Mv: exactMv, Mrho: exactMrho, Sigma: -0.1, Delta: 1, K: 3},
		{Mv: exactMv, Mrho: exactMrho, Sigma: 1.5, Delta: 1, K: 3},
		{Mv: exactMv, Mrho: exactMrho, Sigma: 0.5, Delta: -1, K: 3},
		{Mv: exactMv, Mrho: exactMrho, Sigma: 0.5, Delta: 1, K: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if _, err := NewMatcher(nil, nil, nil, nil, good); err == nil {
		t.Error("nil graphs accepted")
	}
}

func TestLeafMatching(t *testing.T) {
	gd := graph.New()
	u := gd.AddVertex("Germany")
	g := graph.New()
	v := g.AddVertex("Germany")
	w := g.AddVertex("France")
	m := newMatcher(t, gd, g, Params{Mv: exactMv, Mrho: exactMrho, Sigma: 0.9, Delta: 1, K: 3})
	if !m.Match(u, v) {
		t.Error("identical leaves should match")
	}
	if m.Match(u, w) {
		t.Error("different leaves should not match")
	}
	// Cached on re-query.
	before := m.Stats().Calls
	m.Match(u, v)
	if m.Stats().Calls != before {
		t.Error("second query should be answered from cache")
	}
}

// TestDeltaZeroNeedsNoLineage: at δ = 0 the empty lineage set reaches
// δ, so a non-leaf pair with h_v ≥ σ matches even when no candidate of
// its properties does — as the reference fixpoint says.
func TestDeltaZeroNeedsNoLineage(t *testing.T) {
	gd := graph.New()
	u1 := gd.AddVertex("A")
	u2 := gd.AddVertex("B")
	gd.MustAddEdge(u1, u2, "x")
	g := graph.New()
	v1 := g.AddVertex("A")
	v2 := g.AddVertex("C") // no candidate for u2
	g.MustAddEdge(v1, v2, "x")
	p := Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0, K: 3}
	if !pairSet(ReferenceMatch(newMatcher(t, gd, g, p)))[Pair{U: u1, V: v1}] {
		t.Fatal("reference rejects (u1, v1) at δ = 0")
	}
	m := newMatcher(t, gd, g, p)
	if !m.Match(u1, v1) {
		t.Error("(u1, v1) rejected at δ = 0")
	}
	if w := m.Lineage(u1, v1); len(w) != 0 {
		t.Errorf("lineage %v, want the empty set", w)
	}
}

func TestHrhoNormalization(t *testing.T) {
	gd := graph.New()
	a := gd.AddVertex("a")
	b := gd.AddVertex("b")
	gd.MustAddEdge(a, b, "x")
	m := newMatcher(t, gd, gd, Params{Mv: exactMv, Mrho: exactMrho, Sigma: 0.5, Delta: 1, K: 3})
	p1 := graph.SingleVertexPath(a).Extend(graph.Edge{To: b, Label: "x"})
	if got := m.Hrho(p1, p1); got != 0.5 {
		t.Errorf("Hrho = %f, want 1/(1+1)", got)
	}
	empty := graph.SingleVertexPath(a)
	if got := m.Hrho(empty, empty); got != 0 {
		t.Errorf("Hrho of empty paths = %f", got)
	}
}

// paperFixture builds the running example: the canonical graph side is a
// hand-built equivalent of Fig. 3 (tuples t1, b1) and the G side mirrors
// Fig. 1's neighborhood of v1 plus a decoy item v3.
type paperFixture struct {
	gd, g  *graph.Graph
	u1, u2 graph.VID // item t1, brand b1 tuple vertices
	uQty   graph.VID
	v1, v3 graph.VID // matching item, decoy item
	v10    graph.VID // brand entity
	params Params
}

func buildPaperFixture(t *testing.T) *paperFixture {
	t.Helper()
	gd := graph.New()
	// Tuple vertices first (mirrors rdb2rdf pass 1; brand sorts first).
	u2 := gd.AddVertex("brand") // b1
	u1 := gd.AddVertex("item")  // t1
	// brand b1 attributes.
	u11 := gd.AddVertex("Addidas Originals")
	u7 := gd.AddVertex("Germany")
	u8 := gd.AddVertex("Addidas AG")
	u9 := gd.AddVertex("Can Duoc, VN")
	gd.MustAddEdge(u2, u11, "name")
	gd.MustAddEdge(u2, u7, "country")
	gd.MustAddEdge(u2, u8, "manufacturer")
	gd.MustAddEdge(u2, u9, "made_in")
	// item t1 attributes + FK edge to u2.
	u10 := gd.AddVertex("Dame Basketball Shoes D7")
	u3 := gd.AddVertex("phylon foam")
	u4 := gd.AddVertex("white")
	u6 := gd.AddVertex("Dame 7")
	u5 := gd.AddVertex("500")
	gd.MustAddEdge(u1, u10, "item")
	gd.MustAddEdge(u1, u3, "material")
	gd.MustAddEdge(u1, u4, "color")
	gd.MustAddEdge(u1, u6, "type")
	gd.MustAddEdge(u1, u2, "brand")
	gd.MustAddEdge(u1, u5, "qty")

	g := graph.New()
	v1 := g.AddVertex("item")
	v0 := g.AddVertex("Dame Basketball Shoes")
	v6 := g.AddVertex("Phylon foam")
	v8 := g.AddVertex("Dame Gen 7")
	v10 := g.AddVertex("brand")
	v12 := g.AddVertex("white")
	v2 := g.AddVertex("Basketball Shoes")
	g.MustAddEdge(v1, v0, "names")
	g.MustAddEdge(v1, v6, "soleMadeBy")
	g.MustAddEdge(v1, v8, "typeNo")
	g.MustAddEdge(v1, v10, "brandName")
	g.MustAddEdge(v1, v12, "hasColor")
	g.MustAddEdge(v1, v2, "IsA")
	// Brand entity neighborhood.
	v18 := g.AddVertex("Addidas Originals")
	v20 := g.AddVertex("Germany")
	v17 := g.AddVertex("Addidas AG")
	v15 := g.AddVertex("Factory 9")
	v19 := g.AddVertex("Can Duoc")
	v9 := g.AddVertex("Can Duoc, VN")
	g.MustAddEdge(v10, v18, "type")
	g.MustAddEdge(v10, v20, "brandCountry")
	g.MustAddEdge(v10, v17, "belongsTo")
	g.MustAddEdge(v10, v15, "factorySite")
	g.MustAddEdge(v15, v19, "isIn")
	g.MustAddEdge(v19, v9, "isIn")
	// Decoy item v3 with non-matching properties.
	v3 := g.AddVertex("item")
	v21 := g.AddVertex("Ultra Comfortable Shoes")
	v22 := g.AddVertex("red")
	g.MustAddEdge(v3, v21, "names")
	g.MustAddEdge(v3, v22, "hasColor")

	mv := tableMv(map[[2]string]float64{
		{"Dame Basketball Shoes D7", "Dame Basketball Shoes"}: 0.9,
		{"Dame 7", "Dame Gen 7"}:                              0.85,
		{"phylon foam", "Phylon foam"}:                        0.95,
	})
	mrho := tableMrho(map[[2]string]float64{
		{"brand", "brandName"}:               0.75,
		{"material", "soleMadeBy"}:           0.75,
		{"color", "hasColor"}:                0.75,
		{"type", "typeNo"}:                   0.75,
		{"item", "names"}:                    0.75,
		{"country", "brandCountry"}:          0.75,
		{"manufacturer", "belongsTo"}:        0.9,
		{"name", "type"}:                     0.9,
		{"made_in", "factorySite isIn isIn"}: 1.0,
		{"made_in", "factorySite"}:           0.46,
		{"made_in", "factorySite isIn"}:      0.68,
	})
	return &paperFixture{
		gd: gd, g: g, u1: u1, u2: u2, uQty: u5, v1: v1, v3: v3, v10: v10,
		params: Params{Mv: mv, Mrho: mrho, Sigma: 0.7, Delta: 1.5, K: 5},
	}
}

func TestPaperExampleMatch(t *testing.T) {
	f := buildPaperFixture(t)
	m := newMatcher(t, f.gd, f.g, f.params)
	if !m.Match(f.u1, f.v1) {
		t.Fatal("(u1, v1) should match (Example 4)")
	}
	// The brand pair must be confirmed recursively.
	if ok, found := m.Cached(Pair{U: f.u2, V: f.v10}); !found || !ok {
		t.Error("(u2, v10) should be a confirmed match in the cache")
	}
	// Lineage of (u1, v1) includes the brand pair; qty has no match and
	// must not appear (Example 4's remark).
	lineage := m.Lineage(f.u1, f.v1)
	if len(lineage) == 0 {
		t.Fatal("no lineage recorded")
	}
	hasBrand := false
	for _, p := range lineage {
		if p.U == f.uQty {
			t.Error("qty should have no match in the lineage")
		}
		if p.U == f.u2 && p.V == f.v10 {
			hasBrand = true
		}
	}
	if !hasBrand {
		t.Errorf("brand pair missing from lineage %v", lineage)
	}
	// Lineage injectivity.
	usedV := map[graph.VID]bool{}
	for _, p := range lineage {
		if usedV[p.V] {
			t.Error("lineage is not injective")
		}
		usedV[p.V] = true
	}
}

func TestPaperExampleDecoyRejected(t *testing.T) {
	f := buildPaperFixture(t)
	m := newMatcher(t, f.gd, f.g, f.params)
	if m.Match(f.u1, f.v3) {
		t.Error("(u1, v3) should not match: properties disagree")
	}
}

func TestPaperExampleWitness(t *testing.T) {
	f := buildPaperFixture(t)
	m := newMatcher(t, f.gd, f.g, f.params)
	if !m.Match(f.u1, f.v1) {
		t.Fatal("setup")
	}
	w := m.Witness(f.u1, f.v1)
	if len(w) == 0 {
		t.Fatal("no witness")
	}
	// Every witness pair satisfies h_v ≥ σ.
	for _, p := range w {
		if m.Hv(p.U, p.V) < f.params.Sigma {
			t.Errorf("witness pair (%d,%d) violates sigma", p.U, p.V)
		}
	}
	// The root and the brand pair are present.
	found := map[Pair]bool{}
	for _, p := range w {
		found[p] = true
	}
	if !found[(Pair{U: f.u1, V: f.v1})] || !found[(Pair{U: f.u2, V: f.v10})] {
		t.Errorf("witness missing key pairs: %v", w)
	}
	// Non-match has no witness.
	if m.Witness(f.u1, f.v3) != nil {
		t.Error("non-match should have nil witness")
	}
}

func TestPaperExampleSchemaMatches(t *testing.T) {
	f := buildPaperFixture(t)
	m := newMatcher(t, f.gd, f.g, f.params)
	if !m.Match(f.u2, f.v10) {
		t.Fatal("(u2, v10) should match")
	}
	sm, err := m.SchemaMatches(f.u2, f.v10)
	if err != nil {
		t.Fatal(err)
	}
	byAttr := map[string]SchemaMatch{}
	for _, s := range sm {
		byAttr[s.Attr] = s
	}
	// made_in maps to the full factorySite-isIn-isIn path (appendix D,
	// Example 8: the 3-edge prefix has the maximum M_ρ).
	mi, ok := byAttr["made_in"]
	if !ok {
		t.Fatalf("made_in missing from schema matches %v", sm)
	}
	if mi.Rho.LabelString() != "factorySite isIn isIn" {
		t.Errorf("made_in maps to %q", mi.Rho.LabelString())
	}
	// country maps to the single edge brandCountry.
	if c, ok := byAttr["country"]; !ok || c.Rho.LabelString() != "brandCountry" {
		t.Errorf("country schema match = %+v", byAttr["country"])
	}
	// Schema matches of a non-match error out.
	if _, err := m.SchemaMatches(f.u1, f.v3); err == nil {
		t.Error("schema matches of non-match should fail")
	}
}

func TestPaperExampleVPair(t *testing.T) {
	f := buildPaperFixture(t)
	m := newMatcher(t, f.gd, f.g, f.params)
	got := m.VPair(f.u1, nil)
	if len(got) != 1 || got[0].V != f.v1 {
		t.Errorf("VPair(u1) = %v, want only v1", got)
	}
}

func TestPaperExampleAPair(t *testing.T) {
	f := buildPaperFixture(t)
	m := newMatcher(t, f.gd, f.g, f.params)
	got := m.APair([]graph.VID{f.u1, f.u2}, nil)
	want := map[Pair]bool{
		{U: f.u1, V: f.v1}:  true,
		{U: f.u2, V: f.v10}: true,
	}
	if len(got) != len(want) {
		t.Fatalf("APair = %v", got)
	}
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected match %v", p)
		}
	}
	// Against the reference checker.
	ref := pairSet(ReferenceMatch(m))
	for p := range want {
		if !ref[p] {
			t.Errorf("reference disagrees on %v", p)
		}
	}
}

func TestMatchAgreesWithReferenceOnFixture(t *testing.T) {
	f := buildPaperFixture(t)
	for _, pair := range []Pair{
		{U: f.u1, V: f.v1},
		{U: f.u1, V: f.v3},
		{U: f.u2, V: f.v10},
	} {
		m := newMatcher(t, f.gd, f.g, f.params)
		got := m.Match(pair.U, pair.V)
		if ref := pairSet(ReferenceMatch(m))[pair]; got != ref {
			t.Errorf("pair %v: ParaMatch=%v reference=%v", pair, got, ref)
		}
	}
}
