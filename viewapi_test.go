package her

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"her/internal/shard"
)

// viewFixture hosts a direct-shaped "mirror" rule view beside the
// direct view, over a database whose second main tuple references a dim
// key that does not exist yet (a dangling FK). G replicates both main
// tuples with edge labels equal to the attribute names, so the
// untrained lexical scorers confirm tuple i ↔ entity i.
func viewFixture(t *testing.T) (sys *System, direct, mirror *ViewHandle, entities []VertexID) {
	t.Helper()
	dim, err := NewSchema("dim", []string{"dkey", "country"}, "dkey")
	if err != nil {
		t.Fatal(err)
	}
	main, err := NewSchema("main", []string{"key", "color", "ref"}, "key",
		ForeignKey{Attr: "ref", RefRelation: "dim"})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(dim, main)
	db.Relation("dim").MustInsert("dim A", "us")
	db.Relation("main").MustInsert("entity 0", "red", "dim A")
	db.Relation("main").MustInsert("entity 1", "blue", "dim B") // dangling until dim B arrives

	g := NewGraph()
	for _, e := range [][2]string{{"entity 0", "red"}, {"entity 1", "blue"}} {
		v := g.AddVertex("main")
		g.MustAddEdge(v, g.AddVertex(e[0]), "key")
		g.MustAddEdge(v, g.AddVertex(e[1]), "color")
		entities = append(entities, v)
	}
	sys, err = New(db, g, Options{Seed: 1, Sigma: 0.7, Delta: 0.9, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	def := NewViewDef("mirror")
	for _, rel := range db.RelationNames() {
		def.Vertex(rel).ProjectAll()
	}
	for _, rel := range db.RelationNames() {
		for _, fk := range db.Relation(rel).Schema.ForeignKeys {
			def.Edge(fk.Attr, rel, fk.Attr)
		}
	}
	if err := sys.AddViewDef(def); err != nil {
		t.Fatal(err)
	}
	if direct, err = sys.View(DirectViewName); err != nil {
		t.Fatal(err)
	}
	if mirror, err = sys.View("mirror"); err != nil {
		t.Fatal(err)
	}
	return sys, direct, mirror, entities
}

// results boxes a call's return values so multi-value calls compare
// with one DeepEqual.
func results(v ...interface{}) []interface{} { return v }

// TestSystemQueriesAreDirectViewQueries pins the one-path contract:
// every System query method answers exactly what the direct view's
// handle answers — with user-verified overrides installed, which live
// in the direct view's vertex space. The direct-shaped mirror view
// (same vertex ids, no overrides) answers the algorithmic match set.
func TestSystemQueriesAreDirectViewQueries(t *testing.T) {
	sys, direct, mirror, ent := viewFixture(t)
	if def, _ := sys.View(""); def != direct {
		t.Fatal(`View("") is not the direct view`)
	}
	if got := sys.ViewNames(); !reflect.DeepEqual(got, []string{DirectViewName, "mirror"}) {
		t.Fatalf("ViewNames = %v", got)
	}

	u0, _ := sys.Mapping.VertexOf("main", 0)
	u1, _ := sys.Mapping.VertexOf("main", 1)
	algorithmic := sys.APair()
	want := []Pair{{U: u0, V: ent[0]}, {U: u1, V: ent[1]}}
	if !reflect.DeepEqual(algorithmic, want) {
		t.Fatalf("setup: APair = %v, want %v", algorithmic, want)
	}
	// Refute an algorithmic match, confirm a pair the matcher rejects.
	sys.Refine([]Feedback{
		{Pair: Pair{U: u0, V: ent[0]}, IsMatch: false},
		{Pair: Pair{U: u1, V: ent[0]}, IsMatch: true},
	})
	// Surviving algorithmic matches come first, confirmed additions after.
	overridden := []Pair{{U: u1, V: ent[1]}, {U: u1, V: ent[0]}}

	var sysTSV, viewTSV bytes.Buffer
	if err := sys.GD.WriteTSV(&sysTSV); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteTSV(&viewTSV); err != nil {
		t.Fatal(err)
	}
	sc, vc := sys.ShardConfig(2), direct.ShardConfig(2)
	shardShape := func(c shard.Config) []interface{} {
		in := c.Source()
		return results(c.Shards, in.Gen, in.GD.Graph().NumVertices(), in.GD.Graph().NumEdges(), c.Generation(),
			c.Overrides([]Pair{{U: u0, V: ent[0]}}, u0))
	}
	explain := func(e *Explanation, err error) []interface{} {
		if err != nil {
			return results(nil, err.Error())
		}
		return results(e.Witness, e.Lineage, e.SchemaMatches, e.Render(sys))
	}
	parallel := func(p []Pair, st ParallelStats, err error) []interface{} {
		return results(p, st.Workers, st.CandidatePairs, err)
	}
	for _, c := range []struct {
		name      string
		sys, view []interface{}
	}{
		{"SPair refuted", results(sys.SPair("main", 0, ent[0])), results(direct.SPair("main", 0, ent[0]))},
		{"SPair confirmed", results(sys.SPair("main", 1, ent[0])), results(direct.SPair("main", 1, ent[0]))},
		{"SPair unknown tuple", results(sys.SPair("main", 9, ent[0])), results(direct.SPair("main", 9, ent[0]))},
		{"VPair", results(sys.VPair("main", 1)), results(direct.VPair("main", 1))},
		{"VPair refuted", results(sys.VPair("main", 0)), results(direct.VPair("main", 0))},
		{"VPairVertex", results(sys.VPairVertex(u1), nil), results(direct.VPair("main", 1))},
		{"APair", results(sys.APair()), results(direct.APair())},
		{"APairOf", results(sys.APairOf(sys.SourceVertices())), results(direct.APair())},
		{"APairParallel", parallel(sys.APairParallel(2)), parallel(direct.APairParallel(2))},
		{"APairParallelAsync", parallel(sys.APairParallelAsync(2)), parallel(direct.APairParallelAsync(2))},
		{"Explain", explain(sys.Explain(u1, ent[1])), explain(direct.Explain(u1, ent[1]))},
		{"Explain non-match", explain(sys.Explain(u0, ent[1])), explain(direct.Explain(u0, ent[1]))},
		{"TupleOf", results(sys.TupleOf(u1)), results(direct.TupleOf(u1))},
		{"TupleVertex", results(sys.TupleVertex("main", 1)), results(direct.TupleVertex("main", 1))},
		{"TupleVertex unknown", results(sys.TupleVertex("nope", 0)), results(direct.TupleVertex("nope", 0))},
		{"GDLabel", results(sys.GDLabel(u1), sys.GDLabel(-1)), results(direct.GDLabel(u1), direct.GDLabel(-1))},
		{"SourceVertices", results(sys.SourceVertices()), results(direct.SourceVertices())},
		{"Generation", results(sys.Generation()), results(direct.Generation())},
		{"WriteTSV", results(sysTSV.String()), results(viewTSV.String())},
		{"ShardConfig", shardShape(sc), shardShape(vc)},
	} {
		if !reflect.DeepEqual(c.sys, c.view) {
			t.Errorf("%s: System answers %v, direct view %v", c.name, c.sys, c.view)
		}
	}

	// The direct view honours the overrides on every match-set path…
	par, _, err := direct.APairParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]Pair{"APair": direct.APair(), "APairParallel": par} {
		if !reflect.DeepEqual(got, overridden) {
			t.Errorf("direct %s = %v, want %v", name, got, overridden)
		}
	}
	if ok, _ := direct.SPair("main", 0, ent[0]); ok {
		t.Error("direct SPair still confirms the refuted pair")
	}
	// …while the mirror, extracted to the same vertex ids, still answers
	// the algorithmic set: overrides never leave the direct view.
	mpar, _, err := mirror.APairParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	masync, _, err := mirror.APairParallelAsync(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]Pair{"APair": mirror.APair(), "APairParallel": mpar, "APairParallelAsync": masync} {
		if !reflect.DeepEqual(got, algorithmic) {
			t.Errorf("mirror %s = %v, want the algorithmic %v", name, got, algorithmic)
		}
	}
	if ok, _ := mirror.SPair("main", 0, ent[0]); !ok {
		t.Error("mirror SPair lost the pair refuted on the direct view")
	}
	if di, mi := direct.Info(), mirror.Info(); di.Rules != mi.Rules || di.Vertices != mi.Vertices ||
		di.Edges != mi.Edges || di.Tuples != mi.Tuples || di.Rules != 3 {
		t.Errorf("direct info %+v and its mirror's %+v differ in shape", di, mi)
	}
}

// deltaKinds lists the kinds a view's delta log recorded in (after, upto].
func deltaKinds(t *testing.T, h *ViewHandle, after, upto uint64) []shard.DeltaKind {
	t.Helper()
	ds, ok := h.deltas.Since(after, upto)
	if !ok {
		t.Fatalf("view %s: delta log does not cover (%d, %d]", h.Name(), after, upto)
	}
	kinds := make([]shard.DeltaKind, len(ds))
	for i, d := range ds {
		kinds[i] = d.Kind
	}
	return kinds
}

// TestDirectViewStaysAppendOnly: the one thing that distinguishes the
// direct view is that it never recompiles. A tuple that resolves a
// dangling FK extends the direct graph in place (view.ExtendTuple: a
// DeltaTuple, the dangling reference stays dangling, sys.GD/sys.Mapping
// keep their identity), while the rule view recompiles (a DeltaReset)
// and from then on numbers its vertices differently.
func TestDirectViewStaysAppendOnly(t *testing.T) {
	sys, direct, mirror, _ := viewFixture(t)
	gd, mapping := sys.GD, sys.Mapping
	dg, mg := direct.Generation(), mirror.Generation()

	id, err := sys.AddTuple("dim", "dim B", "fr")
	if err != nil {
		t.Fatal(err)
	}
	if sys.GD != gd || sys.Mapping != mapping || direct.gd != gd || direct.mapping != mapping {
		t.Fatal("AddTuple replaced the direct view's graph or mapping")
	}
	if got := deltaKinds(t, direct, dg, direct.Generation()); !reflect.DeepEqual(got, []shard.DeltaKind{shard.DeltaTuple}) {
		t.Errorf("direct recorded %v, want one DeltaTuple", got)
	}
	if got := deltaKinds(t, mirror, mg, mirror.Generation()); !reflect.DeepEqual(got, []shard.DeltaKind{shard.DeltaReset}) {
		t.Errorf("mirror recorded %v, want one DeltaReset", got)
	}

	refEdge := func(h *ViewHandle) bool {
		u, err := h.TupleVertex("main", 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := h.TupleVertex("dim", id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range h.gd.Out(u) {
			if e.To == b && e.Label == "ref" {
				return true
			}
		}
		return false
	}
	if refEdge(direct) {
		t.Error("direct view resolved the dangling FK; it must stay append-only")
	}
	if !refEdge(mirror) {
		t.Error("recompiled mirror is missing the resolved FK edge")
	}
	du, _ := direct.TupleVertex("main", 0)
	mu, _ := mirror.TupleVertex("main", 0)
	if du == mu {
		t.Errorf("mirror recompile kept main/0 at vertex %d; the fixture should renumber it", mu)
	}

	// Graph deltas reach every view's log verbatim.
	dg, mg = direct.Generation(), mirror.Generation()
	v := sys.AddGraphVertex("main")
	if err := sys.AddGraphEdge(v, v, "self"); err != nil {
		t.Fatal(err)
	}
	wantKinds := []shard.DeltaKind{shard.DeltaGraphVertex, shard.DeltaGraphEdge}
	for _, h := range []*ViewHandle{direct, mirror} {
		after := map[*ViewHandle]uint64{direct: dg, mirror: mg}[h]
		if got := deltaKinds(t, h, after, h.Generation()); !reflect.DeepEqual(got, wantKinds) {
			t.Errorf("view %s recorded %v, want %v", h.Name(), got, wantKinds)
		}
	}
}

// TestExplanationRendersProducingView: an Explanation's vertex ids are
// those of the view that produced it, so Render must label them through
// that view's graph — here a mirror whose recompile renumbered its
// vertices away from the direct graph's.
func TestExplanationRendersProducingView(t *testing.T) {
	sys, direct, mirror, ent := viewFixture(t)
	if _, err := sys.AddTuple("dim", "dim B", "fr"); err != nil { // recompiles mirror
		t.Fatal(err)
	}
	u, err := mirror.TupleVertex("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := mirror.Explain(u, ent[0])
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	fmt.Fprintf(&want, "witness Pi: %d pairs\nlineage S:\n", len(ex.Witness))
	renumbered := false
	for _, p := range ex.Lineage {
		fmt.Fprintf(&want, "  (%q, %q)\n", mirror.GDLabel(p.U), sys.GraphLabel(p.V))
		renumbered = renumbered || mirror.GDLabel(p.U) != direct.GDLabel(p.U)
	}
	if !renumbered {
		t.Fatal("fixture: every lineage vertex has the same label in both views")
	}
	if got := ex.Render(sys); !strings.HasPrefix(got, want.String()) {
		t.Errorf("Render =\n%s\nwant prefix\n%s", got, want.String())
	}
}

// TestHostedTableOrder: the table every write path walks is direct
// first, then the named views sorted — whatever order they arrive in —
// and a name can be hosted once.
func TestHostedTableOrder(t *testing.T) {
	sys, _, _, _ := viewFixture(t)
	for _, name := range []string{"zeta", "alpha"} {
		def := NewViewDef(name)
		def.Vertex("main").ProjectAll()
		if err := sys.AddViewDef(def); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sys.ViewNames(), []string{DirectViewName, "alpha", "mirror", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ViewNames = %v, want %v", got, want)
	}
	for _, name := range []string{DirectViewName, "alpha"} {
		if err := sys.AddViewDef(NewViewDef(name)); err == nil {
			t.Errorf("AddViewDef(%q) hosted the name twice", name)
		}
	}
}
