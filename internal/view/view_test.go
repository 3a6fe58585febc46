package view

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"her/internal/graph"
	"her/internal/rdb2rdf"
	"her/internal/relational"
)

// goldenDB mirrors the rdb2rdf golden fixture: a plain attribute, a
// nullable attribute, a resolvable FK and a null FK.
func goldenDB(t *testing.T) *relational.Database {
	t.Helper()
	maker := relational.MustSchema("maker", []string{"name", "country"}, "name")
	part := relational.MustSchema("part", []string{"sku", "color", "maker"}, "sku",
		relational.ForeignKey{Attr: "maker", RefRelation: "maker"})
	db := relational.NewDatabase(part, maker)
	db.Relation("maker").MustInsert("Acme", "US")
	db.Relation("maker").MustInsert("Umbrella", relational.Null)
	db.Relation("part").MustInsert("bolt-1", "red", "Acme")
	db.Relation("part").MustInsert("nut-2", relational.Null, "Umbrella")
	db.Relation("part").MustInsert("cog-3", "blue", relational.Null)
	return db
}

// DumpMapping serializes a mapping deterministically through its public
// query surface, so two mappings are byte-comparable.
func DumpMapping(db *relational.Database, g *graph.Graph, m *rdb2rdf.Mapping) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tuples %d\n", m.NumTupleVertices())
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		for id := 0; id < len(rel.Tuples); id++ {
			v, ok := m.VertexOf(relName, id)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "t %s/%d -> %d\n", relName, id, v)
			for _, attr := range rel.Schema.Attrs {
				if av, ok := m.AttrVertexOf(relName, id, attr); ok {
					fmt.Fprintf(&b, "a %s/%d.%s -> %d\n", relName, id, attr, av)
				}
			}
			for _, e := range g.Out(v) {
				if label, fk := m.IsForeignKeyEdge(v, e.To); fk {
					fmt.Fprintf(&b, "fk %d -> %d %q\n", v, e.To, label)
				}
			}
		}
	}
	return b.String()
}

// requireByteIdentical asserts that the direct view compiled from db is
// byte-identical to rdb2rdf.Map — graph TSV and mapping dump alike.
func requireByteIdentical(t *testing.T, db *relational.Database) {
	t.Helper()
	wantG, wantM, err := rdb2rdf.Map(db)
	if err != nil {
		t.Fatalf("rdb2rdf.Map: %v", err)
	}
	gotG, gotM, err := Compile(Direct(db), db)
	if err != nil {
		t.Fatalf("Compile(Direct): %v", err)
	}
	var wantTSV, gotTSV bytes.Buffer
	if err := wantG.WriteTSV(&wantTSV); err != nil {
		t.Fatal(err)
	}
	if err := gotG.WriteTSV(&gotTSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTSV.Bytes(), wantTSV.Bytes()) {
		t.Fatalf("direct view graph diverges from rdb2rdf.Map\n--- view ---\n%s--- rdb2rdf ---\n%s",
			gotTSV.Bytes(), wantTSV.Bytes())
	}
	wantDump := DumpMapping(db, wantG, wantM)
	gotDump := DumpMapping(db, gotG, gotM)
	if gotDump != wantDump {
		t.Fatalf("direct view mapping diverges from rdb2rdf.Map\n--- view ---\n%s--- rdb2rdf ---\n%s",
			gotDump, wantDump)
	}
}

func TestDirectByteIdenticalGolden(t *testing.T) {
	requireByteIdentical(t, goldenDB(t))
}

// TestDirectByteIdenticalSelfFK covers a self-referential FK resolving
// to the tuple itself (rdb2rdf emits a self-edge) and to a sibling.
func TestDirectByteIdenticalSelfFK(t *testing.T) {
	emp := relational.MustSchema("emp", []string{"id", "boss"}, "id",
		relational.ForeignKey{Attr: "boss", RefRelation: "emp"})
	db := relational.NewDatabase(emp)
	db.Relation("emp").MustInsert("e1", "e1")
	db.Relation("emp").MustInsert("e2", "e1")
	db.Relation("emp").MustInsert("e3", "missing")
	requireByteIdentical(t, db)
}

func TestCompilePredicateAndProjection(t *testing.T) {
	db := goldenDB(t)
	d := NewDef("red")
	d.Vertex("part").Filter("color", "=", "red").Label("sku").Project("sku")
	d.Vertex("maker").Project("name")
	d.Edge("made_by", "part", "maker")
	g, m, err := Compile(d, db)
	if err != nil {
		t.Fatal(err)
	}
	// Only bolt-1 is red; both makers materialize.
	if got := m.NumTupleVertices(); got != 3 {
		t.Fatalf("tuple vertices = %d, want 3", got)
	}
	v, ok := m.VertexOf("part", 0)
	if !ok {
		t.Fatal("bolt-1 not materialized")
	}
	if g.Label(v) != "bolt-1" {
		t.Fatalf("label = %q, want sku label bolt-1", g.Label(v))
	}
	if _, ok := m.VertexOf("part", 1); ok {
		t.Fatal("nut-2 materialized despite color predicate")
	}
	// bolt-1 projects sku (leaf) and grows a made_by edge to Acme.
	mk, _ := m.VertexOf("maker", 0)
	if label, fk := m.IsForeignKeyEdge(v, mk); !fk || label != "made_by" {
		t.Fatalf("made_by edge missing (label=%q fk=%v)", label, fk)
	}
	if _, ok := m.AttrVertexOf("part", 0, "sku"); !ok {
		t.Fatal("sku leaf missing")
	}
	if _, ok := m.AttrVertexOf("part", 0, "color"); ok {
		t.Fatal("color leaf present despite projection list")
	}
}

func TestCompileJoinPathAndClosure(t *testing.T) {
	// city -> region -> country chain, plus a self-referential part tree.
	country := relational.MustSchema("country", []string{"cid"}, "cid")
	region := relational.MustSchema("region", []string{"rid", "country"}, "rid",
		relational.ForeignKey{Attr: "country", RefRelation: "country"})
	city := relational.MustSchema("city", []string{"name", "region"}, "name",
		relational.ForeignKey{Attr: "region", RefRelation: "region"})
	part := relational.MustSchema("part", []string{"pid", "parent"}, "pid",
		relational.ForeignKey{Attr: "parent", RefRelation: "part"})
	db := relational.NewDatabase(country, region, city, part)
	db.Relation("country").MustInsert("FR")
	db.Relation("region").MustInsert("IDF", "FR")
	db.Relation("city").MustInsert("Paris", "IDF")
	db.Relation("part").MustInsert("root", relational.Null)
	db.Relation("part").MustInsert("mid", "root")
	db.Relation("part").MustInsert("leaf", "mid")

	d := NewDef("geo")
	d.Vertex("city").Label("name")
	d.Vertex("country").Label("cid")
	d.Vertex("part").Label("pid")
	d.Edge("in_country", "city", "region", "country") // region not materialized
	d.ClosureEdge("ancestor", "part", "parent", 8)
	g, m, err := Compile(d, db)
	if err != nil {
		t.Fatal(err)
	}
	paris, _ := m.VertexOf("city", 0)
	fr, _ := m.VertexOf("country", 0)
	if label, ok := m.IsForeignKeyEdge(paris, fr); !ok || label != "in_country" {
		t.Fatalf("join path edge missing (label=%q ok=%v)", label, ok)
	}
	leaf, _ := m.VertexOf("part", 2)
	mid, _ := m.VertexOf("part", 1)
	root, _ := m.VertexOf("part", 0)
	for _, want := range []graph.VID{mid, root} {
		if _, ok := m.IsForeignKeyEdge(leaf, want); !ok {
			t.Fatalf("closure edge leaf->%d missing", want)
		}
	}
	if _, ok := m.IsForeignKeyEdge(root, leaf); ok {
		t.Fatal("closure grew a downward edge")
	}
	if g.NumEdges() != 1+2+1 { // in_country + leaf's 2 ancestors + mid's 1
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
}

func TestExtendTupleMatchesRecompile(t *testing.T) {
	db := goldenDB(t)
	d := NewDef("slim")
	d.Vertex("maker").Project("name")
	d.Vertex("part").Label("sku").Project("color")
	d.Edge("made_by", "part", "maker")
	g, m, err := Compile(d, db)
	if err != nil {
		t.Fatal(err)
	}
	// Append a part referencing an existing maker (fresh key, resolves
	// nothing dangling) and extend incrementally.
	id := db.Relation("part").MustInsert("gear-4", "green", "Acme")
	if m.ResolvesDangling(db, "part", id) {
		t.Fatal("fresh key reported as resolving a dangling ref")
	}
	if err := ExtendTuple(g, m, d, db, "part", id); err != nil {
		t.Fatal(err)
	}
	g2, m2, err := Compile(d, db)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := CanonicalDump(g, m, db), CanonicalDump(g2, m2, db); got != want {
		t.Fatalf("extended view diverges from recompile\n--- extend ---\n%s--- recompile ---\n%s", got, want)
	}
}

// TestExtendDirectTuple: a tuple appended after Compile(Direct) gains
// its vertex, its leaves and its FK edge to an existing tuple, and
// round-trips through rdb2rdf.RecoverTuple; an unknown relation, an
// out-of-range tuple id and an already-mapped tuple are errors that
// leave the graph as it was.
func TestExtendDirectTuple(t *testing.T) {
	db := goldenDB(t)
	d := Direct(db)
	g, m, err := Compile(d, db)
	if err != nil {
		t.Fatal(err)
	}
	nv, ne := g.NumVertices(), g.NumEdges()
	id := db.Relation("part").MustInsert("gear-4", "green", "Umbrella")
	if err := ExtendTuple(g, m, d, db, "part", id); err != nil {
		t.Fatal(err)
	}
	ut, ok := m.VertexOf("part", id)
	if !ok {
		t.Fatal("new tuple unmapped")
	}
	if g.Label(ut) != "part" {
		t.Errorf("new tuple vertex label = %q", g.Label(ut))
	}
	// 1 tuple vertex + 2 leaves (sku, color); maker is an FK edge.
	if g.NumVertices() != nv+3 || g.NumEdges() != ne+3 {
		t.Errorf("vertices %d → %d, edges %d → %d, want +3 each", nv, g.NumVertices(), ne, g.NumEdges())
	}
	maker, _ := m.VertexOf("maker", 1)
	if lbl, found := findEdge(g, ut, maker); !found || lbl != "maker" {
		t.Errorf("FK edge = %q,%v", lbl, found)
	}
	if lbl, fk := m.IsForeignKeyEdge(ut, maker); !fk || lbl != "maker" {
		t.Errorf("FK edge not recorded in the mapping: %q,%v", lbl, fk)
	}
	got, err := rdb2rdf.RecoverTuple(g, m, db, ut)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]string{"sku": "gear-4", "color": "green", "maker": "Umbrella"}; !reflect.DeepEqual(got, want) {
		t.Errorf("recovered %v, want %v", got, want)
	}

	nv, ne = g.NumVertices(), g.NumEdges()
	if err := ExtendTuple(g, m, d, db, "nonexistent", 0); err == nil {
		t.Error("unknown relation should fail")
	}
	if err := ExtendTuple(g, m, d, db, "part", 99); err == nil {
		t.Error("out-of-range tuple should fail")
	}
	if err := ExtendTuple(g, m, d, db, "part", id); err == nil {
		t.Error("re-adding a mapped tuple should fail")
	}
	if g.NumVertices() != nv || g.NumEdges() != ne {
		t.Errorf("failed extensions changed the graph: %d/%d → %d/%d", nv, ne, g.NumVertices(), g.NumEdges())
	}
}

// TestExtendDirectTupleNullAndDanglingFK: an appended tuple's null
// attribute maps to nothing and its dangling FK degrades to a leaf. The
// direct view is append-only, so when the referenced tuple arrives later
// the reference stays that leaf: the old vertex gains no edge.
func TestExtendDirectTupleNullAndDanglingFK(t *testing.T) {
	db := goldenDB(t)
	d := Direct(db)
	g, m, err := Compile(d, db)
	if err != nil {
		t.Fatal(err)
	}
	id := db.Relation("part").MustInsert("rod-5", relational.Null, "Initech")
	if err := ExtendTuple(g, m, d, db, "part", id); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.AttrVertexOf("part", id, "color"); ok {
		t.Error("null attribute should not map")
	}
	leaf, ok := m.AttrVertexOf("part", id, "maker")
	if !ok || g.Label(leaf) != "Initech" {
		t.Fatalf("dangling FK handling: %v %q", ok, g.Label(leaf))
	}

	mid := db.Relation("maker").MustInsert("Initech", "US")
	if !m.ResolvesDangling(db, "maker", mid) {
		t.Fatal("resolving insert not detected")
	}
	if err := ExtendTuple(g, m, d, db, "maker", mid); err != nil {
		t.Fatal(err)
	}
	ut, _ := m.VertexOf("part", id)
	mv, ok := m.VertexOf("maker", mid)
	if !ok {
		t.Fatal("resolving tuple unmapped")
	}
	if lbl, found := findEdge(g, ut, mv); found {
		t.Errorf("old tuple gained edge %q to the resolving tuple", lbl)
	}
	if av, ok := m.AttrVertexOf("part", id, "maker"); !ok || av != leaf {
		t.Errorf("dangling FK leaf changed: (%d,%v), want (%d,true)", av, ok, leaf)
	}
}

func TestResolvesDanglingDetected(t *testing.T) {
	db := goldenDB(t)
	// nut-2 references maker Umbrella (exists); cog-3 has a null maker.
	// Add a part referencing a missing maker first, so extraction records
	// the dangling key.
	db.Relation("part").MustInsert("rod-5", "grey", "Initech")
	d := Direct(db)
	g, m, err := Compile(d, db)
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	id := db.Relation("maker").MustInsert("Initech", "US")
	if !m.ResolvesDangling(db, "maker", id) {
		t.Fatal("resolving insert not detected")
	}
	id2 := db.Relation("maker").MustInsert("Hooli", "US")
	if m.ResolvesDangling(db, "maker", id2) {
		t.Fatal("non-resolving insert misreported")
	}
}

func TestParseAndRoundTrip(t *testing.T) {
	src := `
# product catalog views
view catalog
vertex part where color != "red" and color ~ "l" label sku
attrs part sku color
vertex maker
attrs maker *
edge made_by from part via maker
closure chain from part via maker depth 3

view tiny
vertex maker
`
	defs, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != 2 || defs[0].Name != "catalog" || defs[1].Name != "tiny" {
		t.Fatalf("parsed %d defs: %+v", len(defs), defs)
	}
	cat := defs[0]
	if len(cat.Vertices) != 2 || len(cat.Edges) != 2 {
		t.Fatalf("catalog rules: %+v", cat)
	}
	if want := []Predicate{{"color", "!=", "red"}, {"color", "~", "l"}}; !reflect.DeepEqual(cat.Vertices[0].Where, want) {
		t.Fatalf("predicates = %+v", cat.Vertices[0].Where)
	}
	if cat.Edges[1].Closure != 3 {
		t.Fatalf("closure depth = %d", cat.Edges[1].Closure)
	}
	for _, d := range defs {
		again, err := Parse([]byte(d.String()))
		if err != nil {
			t.Fatalf("round trip of %s: %v\n%s", d.Name, err, d.String())
		}
		if len(again) != 1 || !reflect.DeepEqual(again[0], d) {
			t.Fatalf("round trip changed %s:\n%+v\n%+v", d.Name, again[0], d)
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"",
		"vertex part",                                         // rule before view
		"view v\nnonsense here",                               // unknown directive
		"view v\nvertex part where color",                     // truncated predicate
		"view v\nvertex part where color >= red",              // bad operator
		"view v\nvertex part\nvertex part",                    // duplicate vertex rule
		"view v\nattrs part sku",                              // attrs before vertex
		"view v\nvertex part\nattrs part sku *",               // * mixed with names
		"view v\nedge e from part via",                        // missing path
		"view v\nvertex p\nedge e from p via a..b",            // empty path step
		"view v\nvertex p\nclosure c from p via a",            // missing depth
		"view v\nvertex p\nclosure c from p via a depth 0",    // depth under range
		"view v\nvertex p\nclosure c from p via a depth 9999", // depth over range
		"view v\nvertex p\nclosure c from p via a.b depth 2",  // multi-step closure
		"view bad name",                                       // name with space (two tokens)
		"view \"bad name\"\nvertex p",                         // invalid name charset
		"view v\nvertex p where a = \"un",                     // unterminated quote
		"view v\nvertex p label",                              // label without attr
		"view v",                                              // no rules
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestCompileValidation(t *testing.T) {
	db := goldenDB(t)
	cases := []*Def{
		func() *Def { d := NewDef("v"); d.Vertex("ghost"); return d }(),
		func() *Def { d := NewDef("v"); d.Vertex("part").Filter("ghost", "=", "x"); return d }(),
		func() *Def { d := NewDef("v"); d.Vertex("part").Label("ghost"); return d }(),
		func() *Def { d := NewDef("v"); d.Vertex("part").Project("ghost"); return d }(),
		func() *Def { d := NewDef("v"); d.Vertex("part"); d.Edge("e", "maker", "name"); return d }(),
		func() *Def { d := NewDef("v"); d.Vertex("part"); d.Edge("e", "ghost", "maker"); return d }(),
	}
	for i, d := range cases {
		if _, _, err := Compile(d, db); err == nil {
			t.Errorf("case %d: Compile accepted invalid def", i)
		}
	}
}

func TestDirectDefShape(t *testing.T) {
	db := goldenDB(t)
	d := Direct(db)
	if d.Name != DirectName {
		t.Fatalf("name = %q", d.Name)
	}
	var rels []string
	for _, vr := range d.Vertices {
		rels = append(rels, vr.Relation)
		if !vr.AllAttrs {
			t.Fatalf("direct vertex rule for %s does not project all attrs", vr.Relation)
		}
	}
	if !sort.StringsAreSorted(rels) {
		t.Fatalf("direct vertex rules unsorted: %v", rels)
	}
	if len(d.Edges) != 1 || d.Edges[0].Label != "maker" {
		t.Fatalf("direct edges: %+v", d.Edges)
	}
}

// findEdge returns the label of the first edge from → to, if any.
func findEdge(g *graph.Graph, from, to graph.VID) (string, bool) {
	for _, e := range g.Out(from) {
		if e.To == to {
			return e.Label, true
		}
	}
	return "", false
}
