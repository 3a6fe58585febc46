package rdb2rdf

import (
	"testing"

	"her/internal/graph"
	"her/internal/relational"
)

// paperDB builds Tables I and II of the paper (Example 2 / Fig. 3).
func paperDB(t *testing.T) *relational.Database {
	t.Helper()
	brand := relational.MustSchema("brand",
		[]string{"name", "country", "manufacturer", "made_in"}, "name")
	item := relational.MustSchema("item",
		[]string{"item", "material", "color", "type", "brand", "qty"}, "item",
		relational.ForeignKey{Attr: "brand", RefRelation: "brand"})
	db := relational.NewDatabase(item, brand)
	db.Relation("brand").MustInsert("Addidas Originals", "Germany", "Addidas AG", "Can Duoc, VN")
	db.Relation("brand").MustInsert("Addidas", "Germany", "Addidas AG", "Long An, Vietnam")
	db.Relation("item").MustInsert("Dame Basketball Shoes D7", "phylon foam", "white", "Dame 7", "Addidas Originals", "500")
	db.Relation("item").MustInsert("Lightweight Running Shoes", "synthetic", "red", "DD8505", "Addidas Originals", "100")
	db.Relation("item").MustInsert("Mid-cut Basketball Shoes Ultra Comfortable", "phylon foam", "red", relational.Null, "Addidas", "200")
	return db
}

func TestMapExample2Shape(t *testing.T) {
	db := paperDB(t)
	g, m, err := Map(db)
	if err != nil {
		t.Fatal(err)
	}
	// 5 tuple vertices.
	if m.NumTupleVertices() != 5 {
		t.Fatalf("tuple vertices = %d, want 5", m.NumTupleVertices())
	}
	// Attribute vertices: brand tuples have 4 attrs each (8); item tuples:
	// t1 has 5 non-FK non-null (item, material, color, type, qty),
	// t2 has 5, t3 has 4 (type is null). Total 8+14 = 22 attr vertices.
	wantVertices := 5 + 22
	if g.NumVertices() != wantVertices {
		t.Errorf("vertices = %d, want %d", g.NumVertices(), wantVertices)
	}
	// Edges: 22 attribute edges + 3 FK edges.
	if g.NumEdges() != 25 {
		t.Errorf("edges = %d, want 25", g.NumEdges())
	}
	u1, ok := m.VertexOf("item", 0)
	if !ok {
		t.Fatal("item tuple 0 has no vertex")
	}
	if g.Label(u1) != "item" {
		t.Errorf("tuple vertex labeled %q, want relation name", g.Label(u1))
	}
	// FK edge from item t1 to brand b1 labeled "brand".
	u2, _ := m.VertexOf("brand", 0)
	lbl, found := findEdge(g, u1, u2)
	if !found || lbl != "brand" {
		t.Errorf("FK edge = %q,%v", lbl, found)
	}
	if a, isFK := m.IsForeignKeyEdge(u1, u2); !isFK || a != "brand" {
		t.Errorf("IsForeignKeyEdge = %q,%v", a, isFK)
	}
	// Attribute vertex for material carries the value as its label.
	av, ok := m.AttrVertexOf("item", 0, "material")
	if !ok {
		t.Fatal("material attribute vertex missing")
	}
	if g.Label(av) != "phylon foam" {
		t.Errorf("material vertex label = %q", g.Label(av))
	}
	if lbl, _ := findEdge(g, u1, av); lbl != "material" {
		t.Errorf("material edge label = %q", lbl)
	}
}

func TestMappingIsOneToOne(t *testing.T) {
	db := paperDB(t)
	g, m, err := Map(db)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[graph.VID]bool)
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		for _, tu := range rel.Tuples {
			v, ok := m.VertexOf(relName, tu.ID)
			if !ok {
				t.Fatalf("tuple %s/%d unmapped", relName, tu.ID)
			}
			if seen[v] {
				t.Fatalf("vertex %d maps two tuples", v)
			}
			seen[v] = true
			ref, ok := m.TupleOf(v)
			if !ok || ref.Relation != relName || ref.TupleID != tu.ID {
				t.Fatalf("inverse mapping broken for %s/%d", relName, tu.ID)
			}
		}
	}
	// Attribute vertices are all distinct and distinct from tuple vertices.
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		for _, tu := range rel.Tuples {
			for _, attr := range rel.Schema.Attrs {
				if av, ok := m.AttrVertexOf(relName, tu.ID, attr); ok {
					if seen[av] {
						t.Fatalf("attribute vertex %d reused", av)
					}
					seen[av] = true
				}
			}
		}
	}
	if len(seen) != g.NumVertices() {
		t.Errorf("mapped %d vertices, graph has %d", len(seen), g.NumVertices())
	}
}

func TestNullAttributesSkipped(t *testing.T) {
	db := paperDB(t)
	_, m, err := Map(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.AttrVertexOf("item", 2, "type"); ok {
		t.Error("null attribute should not produce a vertex")
	}
}

func TestDanglingForeignKeyDegrades(t *testing.T) {
	brand := relational.MustSchema("brand", []string{"name"}, "name")
	item := relational.MustSchema("item", []string{"item", "brand"}, "item",
		relational.ForeignKey{Attr: "brand", RefRelation: "brand"})
	db := relational.NewDatabase(item, brand)
	db.Relation("item").MustInsert("Widget", "GhostBrand")
	g, m, err := Map(db)
	if err != nil {
		t.Fatal(err)
	}
	av, ok := m.AttrVertexOf("item", 0, "brand")
	if !ok {
		t.Fatal("dangling FK should degrade to attribute vertex")
	}
	if g.Label(av) != "GhostBrand" {
		t.Errorf("degraded FK vertex label = %q", g.Label(av))
	}
}

func TestRecoverTupleRoundTrip(t *testing.T) {
	db := paperDB(t)
	g, m, err := Map(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		for _, tu := range rel.Tuples {
			v, _ := m.VertexOf(relName, tu.ID)
			got, err := RecoverTuple(g, m, db, v)
			if err != nil {
				t.Fatal(err)
			}
			for i, attr := range rel.Schema.Attrs {
				want := tu.Values[i]
				if relational.IsNull(want) {
					if _, present := got[attr]; present {
						t.Errorf("%s/%d: null attr %s recovered as %q", relName, tu.ID, attr, got[attr])
					}
					continue
				}
				if got[attr] != want {
					t.Errorf("%s/%d attr %s: recovered %q, want %q", relName, tu.ID, attr, got[attr], want)
				}
			}
		}
	}
	// Non-tuple vertex errors.
	av, _ := m.AttrVertexOf("item", 0, "color")
	if _, err := RecoverTuple(g, m, db, av); err == nil {
		t.Error("RecoverTuple on attribute vertex should fail")
	}
}

// TestTupleIndexSnapshot: a snapshot keeps answering as the index stood
// when it was taken while Set goes on mapping tuples — past a column's
// end, into a relation it had no column for, and out of order into a
// gap a skipped tuple left.
func TestTupleIndexSnapshot(t *testing.T) {
	ix := make(TupleIndex)
	ix.Set(TupleRef{"a", 0}, 10)
	ix.Set(TupleRef{"a", 2}, 12) // tuple a/1 has no vertex
	snap := ix.Snapshot()
	ix.Set(TupleRef{"a", 3}, 13)
	ix.Set(TupleRef{"b", 0}, 20)
	ix.Set(TupleRef{"a", 1}, 11)
	for _, c := range []struct {
		ix       TupleIndex
		rel      string
		id       int
		v        graph.VID
		ok       bool
		snapshot bool
	}{
		{snap, "a", 0, 10, true, true}, {snap, "a", 1, graph.NoVertex, false, true},
		{snap, "a", 2, 12, true, true}, {snap, "a", 3, graph.NoVertex, false, true},
		{snap, "b", 0, graph.NoVertex, false, true}, {snap, "a", -1, graph.NoVertex, false, true},
		{ix, "a", 1, 11, true, false}, {ix, "a", 3, 13, true, false}, {ix, "b", 0, 20, true, false},
	} {
		if v, ok := c.ix.VertexOf(c.rel, c.id); v != c.v || ok != c.ok {
			t.Errorf("snapshot=%v VertexOf(%s, %d) = %d, %v; want %d, %v", c.snapshot, c.rel, c.id, v, ok, c.v, c.ok)
		}
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
