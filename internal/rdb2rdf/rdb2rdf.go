// Package rdb2rdf implements the W3C RDB2RDF direct-mapping canonical
// graph of Section II: given a database D of schema R it produces the
// canonical graph G_D and the 1-1 mapping f_D from tuples and attributes
// of D to vertices and edges of G_D.
//
// Following the paper's canonical mapping:
//   - each tuple t of relation schema R maps to a unique vertex u_t
//     labeled R;
//   - each non-null, non-foreign-key attribute A of t maps to a unique
//     vertex u_{t,A} labeled with the value t.A, joined by an edge
//     (u_t, u_{t,A}) labeled A;
//   - each foreign-key attribute A of t referencing tuple t' maps to an
//     edge (u_t, u_{t'}) carrying the label pair (A, γ); the γ marker is
//     recorded in the Mapping rather than the label string, so score
//     functions see the attribute name A (as in the paper's Example 7,
//     which computes h_ρ(brand, brandName) for the FK edge).
//
// The package is the §II reference and the one mapping type. Map is the
// reference extractor: production builds every hosted graph, the direct
// one included, with the rule compiler of internal/view, whose built-in
// Direct view the testkit differentials hold byte-identical to Map. Both
// record what they extract in a Mapping.
package rdb2rdf

import (
	"fmt"

	"her/internal/graph"
	"her/internal/relational"
)

// TupleRef identifies a tuple within a database.
type TupleRef struct {
	Relation string
	TupleID  int
}

// TupleIndex is the tuple side of a mapping: per relation, a column
// holding the vertex of every tuple id, NoVertex for a tuple the mapping
// gives no vertex. Set never writes inside a column's length, so a
// Snapshot, which copies the column headers and shares the columns,
// stays exact while the index it was taken from goes on growing, and can
// be read without the lock its owner grows it under.
type TupleIndex map[string][]graph.VID

// VertexOf returns the vertex of tuple (rel, tupleID).
func (ix TupleIndex) VertexOf(rel string, tupleID int) (graph.VID, bool) {
	col := ix[rel]
	if tupleID < 0 || tupleID >= len(col) || col[tupleID] == graph.NoVertex {
		return graph.NoVertex, false
	}
	return col[tupleID], true
}

// Set maps the unmapped tuple ref to v. Tuples are mapped once each, in
// ascending id order per relation — extraction walks a relation in
// tuple order, an incremental AddTuple maps its newest tuple — so Set
// appends past the column's end, never copying it. An id inside the
// column (a tuple skipped, then mapped out of order) gets a fresh copy
// of the column instead: a snapshot reader may be reading the old one.
func (ix TupleIndex) Set(ref TupleRef, v graph.VID) {
	col := ix[ref.Relation]
	if ref.TupleID < len(col) {
		col = append([]graph.VID(nil), col...)
		col[ref.TupleID] = v
		ix[ref.Relation] = col
		return
	}
	for len(col) < ref.TupleID {
		col = append(col, graph.NoVertex)
	}
	ix[ref.Relation] = append(col, v)
}

// Snapshot returns an index equal to ix now: the column headers are
// copied (one per relation), the columns shared.
func (ix TupleIndex) Snapshot() TupleIndex {
	out := make(TupleIndex, len(ix))
	for rel, col := range ix {
		out[rel] = col
	}
	return out
}

// Mapping is the 1-1 tuple↔vertex mapping f_D of one extracted graph:
// tuple vertices, attribute leaves and tuple→tuple edges, plus the
// foreign-key references that dangled during extraction. Map and the
// rule compiler of internal/view both build it through the Map* and
// NoteDangling methods, so every hosted graph has this one mapping type.
type Mapping struct {
	tupleVertex TupleIndex
	vertexTuple map[graph.VID]TupleRef
	attrVertex  map[TupleRef]map[string]graph.VID
	fkEdges     map[[2]graph.VID]string // (u_t, u_t') → edge label
	dangling    map[danglingRef]bool
}

// danglingRef keys a dangling reference: the referenced relation plus
// the key value that failed to resolve.
type danglingRef struct {
	Relation string
	Key      string
}

// NewMapping returns an empty mapping sized for about sizeHint tuples.
func NewMapping(sizeHint int) *Mapping {
	return &Mapping{
		tupleVertex: make(TupleIndex),
		vertexTuple: make(map[graph.VID]TupleRef, sizeHint),
		attrVertex:  make(map[TupleRef]map[string]graph.VID, sizeHint),
		fkEdges:     make(map[[2]graph.VID]string),
		dangling:    make(map[danglingRef]bool),
	}
}

// MapTuple records v as the vertex of the unmapped tuple ref.
func (m *Mapping) MapTuple(ref TupleRef, v graph.VID) {
	m.tupleVertex.Set(ref, v)
	m.vertexTuple[v] = ref
}

// MapAttr records v as the leaf projecting attribute attr of tuple ref.
func (m *Mapping) MapAttr(ref TupleRef, attr string, v graph.VID) {
	av := m.attrVertex[ref]
	if av == nil {
		av = make(map[string]graph.VID)
		m.attrVertex[ref] = av
	}
	av[attr] = v
}

// MapForeignKey records (from, to) as a tuple→tuple edge labeled label.
func (m *Mapping) MapForeignKey(from, to graph.VID, label string) {
	m.fkEdges[[2]graph.VID{from, to}] = label
}

// NoteDangling records that key found no tuple of relation rel.
func (m *Mapping) NoteDangling(rel, key string) {
	m.dangling[danglingRef{Relation: rel, Key: key}] = true
}

// ResolvesDangling reports whether tuple (rel, tupleID) of db has the
// key of a reference that dangled during extraction: re-extraction
// would give an old tuple vertex an edge to it, which appending the
// tuple does not.
func (m *Mapping) ResolvesDangling(db *relational.Database, rel string, tupleID int) bool {
	r := db.Relation(rel)
	if r == nil || r.Schema.Key == "" || tupleID < 0 || tupleID >= len(r.Tuples) {
		return false
	}
	kv := r.Tuples[tupleID].Values[r.Schema.AttrIndex(r.Schema.Key)]
	if relational.IsNull(kv) {
		return false
	}
	return m.dangling[danglingRef{Relation: rel, Key: kv}]
}

// VertexOf returns the vertex u_t denoting tuple t of relation rel.
func (m *Mapping) VertexOf(rel string, tupleID int) (graph.VID, bool) {
	return m.tupleVertex.VertexOf(rel, tupleID)
}

// Tuples returns a snapshot of the tuple index (TupleIndex.Snapshot).
func (m *Mapping) Tuples() TupleIndex { return m.tupleVertex.Snapshot() }

// TupleOf returns the tuple a vertex denotes, if it is a tuple vertex.
func (m *Mapping) TupleOf(v graph.VID) (TupleRef, bool) {
	t, ok := m.vertexTuple[v]
	return t, ok
}

// AttrVertexOf returns the vertex u_{t,A} for attribute attr of the tuple.
func (m *Mapping) AttrVertexOf(rel string, tupleID int, attr string) (graph.VID, bool) {
	v, ok := m.attrVertex[TupleRef{rel, tupleID}][attr]
	return v, ok
}

// IsForeignKeyEdge reports whether (from, to) is a tuple→tuple edge,
// returning its label: the FK attribute name under f_D, the edge rule's
// label in a rule view.
func (m *Mapping) IsForeignKeyEdge(from, to graph.VID) (string, bool) {
	a, ok := m.fkEdges[[2]graph.VID{from, to}]
	return a, ok
}

// TupleVertices returns every tuple vertex of relation rel in tuple order.
func (m *Mapping) TupleVertices(rel string) []graph.VID {
	col := m.tupleVertex[rel]
	out := make([]graph.VID, 0, len(col))
	for _, v := range col {
		if v != graph.NoVertex {
			out = append(out, v)
		}
	}
	return out
}

// NumTupleVertices reports how many vertices denote tuples.
func (m *Mapping) NumTupleVertices() int { return len(m.vertexTuple) }

// Map converts database db into its canonical graph G_D and mapping f_D.
func Map(db *relational.Database) (*graph.Graph, *Mapping, error) {
	g := graph.New(db.NumTuples() * 4)
	m := NewMapping(db.NumTuples())

	// Pass 1: one vertex per tuple, labeled with the relation name.
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		for _, t := range rel.Tuples {
			m.MapTuple(TupleRef{relName, t.ID}, g.AddVertex(relName))
		}
	}

	// Pass 2: attribute vertices and foreign-key edges.
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		fkOf := make(map[string]string, len(rel.Schema.ForeignKeys))
		for _, fk := range rel.Schema.ForeignKeys {
			fkOf[fk.Attr] = fk.RefRelation
		}
		for _, t := range rel.Tuples {
			ref := TupleRef{relName, t.ID}
			ut, _ := m.tupleVertex.VertexOf(relName, t.ID)
			for i, attr := range rel.Schema.Attrs {
				val := t.Values[i]
				if relational.IsNull(val) {
					continue
				}
				if refRel, isFK := fkOf[attr]; isFK {
					target := db.Relation(refRel)
					if target == nil {
						return nil, nil, fmt.Errorf("rdb2rdf: %s.%s references unknown relation %s", relName, attr, refRel)
					}
					if rt, ok := target.LookupKey(val); ok {
						ut2, _ := m.tupleVertex.VertexOf(refRel, rt.ID)
						g.MustAddEdge(ut, ut2, attr)
						m.MapForeignKey(ut, ut2, attr)
						continue
					}
					// Dangling FK degrades to a plain attribute vertex.
					m.NoteDangling(refRel, val)
				}
				av := g.AddVertex(val)
				g.MustAddEdge(ut, av, attr)
				m.MapAttr(ref, attr, av)
			}
		}
	}
	return g, m, nil
}

// RecoverTuple reconstructs the attribute values of the tuple denoted by
// vertex u_t from the canonical graph alone, for round-trip verification.
// Foreign-key attributes recover the referenced tuple's key value.
func RecoverTuple(g *graph.Graph, m *Mapping, db *relational.Database, v graph.VID) (map[string]string, error) {
	if _, ok := m.TupleOf(v); !ok {
		return nil, fmt.Errorf("rdb2rdf: vertex %d is not a tuple vertex", v)
	}
	out := make(map[string]string)
	for _, e := range g.Out(v) {
		if fkAttr, isFK := m.IsForeignKeyEdge(v, e.To); isFK {
			tref, _ := m.TupleOf(e.To)
			target := db.Relation(tref.Relation)
			keyIdx := target.Schema.AttrIndex(target.Schema.Key)
			out[fkAttr] = target.Tuples[tref.TupleID].Values[keyIdx]
			continue
		}
		out[e.Label] = g.Label(e.To)
	}
	return out, nil
}
