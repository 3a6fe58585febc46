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

// Mapping is the canonical 1-1 mapping f_D.
type Mapping struct {
	tupleVertex TupleIndex
	vertexTuple map[graph.VID]TupleRef
	attrVertex  map[TupleRef]map[string]graph.VID
	fkEdges     map[[2]graph.VID]string // (u_t, u_t') → attribute name
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

// IsTupleVertex reports whether v denotes a tuple (rather than an
// attribute value).
func (m *Mapping) IsTupleVertex(v graph.VID) bool {
	_, ok := m.vertexTuple[v]
	return ok
}

// AttrVertexOf returns the vertex u_{t,A} for attribute attr of the tuple.
func (m *Mapping) AttrVertexOf(rel string, tupleID int, attr string) (graph.VID, bool) {
	av, ok := m.attrVertex[TupleRef{rel, tupleID}]
	if !ok {
		return graph.NoVertex, false
	}
	v, ok := av[attr]
	return v, ok
}

// IsForeignKeyEdge reports whether (from, to) is a γ-marked foreign-key
// edge, returning the attribute name it encodes.
func (m *Mapping) IsForeignKeyEdge(from, to graph.VID) (string, bool) {
	a, ok := m.fkEdges[[2]graph.VID{from, to}]
	return a, ok
}

// TupleVertices returns every tuple vertex of relation rel in tuple order.
func (m *Mapping) TupleVertices(rel string, count int) []graph.VID {
	out := make([]graph.VID, 0, count)
	for id := 0; id < count; id++ {
		if v, ok := m.VertexOf(rel, id); ok {
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
	m := &Mapping{
		tupleVertex: make(TupleIndex),
		vertexTuple: make(map[graph.VID]TupleRef),
		attrVertex:  make(map[TupleRef]map[string]graph.VID),
		fkEdges:     make(map[[2]graph.VID]string),
	}

	// Pass 1: one vertex per tuple, labeled with the relation name.
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		for _, t := range rel.Tuples {
			ref := TupleRef{relName, t.ID}
			v := g.AddVertex(relName)
			m.tupleVertex.Set(ref, v)
			m.vertexTuple[v] = ref
			m.attrVertex[ref] = make(map[string]graph.VID, len(rel.Schema.Attrs))
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
						m.fkEdges[[2]graph.VID{ut, ut2}] = attr
						continue
					}
					// Dangling FK degrades to a plain attribute vertex.
				}
				av := g.AddVertex(val)
				g.MustAddEdge(ut, av, attr)
				m.attrVertex[ref][attr] = av
			}
		}
	}
	return g, m, nil
}

// AddTuple incrementally extends a canonical graph and its mapping with
// one tuple that was appended to db after Map ran: the tuple vertex, its
// attribute vertices and its outgoing foreign-key edges are added.
// Dangling foreign keys of OLDER tuples that the new tuple would resolve
// are not rewritten (they already degraded to attribute vertices).
func AddTuple(g *graph.Graph, m *Mapping, db *relational.Database, relName string, tupleID int) error {
	rel := db.Relation(relName)
	if rel == nil {
		return fmt.Errorf("rdb2rdf: unknown relation %s", relName)
	}
	if tupleID < 0 || tupleID >= len(rel.Tuples) {
		return fmt.Errorf("rdb2rdf: %s has no tuple %d", relName, tupleID)
	}
	ref := TupleRef{relName, tupleID}
	if _, dup := m.tupleVertex.VertexOf(relName, tupleID); dup {
		return fmt.Errorf("rdb2rdf: tuple %s/%d already mapped", relName, tupleID)
	}
	t := rel.Tuples[tupleID]
	ut := g.AddVertex(relName)
	m.tupleVertex.Set(ref, ut)
	m.vertexTuple[ut] = ref
	m.attrVertex[ref] = make(map[string]graph.VID, len(rel.Schema.Attrs))

	fkOf := make(map[string]string, len(rel.Schema.ForeignKeys))
	for _, fk := range rel.Schema.ForeignKeys {
		fkOf[fk.Attr] = fk.RefRelation
	}
	for i, attr := range rel.Schema.Attrs {
		val := t.Values[i]
		if relational.IsNull(val) {
			continue
		}
		if refRel, isFK := fkOf[attr]; isFK {
			target := db.Relation(refRel)
			if target == nil {
				return fmt.Errorf("rdb2rdf: %s.%s references unknown relation %s", relName, attr, refRel)
			}
			if rt, ok := target.LookupKey(val); ok {
				ut2, mapped := m.tupleVertex.VertexOf(refRel, rt.ID)
				if mapped {
					g.MustAddEdge(ut, ut2, attr)
					m.fkEdges[[2]graph.VID{ut, ut2}] = attr
					continue
				}
			}
		}
		av := g.AddVertex(val)
		g.MustAddEdge(ut, av, attr)
		m.attrVertex[ref][attr] = av
	}
	return nil
}

// RecoverTuple reconstructs the attribute values of the tuple denoted by
// vertex u_t from the canonical graph alone, for round-trip verification.
// Foreign-key attributes recover the referenced tuple's key value.
func RecoverTuple(g *graph.Graph, m *Mapping, db *relational.Database, v graph.VID) (map[string]string, error) {
	ref, ok := m.TupleOf(v)
	if !ok {
		return nil, fmt.Errorf("rdb2rdf: vertex %d is not a tuple vertex", v)
	}
	rel := db.Relation(ref.Relation)
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
	_ = rel
	return out, nil
}
