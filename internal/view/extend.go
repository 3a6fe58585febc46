package view

import (
	"fmt"

	"her/internal/graph"
	"her/internal/rdb2rdf"
	"her/internal/relational"
)

// This file implements append-only view maintenance, mirroring
// rdb2rdf.AddTuple and the Section VI-B remark 2 IncPSim contract: a
// new tuple only ADDS a fresh region (its vertex, its leaves, the edges
// leaving it), so the extension is expressible as a DeltaTuple in the
// PR 7 delta log and no old vertex ever changes. The one hazard is a
// new tuple whose key resolves a reference that dangled at extraction
// time — then old vertices would gain edges under re-extraction, which
// append-only maintenance cannot express; ResolvesDangling detects
// exactly that case so the owner can fall back to a full recompile
// (signalled downstream as a DeltaReset).

// ResolvesDangling reports whether appending tuple (rel, tupleID) of db
// would resolve a reference that dangled during extraction, making
// append-only maintenance diverge from re-extraction. The check is one
// map lookup against the dangling-reference set the extraction passes
// maintain.
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

// ExtendTuple extends a compiled view with one tuple appended to db
// after Compile ran: the tuple's vertex (when a vertex rule accepts
// it), its projected leaves, its single-step FK edges, and its
// join-path and closure edges. Every added edge leaves a new vertex.
// Callers that need re-extraction equivalence must first check
// ResolvesDangling and recompile instead when it reports true.
func ExtendTuple(g *graph.Graph, m *Mapping, def *Def, db *relational.Database, relName string, tupleID int) error {
	c, err := plan(def, db)
	if err != nil {
		return err
	}
	return c.extendTuple(g, m, relName, tupleID)
}

func (c *compiled) extendTuple(g *graph.Graph, m *Mapping, relName string, tupleID int) error {
	rel := c.db.Relation(relName)
	if rel == nil {
		return fmt.Errorf("view %s: unknown relation %s", c.def.Name, relName)
	}
	if tupleID < 0 || tupleID >= len(rel.Tuples) {
		return fmt.Errorf("view %s: %s has no tuple %d", c.def.Name, relName, tupleID)
	}
	ref := rdb2rdf.TupleRef{Relation: relName, TupleID: tupleID}
	if _, dup := m.tupleVertex.VertexOf(relName, tupleID); dup {
		return fmt.Errorf("view %s: tuple %s/%d already mapped", c.def.Name, relName, tupleID)
	}
	ri, ok := c.byRelation[relName]
	if !ok {
		return nil // no vertex rule: the tuple is invisible to this view
	}
	vr := &c.def.Vertices[ri]
	t := rel.Tuples[tupleID]
	if !matchTuple(rel, t, vr.Where) {
		return nil
	}
	ut := g.AddVertex(vertexLabel(rel, t, vr))
	m.tupleVertex.Set(ref, ut)
	m.vertexTuple[ut] = ref
	m.attrVertex[ref] = make(map[string]graph.VID, len(rel.Schema.Attrs))
	c.extractTuple(g, m, ri, rel, t, ut)
	for _, ei := range c.multiStep {
		er := &c.def.Edges[ei]
		if er.Relation != relName {
			continue
		}
		c.extractPaths(g, m, er, t, ut)
	}
	return nil
}
