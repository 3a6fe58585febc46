package view

import (
	"fmt"

	"her/internal/graph"
	"her/internal/rdb2rdf"
	"her/internal/relational"
)

// This file implements append-only view maintenance, the Section VI-B
// remark 2 IncPSim contract: a new tuple only ADDS a fresh region (its
// vertex, its leaves, the edges leaving it), so the extension is
// expressible as a DeltaTuple in the delta log and no old vertex ever
// changes. It is the one extension path for every hosted view, the
// direct one included. The one hazard is a new tuple whose key resolves
// a reference that dangled at extraction time — then old vertices would
// gain edges under re-extraction, which append-only maintenance cannot
// express; rdb2rdf.Mapping.ResolvesDangling detects exactly that case
// so the owner can fall back to a full recompile (signalled downstream
// as a DeltaReset), or, for the append-only direct view, keep the
// reference dangling.

// ExtendTuple extends a compiled view with one tuple appended to db
// after Compile ran: the tuple's vertex (when a vertex rule accepts
// it), its projected leaves, its single-step FK edges, and its
// join-path and closure edges. Every added edge leaves a new vertex.
// Callers that need re-extraction equivalence must first check
// m.ResolvesDangling and recompile instead when it reports true.
func ExtendTuple(g *graph.Graph, m *rdb2rdf.Mapping, def *Def, db *relational.Database, relName string, tupleID int) error {
	c, err := plan(def, db)
	if err != nil {
		return err
	}
	return c.extendTuple(g, m, relName, tupleID)
}

func (c *compiled) extendTuple(g *graph.Graph, m *rdb2rdf.Mapping, relName string, tupleID int) error {
	rel := c.db.Relation(relName)
	if rel == nil {
		return fmt.Errorf("view %s: unknown relation %s", c.def.Name, relName)
	}
	if tupleID < 0 || tupleID >= len(rel.Tuples) {
		return fmt.Errorf("view %s: %s has no tuple %d", c.def.Name, relName, tupleID)
	}
	if _, dup := m.VertexOf(relName, tupleID); dup {
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
	m.MapTuple(rdb2rdf.TupleRef{Relation: relName, TupleID: tupleID}, ut)
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
