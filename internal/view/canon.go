package view

import (
	"fmt"
	"strings"

	"her/internal/graph"
	"her/internal/rdb2rdf"
	"her/internal/relational"
)

// CanonicalDump serializes a materialized view in a form independent of
// raw vertex ids: tuple vertices are named relation/tupleID through the
// mapping, leaf vertices by their label, and per-vertex edge order is
// preserved. Two views over the same database are semantically equal
// exactly when their dumps are byte-equal — the equality the
// mutation-sequence differential needs, because a re-extraction from
// scratch interleaves relations' vertex ids differently than an
// append-only history while denoting the same graph.
func CanonicalDump(g *graph.Graph, m *rdb2rdf.Mapping, db *relational.Database) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vertices %d edges %d tuples %d\n",
		g.NumVertices(), g.NumEdges(), m.NumTupleVertices())
	for _, relName := range db.RelationNames() {
		rel := db.Relation(relName)
		for id := 0; id < len(rel.Tuples); id++ {
			v, ok := m.VertexOf(relName, id)
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "t %s/%d label=%q\n", relName, id, g.Label(v))
			for _, e := range g.Out(v) {
				if ref, isTuple := m.TupleOf(e.To); isTuple {
					fmt.Fprintf(&b, "  e %q -> %s/%d\n", e.Label, ref.Relation, ref.TupleID)
				} else {
					fmt.Fprintf(&b, "  a %q -> %q\n", e.Label, g.Label(e.To))
				}
			}
		}
	}
	return b.String()
}
