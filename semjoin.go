package her

import (
	"fmt"
	"sort"

	"her/internal/graph"
)

// SemanticJoin implements the paper's third future-work item: extending
// the relational join semantically via HER. It joins the tuples of one
// relation with the graph entities they refer to — the join predicate is
// parametric simulation instead of value equality — and returns, for
// each matched pair, the tuple's attributes together with the matched
// vertex's properties (attribute/property names come from the schema
// match Γ where available, from raw edge labels otherwise).
type JoinedRow struct {
	Tuple   TupleRef
	Vertex  VertexID
	Attrs   map[string]string // relational side
	Props   map[string]string // graph side: edge label (or Γ path) → value label
	Aligned map[string]string // attribute → the G path that encodes it (Γ)
}

// SemanticJoin computes the semantic join of relation rel with graph G.
// The system must be trained and thresholded; each tuple contributes one
// row per matching vertex.
func (s *System) SemanticJoin(rel string) ([]JoinedRow, error) {
	if s.Mapping == nil {
		return nil, fmt.Errorf("her: semantic join needs a tuple mapping")
	}
	r := s.DB.Relation(rel)
	if r == nil {
		return nil, fmt.Errorf("her: unknown relation %s", rel)
	}
	s.mu.Lock() // AddTuple appends under it; the rows already there never change
	tuples := r.Tuples
	s.mu.Unlock()
	var rows []JoinedRow
	for _, t := range tuples {
		matches, err := s.VPair(rel, t.ID)
		if err != nil {
			return nil, err
		}
		for _, m := range matches {
			row := JoinedRow{
				Tuple:   TupleRef{Relation: rel, TupleID: t.ID},
				Vertex:  m.V,
				Attrs:   make(map[string]string),
				Props:   make(map[string]string),
				Aligned: make(map[string]string),
			}
			for i, a := range r.Schema.Attrs {
				if v := t.Values[i]; v != Null {
					row.Attrs[a] = v
				}
			}
			s.mu.Lock()
			s.collectPropsLocked(m.V, row.Props)
			s.mu.Unlock()
			if ex, err := s.Explain(m.U, m.V); err == nil {
				for _, sm := range ex.SchemaMatches {
					row.Aligned[sm.Attr] = sm.Rho.LabelString()
				}
			}
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Tuple.TupleID != rows[b].Tuple.TupleID {
			return rows[a].Tuple.TupleID < rows[b].Tuple.TupleID
		}
		return rows[a].Vertex < rows[b].Vertex
	})
	return rows, nil
}

// collectPropsLocked gathers the direct properties of v: each edge label
// maps to its target's label (the value for leaves, the entity label for
// links to other entities). Callers hold s.mu, under which G grows.
func (s *System) collectPropsLocked(v graph.VID, out map[string]string) {
	for _, e := range s.G.Out(v) {
		out[e.Label] = s.G.Label(e.To)
	}
}
