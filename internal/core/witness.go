package core

import (
	"fmt"
	"sort"

	"her/internal/graph"
)

// Witness returns the match relation Π(u, v) recorded in the cache for a
// previously confirmed match: the pair itself, its lineage set, and the
// lineage sets of every dependent pair, transitively. It returns nil when
// (u, v) is not a confirmed match. This is the paper's explainability
// artifact — it shows WHY two vertices match.
func (m *Matcher) Witness(u, v graph.VID) []Pair {
	root := Pair{U: u, V: v}
	if !m.verdict[root] {
		return nil
	}
	seen := map[Pair]bool{root: true}
	queue := []Pair{root}
	var out []Pair
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		out = append(out, p)
		for _, q := range m.witness[p] {
			if !seen[q] {
				seen[q] = true
				queue = append(queue, q)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].V < out[b].V
	})
	return out
}

// Lineage returns the lineage set S(u,v) recorded for a confirmed match.
func (m *Matcher) Lineage(u, v graph.VID) []Pair {
	p := Pair{U: u, V: v}
	if !m.verdict[p] {
		return nil
	}
	w := m.witness[p]
	out := make([]Pair, len(w))
	copy(out, w)
	return out
}

// SchemaMatch maps one edge (attribute) from u_t to the path of G that
// encodes it (appendix D): Edge is the first hop of the G_D-side path and
// Rho the prefix of the matching G-side path maximizing M_ρ.
type SchemaMatch struct {
	Attr string     // the G_D edge label (the attribute name)
	Rho  graph.Path // matching path prefix in G
}

// SchemaMatches computes Γ(u_t, v_g) for a previously confirmed match:
// for every lineage pair (u', v') of (u_t, v_g) whose G_D-side path
// starts with an attribute edge e, the prefix ρ_e of the G-side path with
// the maximum M_ρ(L(e), L(ρ_e)) is selected.
func (m *Matcher) SchemaMatches(ut, vg graph.VID) ([]SchemaMatch, error) {
	p := Pair{U: ut, V: vg}
	if !m.verdict[p] {
		return nil, fmt.Errorf("core: (%d, %d) is not a confirmed match", ut, vg)
	}
	vuk := m.RD.TopK(ut, m.P.K)
	vvk := m.RG.TopK(vg, m.P.K)
	pathU := make(map[graph.VID]graph.Path, len(vuk))
	for _, s := range vuk {
		pathU[s.Desc] = s.Path
	}
	pathV := make(map[graph.VID]graph.Path, len(vvk))
	for _, s := range vvk {
		pathV[s.Desc] = s.Path
	}
	var out []SchemaMatch
	for _, lp := range m.witness[p] {
		pu, okU := pathU[lp.U]
		pv, okV := pathV[lp.V]
		if !okU || !okV || pu.Len() == 0 || pv.Len() == 0 {
			continue
		}
		attr := pu.EdgeLabels[0]
		best := pv.Prefix(1)
		bestScore := m.P.Mrho([]string{attr}, best.EdgeLabels)
		for n := 2; n <= pv.Len(); n++ {
			pre := pv.Prefix(n)
			if s := m.P.Mrho([]string{attr}, pre.EdgeLabels); s > bestScore {
				bestScore, best = s, pre
			}
		}
		out = append(out, SchemaMatch{Attr: attr, Rho: best})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Attr < out[b].Attr })
	return out, nil
}
