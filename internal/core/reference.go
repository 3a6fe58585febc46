package core

import (
	"her/internal/graph"
)

// ReferenceMatch is a brute-force reference implementation of parametric
// simulation used to verify ParaMatch in tests. It returns the whole
// maximum match Π over G_D × G, sorted: the greatest fixpoint of the
// simulation conditions over ALL σ-qualifying pairs, with each pair's
// lineage decided by the maximum-weight injective assignment — the
// existential S of the definition — rather than ParaMatch's greedy
// selection. The step is monotone, so the fixpoint is unique and every
// ParaMatch engine must return exactly its pairs among their candidates.
//
// Cost is O(|V_D|·|V|) pairs per sweep with an O(k³) assignment per
// pair, intended only for small graphs.
func ReferenceMatch(m *Matcher) []Pair {
	// Start from all σ-qualifying pairs (the coinductive top element).
	valid := make(map[Pair]bool)
	for u := 0; u < m.GD.NumVertices(); u++ {
		for v := 0; v < m.G.NumVertices(); v++ {
			p := Pair{U: graph.VID(u), V: graph.VID(v)}
			if m.Hv(p.U, p.V) >= m.P.Sigma {
				valid[p] = true
			}
		}
	}
	// Decreasing iteration to the greatest fixpoint.
	for changed := true; changed; {
		changed = false
		for p := range valid {
			if m.GD.IsLeaf(p.U) {
				continue
			}
			if bestLineageScore(m, p, valid) < m.P.Delta {
				delete(valid, p)
				changed = true
			}
		}
	}
	out := make([]Pair, 0, len(valid))
	for p := range valid {
		out = append(out, p)
	}
	return SortPairs(out)
}

// bestLineageScore computes the maximum aggregate h_ρ over partial
// injective mappings from V_u^k to V_v^k restricted to currently valid
// pairs, summed in V_u^k order as ParaMatch sums it.
func bestLineageScore(m *Matcher, p Pair, valid map[Pair]bool) float64 {
	vuk := m.RD.TopK(p.U, m.P.K)
	vvk := m.RG.TopK(p.V, m.P.K)
	// w[i][j] = score if (u'_i, v'_j) is currently valid, else -1.
	w := make([][]float64, len(vuk))
	for i, su := range vuk {
		w[i] = make([]float64, len(vvk))
		for j, sv := range vvk {
			w[i][j] = -1
			if valid[Pair{U: su.Desc, V: sv.Desc}] {
				w[i][j] = m.Hrho(su.Path, sv.Path)
			}
		}
	}
	sum := 0.0
	for i, j := range maxAssignment(w) {
		if j >= 0 {
			sum += w[i][j]
		}
	}
	return sum
}
