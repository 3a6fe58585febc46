package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"her/internal/graph"
	"her/internal/ranking"
)

// CachedPairs is the number of pairs with a cached verdict, for the
// external benchmarks' bytes-per-pair figure.
func (m *Matcher) CachedPairs() int { return len(m.verdict) }

// checkState verifies the match state's structural invariants: a pair
// has a (non-empty) witness entry only while its verdict is true, every
// q in a W has that pair in dependents[q], every entry of
// dependents[q] has q in its W, and no dependents entry is empty. Keys are visited in sorted order, so the
// error reported is the same on every run.
func (m *Matcher) checkState() error {
	keys := make([]Pair, 0, len(m.witness))
	for p := range m.witness {
		keys = append(keys, p)
	}
	for _, p := range SortPairs(keys) {
		w := m.witness[p]
		if !m.verdict[p] {
			return fmt.Errorf("core: %v has a witness but no true verdict", p)
		}
		if len(w) == 0 {
			return fmt.Errorf("core: %v has an empty witness entry", p)
		}
		for _, q := range w {
			if !containsPair(m.dependents[q], p) {
				return fmt.Errorf("core: %v is in W%v but %v is not in dependents[%v]", q, p, p, q)
			}
		}
	}
	qs := make([]Pair, 0, len(m.dependents))
	for q := range m.dependents {
		qs = append(qs, q)
	}
	for _, q := range SortPairs(qs) {
		ps := m.dependents[q]
		if len(ps) == 0 {
			return fmt.Errorf("core: dependents[%v] is an empty entry", q)
		}
		for _, p := range SortPairs(slices.Clone(ps)) {
			if !containsPair(m.witness[p], q) {
				return fmt.Errorf("core: %v is in dependents[%v] but not in W%v", p, q, p)
			}
		}
	}
	return nil
}

func containsPair(w []Pair, q Pair) bool {
	for _, x := range w {
		if x == q {
			return true
		}
	}
	return false
}

// mustCheckState fails t when m's match state breaks an invariant; the
// format and args say when.
func mustCheckState(t *testing.T, m *Matcher, format string, args ...any) {
	t.Helper()
	if err := m.checkState(); err != nil {
		t.Fatalf(format+": %v", append(args, err)...)
	}
}

// TestStateUnderBorderSequences drives random instances through the
// border protocol — delegated pairs assumed valid, then refuted and
// forgotten in random order — and checks the match state's
// invariants after every step.
func TestStateUnderBorderSequences(t *testing.T) {
	labels := []string{"P", "Q", "R"}
	edgeLabels := []string{"x", "y"}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		nv := 4 + rng.Intn(6)
		ne := rng.Intn(3 * nv)
		gd := randomGraph(rng, nv, ne, labels, edgeLabels)
		g := randomGraph(rng, nv, ne, labels, edgeLabels)
		delta := []float64{0.3, 0.5, 1.0}[rng.Intn(3)]
		p := Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: delta, K: 3}
		m, err := NewMatcher(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
		if err != nil {
			t.Fatal(err)
		}
		// The odd G-side vertices belong to another (imaginary) worker.
		m.SetBorder(Border{Delegate: func(q Pair) bool { return q.V%2 == 1 }})
		var delegated []Pair
		for u := 0; u < nv; u++ {
			for v := 1; v < nv; v += 2 {
				delegated = append(delegated, Pair{U: graph.VID(u), V: graph.VID(v)})
			}
		}
		m.APair(nil, nil)
		mustCheckState(t, m, "trial %d: APair", trial)
		for step := 0; step < 20; step++ {
			q := delegated[rng.Intn(len(delegated))]
			var op string
			switch rng.Intn(3) {
			case 0, 1:
				op = "Invalidate"
				m.Invalidate(q)
			default:
				op = "ForgetVertices"
				m.ForgetVertices(func(v graph.VID) bool { return v == q.V })
				m.APair(nil, nil)
			}
			mustCheckState(t, m, "trial %d step %d: %s%v", trial, step, op, q)
		}
	}
}
