package core_test

import (
	"testing"

	"her/internal/core"
	"her/internal/testkit"
)

// TestWidenedSeed4Draw1 pins the first widened instance on which a
// greedy lineage choice missed pairs of Π: |V| = 7 on both sides, and
// (0, 3) and (5, 3) hold only through an injective S that greedy, after
// an earlier property took its vertex, did not reach.
func TestWidenedSeed4Draw1(t *testing.T) {
	w := testkit.GenWidenedWorkloads(4)[1]
	if n := w.GD.NumVertices(); n != 7 {
		t.Fatalf("generator drifted: |V_D| = %d, want 7", n)
	}
	m, err := w.NewMatcher()
	if err != nil {
		t.Fatal(err)
	}
	got := m.APair(nil, nil)
	ref, err := w.Reference()
	if err != nil {
		t.Fatal(err)
	}
	if !testkit.EqualPairs(ref, got) {
		t.Errorf("APair differs from the reference:\n%s", testkit.DiffPairs("reference", ref, "apair", got))
	}
	for _, p := range []core.Pair{{U: 0, V: 3}, {U: 5, V: 3}} {
		if valid, ok := m.Cached(p); !ok || !valid {
			t.Errorf("%v not confirmed", p)
		}
	}
}

// TestRechecksBounded: a pair is re-run only when a member of its W
// turns false, each of its at most k² candidate pairs turns false at
// most once, so APair re-runs at most k² times per decided pair — with
// no budget to enforce it.
func TestRechecksBounded(t *testing.T) {
	rechecks := 0
	for seed := int64(1); seed <= 60; seed++ {
		for _, w := range testkit.GenWidenedWorkloads(seed) {
			m, err := w.NewMatcher()
			if err != nil {
				t.Fatal(err)
			}
			m.APair(nil, nil)
			k := w.Params.K
			if r := m.Stats().Rechecks; r > k*k*m.CachedPairs() {
				t.Errorf("%s: %d rechecks for %d decided pairs (k = %d)", w.Name, r, m.CachedPairs(), k)
			}
			rechecks += m.Stats().Rechecks
		}
	}
	if rechecks == 0 {
		t.Error("no instance re-ran a pair: the bound above is vacuous")
	}
}
