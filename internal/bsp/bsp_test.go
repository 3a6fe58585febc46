package bsp

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/index"
	"her/internal/ranking"
)

func exactMv(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

func exactMrho(a, b []string) float64 {
	if strings.Join(a, " ") == strings.Join(b, " ") {
		return 1
	}
	return 0
}

func randomGraph(rng *rand.Rand, nv, ne int, labels, edgeLabels []string) *graph.Graph {
	g := graph.New()
	for i := 0; i < nv; i++ {
		g.AddVertex(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < ne; i++ {
		g.MustAddEdge(graph.VID(rng.Intn(nv)), graph.VID(rng.Intn(nv)),
			edgeLabels[rng.Intn(len(edgeLabels))])
	}
	return g
}

func sequentialAPair(t *testing.T, gd, g *graph.Graph, p core.Params, gen core.CandidateGen, maxLen int) []core.Pair {
	t.Helper()
	m, err := core.NewMatcher(gd, g, ranking.NewRanker(gd, nil, maxLen), ranking.NewRanker(g, nil, maxLen), p)
	if err != nil {
		t.Fatal(err)
	}
	return m.APair(nil, gen)
}

func pairsEqual(a, b []core.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelEqualsSequential is Theorem 3: PAllMatch computes the same
// Π as the sequential AllParaMatch for every worker count.
func TestParallelEqualsSequential(t *testing.T) {
	labels := []string{"P", "Q", "R", "S"}
	edgeLabels := []string{"x", "y", "z"}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		nv := 4 + rng.Intn(8)
		ne := rng.Intn(2 * nv)
		gd := randomGraph(rng, nv, ne, labels, edgeLabels)
		g := randomGraph(rng, nv, ne, labels, edgeLabels)
		delta := []float64{0.3, 0.5, 1.0}[rng.Intn(3)]
		p := core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: delta, K: 3}
		want := sequentialAPair(t, gd, g, p, nil, 3)
		for _, n := range []int{1, 2, 3, 4} {
			eng, err := NewEngine(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := eng.Run(nil, nil, Config{Workers: n})
			if err != nil {
				t.Fatal(err)
			}
			if !pairsEqual(got, want) {
				t.Fatalf("trial %d n=%d δ=%.1f: parallel %v != sequential %v (stats %+v)",
					trial, n, delta, got, want, st)
			}
		}
	}
}

func TestRunWithIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	labels := []string{"alpha one", "beta two", "gamma three"}
	gd := randomGraph(rng, 8, 12, labels, []string{"x", "y"})
	g := randomGraph(rng, 8, 12, labels, []string{"x", "y"})
	p := core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.4, K: 3}
	ix := index.Blocking(g, 1)
	gen := func(u graph.VID) []graph.VID { return ix.Candidates(gd, u, nil) }
	want := sequentialAPair(t, gd, g, p, gen, 3)
	eng, err := NewEngine(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eng.Run(nil, gen, Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(got, want) {
		t.Errorf("indexed parallel %v != sequential %v", got, want)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gd := randomGraph(rng, 10, 20, []string{"A", "B"}, []string{"x"})
	g := randomGraph(rng, 10, 20, []string{"A", "B"}, []string{"x"})
	p := core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.5, K: 3}
	eng, _ := NewEngine(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
	_, st, err := eng.Run(nil, nil, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Errorf("Workers = %d", st.Workers)
	}
	if st.Supersteps < 1 {
		t.Errorf("Supersteps = %d", st.Supersteps)
	}
	total := 0
	for _, c := range st.PerWorkerPairs {
		total += c
	}
	if total != st.CandidatePairs {
		t.Errorf("per-worker pairs %d != total %d", total, st.CandidatePairs)
	}
	if st.Calls == 0 && st.CandidatePairs > 0 {
		t.Error("no ParaMatch calls recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.New()
	g.AddVertex("a")
	p := core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.5, K: 3}
	eng, err := NewEngine(g, g, ranking.NewRanker(g, nil, 3), ranking.NewRanker(g, nil, 3), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Run(nil, nil, Config{Workers: 0}); err == nil {
		t.Error("Workers=0 should fail")
	}
	if _, err := NewEngine(nil, nil, nil, nil, p); err == nil {
		t.Error("nil graphs should fail")
	}
	if _, err := NewEngine(g, g, ranking.NewRanker(g, nil, 3), ranking.NewRanker(g, nil, 3), core.Params{}); err == nil {
		t.Error("invalid params should fail")
	}
}

func TestMoreWorkersThanVertices(t *testing.T) {
	gd := graph.New()
	u := gd.AddVertex("A")
	g := graph.New()
	g.AddVertex("A")
	p := core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.5, K: 2}
	eng, _ := NewEngine(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
	got, _, err := eng.Run([]graph.VID{u}, nil, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("matches = %v", got)
	}
}

// TestCrossFragmentRecursion forces a match whose lineage spans fragments:
// a G-side chain long enough to be split by any 2-way partition.
func TestCrossFragmentRecursion(t *testing.T) {
	const n = 12
	gd := graph.New()
	g := graph.New()
	for i := 0; i < n; i++ {
		gd.AddVertex("N")
		g.AddVertex("N")
	}
	for i := 0; i+1 < n; i++ {
		gd.MustAddEdge(graph.VID(i), graph.VID(i+1), "e")
		g.MustAddEdge(graph.VID(i), graph.VID(i+1), "e")
	}
	p := core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.2, K: 2}
	want := sequentialAPair(t, gd, g, p, nil, 2)
	for _, workers := range []int{2, 3, 5} {
		eng, _ := NewEngine(gd, g, ranking.NewRanker(gd, nil, 2), ranking.NewRanker(g, nil, 2), p)
		got, st, err := eng.Run(nil, nil, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, want) {
			t.Errorf("workers=%d: %v != %v", workers, got, want)
		}
		if workers > 1 && st.Requests == 0 {
			t.Errorf("workers=%d: expected cross-fragment requests, stats %+v", workers, st)
		}
	}
}

// TestSuperstepBound: a run cut off by MaxSupersteps while messages are
// still pending fails with ErrNotConverged instead of returning the
// partial union; a bound the run fits in changes nothing.
func TestSuperstepBound(t *testing.T) {
	// One edge across the two fragments: superstep 1 asks the other
	// worker about the border pair, superstep 2 serves the request and
	// sends nothing.
	gd, g := graph.New(), graph.New()
	for _, x := range []*graph.Graph{gd, g} {
		x.MustAddEdge(x.AddVertex("N"), x.AddVertex("N"), "e")
	}
	p := core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.2, K: 2}
	run := func(max int) ([]core.Pair, Stats, error) {
		eng, _ := NewEngine(gd, g, ranking.NewRanker(gd, nil, 2), ranking.NewRanker(g, nil, 2), p)
		return eng.Run(nil, nil, Config{Workers: 2, MaxSupersteps: max})
	}
	want, st, err := run(0)
	if err != nil || st.Supersteps != 2 {
		t.Fatalf("unbounded run: %d supersteps, err %v; the instance must need 2", st.Supersteps, err)
	}
	got, st, err := run(1)
	if !errors.Is(err, ErrNotConverged) || got != nil || st.Supersteps != 1 {
		t.Errorf("MaxSupersteps 1: matches %v, %d supersteps, err %v; want none, 1, ErrNotConverged", got, st.Supersteps, err)
	}
	if got, _, err := run(2); err != nil || !pairsEqual(got, want) {
		t.Errorf("MaxSupersteps 2: %v, err %v; want %v", got, err, want)
	}
}
