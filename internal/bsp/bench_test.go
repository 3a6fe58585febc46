package bsp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/ranking"
)

// benchmarkRun times one scheduler on a fixed seeded instance whose
// runs send requests and invalidations at every worker count above one.
// The rankers are shared across iterations, as APairParallel shares the
// System's, so their ecache is warm after the first run. It reports
// max_worker_share, the busiest worker's share of the ParaMatch calls:
// 1/n is a perfect division of the work among n workers.
func benchmarkRun(b *testing.B, run func(*Engine, []graph.VID, core.CandidateGen, Config) ([]core.Pair, Stats, error)) {
	rng := rand.New(rand.NewSource(3))
	labels, edgeLabels := []string{"P", "Q", "R", "S"}, []string{"x", "y", "z"}
	gd := randomGraph(rng, 48, 120, labels, edgeLabels)
	g := randomGraph(rng, 48, 120, labels, edgeLabels)
	p := core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.5, K: 3}
	eng, err := NewEngine(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			for i := 0; i < b.N; i++ {
				var err error
				if _, st, err = run(eng, nil, nil, Config{Workers: n}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(slices.Max(st.PerWorkerCalls))/float64(st.Calls), "max_worker_share")
		})
	}
}

func BenchmarkRun(b *testing.B)      { benchmarkRun(b, (*Engine).Run) }
func BenchmarkRunAsync(b *testing.B) { benchmarkRun(b, (*Engine).RunAsync) }
