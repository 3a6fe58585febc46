package core_test

import (
	"runtime"
	"testing"

	"her"
	"her/internal/core"
	"her/internal/testkit"
)

// The matcher's microbenchmarks (ns/op, B/op, allocs/op) over a testkit
// workload — a generated schema with planted tuple↔vertex matches —
// scored by the real scorers of an untrained her.System over it: the
// hashing encoder's M_v (Encoder.MvScore, bound directly) and the
// memoized sequence-cosine M_ρ. "Cold" is the benchmark's meaning
// (core.match_cold_us, core.vpair_cold_ms): a fresh matcher per call,
// the system's rankers and scorer memos as they are. check.sh runs
// them once; measure with -benchtime and -count by hand.

// benchWorkloadSeed picks the generated schema: one of the larger graded
// ones (σ 0.82, so near-equal labels pass h_v); its sizes are logged.
const benchWorkloadSeed = 76

func benchMatcher(b *testing.B) (*testkit.Workload, func() *core.Matcher) {
	b.Helper()
	w, err := testkit.GenWorkload(benchWorkloadSeed)
	if err != nil {
		b.Fatal(err)
	}
	if len(w.Planted) == 0 {
		b.Fatalf("workload %s plants no match", w.Name)
	}
	sys, err := her.New(w.DB, w.G, her.Options{Seed: 1, MaxPathLen: w.MaxLen})
	if err != nil {
		b.Fatal(err)
	}
	p := sys.CoreParams()
	p.Sigma, p.Delta, p.K = w.Params.Sigma, w.Params.Delta, w.Params.K
	b.Logf("%s: |V_D| %d, |V_G| %d, |E_G| %d, %d planted, σ %.2f δ %.2f k %d",
		w.Name, sys.GD.NumVertices(), sys.G.NumVertices(), sys.G.NumEdges(), len(w.Planted), p.Sigma, p.Delta, p.K)
	return w, func() *core.Matcher {
		m, err := core.NewMatcher(sys.GD, sys.G, sys.RankerD(), sys.RankerG(), p)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
}

var matchSink bool

// BenchmarkMatchCold is one ParaMatch call on a planted pair.
func BenchmarkMatchCold(b *testing.B) {
	w, fresh := benchMatcher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, pr := fresh(), w.Planted[i%len(w.Planted)]
		b.StartTimer()
		matchSink = m.Match(pr.U, pr.V)
	}
}

var pairSink []core.Pair

// BenchmarkVPairCold is one VParaMatch of a planted tuple vertex against
// every vertex of G (no candidate generator).
func BenchmarkVPairCold(b *testing.B) {
	w, fresh := benchMatcher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, pr := fresh(), w.Planted[i%len(w.Planted)]
		b.StartTimer()
		pairSink = m.VPair(pr.U, nil)
	}
}

var matcherSink *core.Matcher

// BenchmarkMatcherLiveBytes is the match state's memory: one matcher
// runs VParaMatch over every tuple vertex of the workload, and the
// reported B/pair is the live heap the matcher retains (heap with it
// minus heap without it, both after a GC) per cached pair. The rankers'
// and scorers' memos belong to the system and are live on both sides.
func BenchmarkMatcherLiveBytes(b *testing.B) {
	w, fresh := benchMatcher(b)
	var ms runtime.MemStats
	var perPair float64
	pairs := 0
	for i := 0; i < b.N; i++ {
		matcherSink = fresh()
		for _, u := range w.Sources {
			pairSink = matcherSink.VPair(u, nil)
		}
		pairs = matcherSink.CachedPairs()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		with := ms.HeapAlloc
		matcherSink = nil
		runtime.GC()
		runtime.ReadMemStats(&ms)
		perPair = float64(int64(with)-int64(ms.HeapAlloc)) / float64(pairs)
	}
	b.ReportMetric(perPair, "B/pair")
	b.ReportMetric(float64(pairs), "pairs")
}
