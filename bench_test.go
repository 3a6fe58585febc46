package her

import (
	"sync"
	"testing"

	"her/internal/baselines"
	"her/internal/core"
	"her/internal/dataset"
	"her/internal/embed"
	"her/internal/graph"
	"her/internal/learn"
	"her/internal/lstm"
	"her/internal/nn"
	"her/internal/ranking"
	"her/internal/rdb2rdf"
)

// benchState caches one trained system per dataset so each benchmark
// pays the Learn pipeline once.
type benchState struct {
	d    *dataset.Generated
	sys  *System
	anns []learn.Annotation
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchState{}
)

func benchSetup(b *testing.B, name string, entities int) *benchState {
	return benchSetupOpts(b, name, name, entities, Options{Seed: 7})
}

// benchSetupOpts is benchSetup with caller-chosen Options, cached under
// an explicit key so instrumented and plain variants coexist.
func benchSetupOpts(b *testing.B, key, name string, entities int, opts Options) *benchState {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if st, ok := benchCache[key]; ok {
		return st
	}
	cfg, ok := dataset.ByName(name, entities)
	if !ok {
		b.Fatalf("unknown dataset %s", name)
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(d.DB, d.G, opts)
	if err != nil {
		b.Fatal(err)
	}
	var training []PathPair
	for i := 0; i < 20; i++ {
		training = append(training, d.PathPairs...)
	}
	if err := sys.TrainPathModel(training, 0); err != nil {
		b.Fatal(err)
	}
	if err := sys.TrainRanker(120, 10); err != nil {
		b.Fatal(err)
	}
	if err := sys.SetThresholds(Thresholds{Sigma: 0.8, Delta: 1.6, K: 15}); err != nil {
		b.Fatal(err)
	}
	st := &benchState{d: d, sys: sys, anns: d.Truth}
	benchCache[key] = st
	return st
}

// --- Table V / Table VI family: per-request mode latency ----------------

// BenchmarkTableVI_SPair_HER measures HER's per-pair SPair latency with
// a warm cache, the regime Table VI reports (0.68 ms at paper scale).
func BenchmarkTableVI_SPair_HER(b *testing.B) {
	st := benchSetup(b, "DBpediaP", 100)
	pairs := st.anns
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)].Pair
		st.sys.SPairVertices(p.U, p.V)
	}
}

// BenchmarkTableVI_VPair_HER measures per-tuple VPair latency.
func BenchmarkTableVI_VPair_HER(b *testing.B) {
	st := benchSetup(b, "DBpediaP", 100)
	tuples := st.d.TupleVertices
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.sys.VPairVertex(tuples[i%len(tuples)])
	}
}

// benchBaselineSPair shares the Table VI harness for one baseline.
func benchBaselineSPair(b *testing.B, m baselines.Method) {
	st := benchSetup(b, "DBpediaP", 100)
	train, _, _, err := learn.Split(st.anns, 0.6, 0, 5)
	if err != nil {
		b.Fatal(err)
	}
	td := &baselines.TrainingData{GD: st.d.GD, G: st.d.G, Train: train, Encoder: embed.NewEncoder(64)}
	if err := m.Train(td); err != nil {
		b.Fatal(err)
	}
	pairs := st.anns
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SPair(pairs[i%len(pairs)].Pair)
	}
}

func BenchmarkTableVI_SPair_MAGNN(b *testing.B) { benchBaselineSPair(b, &baselines.MAGNN{}) }
func BenchmarkTableVI_SPair_JedAI(b *testing.B) { benchBaselineSPair(b, &baselines.JedAI{}) }
func BenchmarkTableVI_SPair_MAG(b *testing.B)   { benchBaselineSPair(b, &baselines.MAG{}) }
func BenchmarkTableVI_SPair_DEEP(b *testing.B)  { benchBaselineSPair(b, &baselines.DEEP{}) }

// BenchmarkTableV_Evaluate measures full accuracy evaluation over the
// annotated pairs, the inner loop of every Table V cell.
func BenchmarkTableV_Evaluate(b *testing.B) {
	st := benchSetup(b, "DBpediaP", 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.sys.Evaluate(st.anns)
	}
}

// --- Fig 6(d-g) family: parallel APair -----------------------------------

func benchWorkers(b *testing.B, workers int) {
	st := benchSetup(b, "Synthetic", 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.sys.APairParallel(workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Workers_1(b *testing.B)  { benchWorkers(b, 1) }
func BenchmarkFig6Workers_4(b *testing.B)  { benchWorkers(b, 4) }
func BenchmarkFig6Workers_16(b *testing.B) { benchWorkers(b, 16) }

// --- Fig 6(h-i) family: APair vs graph size -------------------------------

func benchScale(b *testing.B, entities int) {
	cfg, _ := dataset.ByName("Synthetic", entities)
	d, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := New(d.DB, d.G, Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	var training []PathPair
	for i := 0; i < 20; i++ {
		training = append(training, d.PathPairs...)
	}
	if err := sys.TrainPathModel(training, 0); err != nil {
		b.Fatal(err)
	}
	if err := sys.TrainRanker(120, 10); err != nil {
		b.Fatal(err)
	}
	if err := sys.SetThresholds(Thresholds{Sigma: 0.8, Delta: 1.6, K: 15}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.ResetMatchState()
		sys.APair()
	}
}

func BenchmarkFig6Scale_100(b *testing.B) { benchScale(b, 100) }
func BenchmarkFig6Scale_200(b *testing.B) { benchScale(b, 200) }

// --- Fig 6(a-c, j-o) family: threshold sensitivity -----------------------

func benchWithK(b *testing.B, k int) {
	st := benchSetup(b, "DBpediaP", 100)
	if err := st.sys.SetThresholds(Thresholds{Sigma: 0.8, Delta: 1.6, K: k}); err != nil {
		b.Fatal(err)
	}
	pairs := st.anns
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)].Pair
		st.sys.SPairVertices(p.U, p.V)
	}
	b.StopTimer()
	_ = st.sys.SetThresholds(Thresholds{Sigma: 0.8, Delta: 1.6, K: 15})
}

func BenchmarkFig6Params_K5(b *testing.B)  { benchWithK(b, 5) }
func BenchmarkFig6Params_K20(b *testing.B) { benchWithK(b, 20) }

// --- Fig 6(p) family: refinement ------------------------------------------

// BenchmarkFig6Refinement measures one feedback round: select, vote,
// refine.
func BenchmarkFig6Refinement(b *testing.B) {
	st := benchSetup(b, "UKGOV", 80)
	users, err := learn.NewAnnotators(5, 0.1, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := learn.RefinementRound(st.sys.Predictor(), st.anns, 50, int64(i))
		st.sys.Refine(users.Inspect(batch))
	}
}

// --- Table VII family: embedding dimension --------------------------------

func benchEmbedDim(b *testing.B, dim int) {
	enc := embed.NewEncoder(dim)
	labels := []string{"Dame Basketball Shoes D7", "Dame Gen 7", "phylon foam", "brandCountry"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.MvScore(labels[i%len(labels)], labels[(i+1)%len(labels)])
	}
}

func BenchmarkTableVII_Dim100(b *testing.B) { benchEmbedDim(b, 100) }
func BenchmarkTableVII_Dim300(b *testing.B) { benchEmbedDim(b, 300) }

// --- Observability overhead ----------------------------------------------
//
// The acceptance bar for internal/obs: a System built WITHOUT a metrics
// registry (the default) must run warm-cache SPair at the same speed as
// before the instrumentation landed — every recording site degrades to
// a nil check. The Enabled variant quantifies the cost of turning the
// registry on.

func benchObsSPair(b *testing.B, st *benchState) {
	pairs := st.anns
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)].Pair
		st.sys.SPairVertices(p.U, p.V)
	}
}

func BenchmarkObsSPair_Disabled(b *testing.B) {
	benchObsSPair(b, benchSetup(b, "DBpediaP", 100))
}

func BenchmarkObsSPair_Enabled(b *testing.B) {
	benchObsSPair(b, benchSetupOpts(b, "DBpediaP+metrics", "DBpediaP", 100,
		Options{Seed: 7, Metrics: NewMetrics()}))
}

// --- Substrate micro-benchmarks -------------------------------------------

func BenchmarkParaMatchCold(b *testing.B) {
	st := benchSetup(b, "DBpediaP", 100)
	p := st.sys.CoreParams()
	pairs := st.anns
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.NewMatcher(st.sys.GD, st.sys.G, st.sys.RankerD(), st.sys.RankerG(), p)
		if err != nil {
			b.Fatal(err)
		}
		pr := pairs[i%len(pairs)].Pair
		m.Match(pr.U, pr.V)
	}
}

func BenchmarkRankerTopK(b *testing.B) {
	st := benchSetup(b, "DBpediaP", 100)
	r := ranking.NewRanker(st.d.G, nil, 4)
	ents := st.d.EntityVertices
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(ents) == 0 {
			r = ranking.NewRanker(st.d.G, nil, 4) // cold selection cache
		}
		r.TopK(ents[i%len(ents)], 15)
	}
}

func BenchmarkRDB2RDF(b *testing.B) {
	cfg, _ := dataset.ByName("Synthetic", 200)
	d, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rdb2rdf.Map(d.DB); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedding(b *testing.B) {
	enc := embed.NewEncoder(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the string so the cache does not absorb the work.
		enc.Embed(labelsPool[i%len(labelsPool)])
	}
}

var labelsPool = func() []string {
	out := make([]string, 512)
	for i := range out {
		out[i] = "label " + string(rune('a'+i%26)) + " value " + string(rune('0'+i%10))
	}
	return out
}()

func BenchmarkMetricInference(b *testing.B) {
	m := nn.MustMLP([]int{512, 64, 1}, nn.ReLU, 1)
	x := make([]float64, 512)
	for i := range x {
		x[i] = float64(i%7) * 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(x)
	}
}

func BenchmarkLSTMStep(b *testing.B) {
	v := lstm.NewVocab([]string{"a", "b", "c", "d"})
	m := lstm.New(v, 16, 32, 1)
	s := m.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = m.Step(s, "a")
		if i%8 == 7 {
			s = m.Start()
		}
	}
}

func BenchmarkPartition(b *testing.B) {
	st := benchSetup(b, "Synthetic", 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.PartitionEdgeCut(st.d.G, 8); err != nil {
			b.Fatal(err)
		}
	}
}
