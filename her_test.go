package her

import (
	"testing"

	"her/internal/dataset"
	"her/internal/learn"
)

// buildTrained assembles a trained System over a small synthetic
// dataset: the full pipeline of Fig. 2 (RDB2RDF → Learn → query modes).
func buildTrained(t *testing.T, name string, entities int) (*System, *dataset.Generated) {
	t.Helper()
	if testing.Short() {
		// Each caller trains the metric network and ranker from scratch
		// (~8s, 10-20x that under -race). The fast tier of the root
		// package — incremental, override, persistence and JSON tests —
		// still runs in -short.
		t.Skip("trains the full pipeline; skipped in -short")
	}
	cfg, ok := dataset.ByName(name, entities)
	if !ok {
		t.Fatalf("unknown dataset %s", name)
	}
	cfg.Annotations = cfg.NumEntities // small sets need dense annotation
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(d.DB, d.G, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainPathModel(upsample(d.PathPairs, 20), 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainRanker(100, 10); err != nil {
		t.Fatal(err)
	}
	return sys, d
}

// upsample repeats the per-schema path annotations so the metric network
// sees enough gradient steps.
func upsample(pairs []PathPair, times int) []PathPair {
	out := make([]PathPair, 0, len(pairs)*times)
	for i := 0; i < times; i++ {
		out = append(out, pairs...)
	}
	return out
}

func TestEndToEndAccuracy(t *testing.T) {
	sys, d := buildTrained(t, "Synthetic", 80)
	train, val, test, err := learn.Split(d.Truth, 0.5, 0.15, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = train // M_ρ is trained from the schema-level path pairs
	space := learn.SearchSpace{SigmaMin: 0.6, SigmaMax: 0.95, DeltaMin: 0.4, DeltaMax: 2.5, KMin: 5, KMax: 20}
	th, valF, err := sys.LearnThresholds(val, space, 30)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("thresholds: σ=%.2f δ=%.2f k=%d (val F=%.3f)", th.Sigma, th.Delta, th.K, valF)
	ev := sys.Evaluate(test)
	t.Logf("test: %v", ev)
	if ev.F1() < 0.8 {
		t.Errorf("end-to-end F-measure too low: %v", ev)
	}
}

func TestMetricModelLearnsPathPairs(t *testing.T) {
	sys, d := buildTrained(t, "DBLP", 50)
	if acc := sys.MetricAccuracy(d.PathPairs); acc < 0.9 {
		t.Errorf("metric accuracy on its own annotations = %f", acc)
	}
}

func TestVPairFindsGroundTruth(t *testing.T) {
	sys, d := buildTrained(t, "Synthetic", 60)
	nVal := len(d.Truth) / 2
	if _, _, err := sys.LearnThresholds(d.Truth[:nVal], learn.SearchSpace{
		SigmaMin: 0.6, SigmaMax: 0.9, DeltaMin: 0.4, DeltaMax: 2, KMin: 5, KMax: 15,
	}, 15); err != nil {
		t.Fatal(err)
	}
	found, total := 0, 0
	for _, a := range d.Truth {
		if !a.Match {
			continue
		}
		total++
		for _, m := range sys.VPairVertex(a.Pair.U) {
			if m.V == a.Pair.V {
				found++
				break
			}
		}
		if total >= 20 {
			break
		}
	}
	if found < total*7/10 {
		t.Errorf("VPair recall %d/%d", found, total)
	}
}

func TestSPairTupleAPI(t *testing.T) {
	sys, d := buildTrained(t, "Synthetic", 50)
	// Truth pairs reference tuple vertices; translate one back to
	// (relation, id) through the mapping.
	var matched bool
	for _, a := range d.Truth {
		if !a.Match {
			continue
		}
		ref, ok := sys.Mapping.TupleOf(a.Pair.U)
		if !ok {
			t.Fatal("truth pair is not a tuple vertex")
		}
		got, err := sys.SPair(ref.Relation, ref.TupleID, a.Pair.V)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			matched = true
			break
		}
	}
	if !matched {
		t.Error("no ground-truth pair confirmed via the tuple API")
	}
	if _, err := sys.SPair("nonexistent", 0, 0); err == nil {
		t.Error("unknown relation should error")
	}
}

func TestParallelAPairMatchesSequential(t *testing.T) {
	sys, _ := buildTrained(t, "UKGOV", 40)
	seq := sys.APair()
	for _, n := range []int{1, 3} {
		par, stats, err := sys.APairParallel(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("n=%d: parallel %d matches, sequential %d (stats %+v)",
				n, len(par), len(seq), stats)
		}
		for i := range par {
			if par[i] != seq[i] {
				t.Fatalf("n=%d: mismatch at %d: %v vs %v", n, i, par[i], seq[i])
			}
		}
	}
}

func TestExplainMatch(t *testing.T) {
	sys, d := buildTrained(t, "Synthetic", 50)
	var explained bool
	for _, a := range d.Truth {
		if !a.Match || !sys.SPairVertices(a.Pair.U, a.Pair.V) {
			continue
		}
		ex, err := sys.Explain(a.Pair.U, a.Pair.V)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Witness) == 0 || len(ex.Lineage) == 0 {
			t.Errorf("empty explanation: %+v", ex)
		}
		explained = true
		break
	}
	if !explained {
		t.Skip("no confirmed pair to explain at default thresholds")
	}
}

func TestRefinementReachesPerfect(t *testing.T) {
	sys, d := buildTrained(t, "Synthetic", 60)
	pool := d.Truth
	users, err := learn.NewAnnotators(5, 0.1, 11)
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Evaluate(pool).F1()
	var after float64
	for round := 1; round <= 5; round++ {
		batch := learn.RefinementRound(sys.Predictor(), pool, 50, int64(round))
		sys.Refine(users.Inspect(batch))
		after = sys.Evaluate(pool).F1()
		if after == 1 {
			break
		}
	}
	t.Logf("refinement: %.3f → %.3f", before, after)
	if after < before {
		t.Errorf("refinement decreased F: %.3f → %.3f", before, after)
	}
	if after < 0.99 {
		t.Errorf("five rounds should approach perfect F, got %.3f", after)
	}
	if sys.Overrides() == 0 {
		t.Error("no overrides recorded")
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.Normalize()
	if o.EmbeddingDim != 128 || o.K != 20 {
		t.Errorf("defaults wrong: %+v", o)
	}
	custom := Options{EmbeddingDim: 64, Sigma: 0.9}.Normalize()
	if custom.EmbeddingDim != 64 || custom.Sigma != 0.9 {
		t.Error("explicit options overridden")
	}
}

func TestSetThresholdsValidation(t *testing.T) {
	sys, _ := buildTrained(t, "Synthetic", 30)
	if err := sys.SetThresholds(Thresholds{Sigma: 2, Delta: 1, K: 5}); err == nil {
		t.Error("sigma > 1 accepted")
	}
	if err := sys.SetThresholds(Thresholds{Sigma: 0.5, Delta: 1, K: 0}); err == nil {
		t.Error("k = 0 accepted")
	}
	if err := sys.SetThresholds(Thresholds{Sigma: 0.7, Delta: 1.1, K: 8}); err != nil {
		t.Error(err)
	}
	th := sys.Thresholds()
	if th.Sigma != 0.7 || th.Delta != 1.1 || th.K != 8 {
		t.Errorf("thresholds not installed: %+v", th)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Error("nil inputs accepted")
	}
	if _, err := NewFromGraphs(nil, nil, Options{}); err == nil {
		t.Error("nil graphs accepted")
	}
}

// TestBlockingRecall: the candidate inverted index must cover nearly all
// ground-truth matches — blocking that drops true pairs silently caps
// recall (the paper notes blocking "may miss matches" and compensates
// with data-partitioned parallelism; our neighborhood index must stay
// sound on the generated data).
func TestBlockingRecall(t *testing.T) {
	cfg, _ := dataset.ByName("Synthetic", 80)
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(d.DB, d.G, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	covered, total := 0, 0
	for _, a := range d.Truth {
		if !a.Match {
			continue
		}
		total++
		for _, v := range sys.Candidates(a.Pair.U) {
			if v == a.Pair.V {
				covered++
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("no truth matches")
	}
	if float64(covered)/float64(total) < 0.95 {
		t.Errorf("blocking covers only %d/%d true matches", covered, total)
	}
}
