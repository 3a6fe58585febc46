package her

import (
	"strings"
	"testing"

	"her/internal/dataset"
)

// TestSystemMetricsIntegration exercises the Options-level hook: one
// registry collects core phase metrics from the sequential matcher and
// BSP metrics from a parallel run, and the results are unchanged
// relative to an uninstrumented system.
func TestSystemMetricsIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two full systems; skipped in -short")
	}
	cfg, ok := dataset.ByName("Synthetic", 40)
	if !ok {
		t.Fatal("unknown dataset")
	}
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	build := func(opts Options) *System {
		sys, err := New(d.DB, d.G, opts)
		if err != nil {
			t.Fatal(err)
		}
		var training []PathPair
		for i := 0; i < 10; i++ {
			training = append(training, d.PathPairs...)
		}
		if err := sys.TrainPathModel(training, 0); err != nil {
			t.Fatal(err)
		}
		if err := sys.TrainRanker(60, 10); err != nil {
			t.Fatal(err)
		}
		if err := sys.SetThresholds(Thresholds{Sigma: 0.8, Delta: 1.6, K: 10}); err != nil {
			t.Fatal(err)
		}
		return sys
	}

	reg := NewMetrics()
	inst := build(Options{Seed: 7, Metrics: reg})
	plain := build(Options{Seed: 7})

	if inst.Metrics() != reg {
		t.Fatal("Metrics() accessor lost the registry")
	}
	if plain.Metrics() != nil {
		t.Fatal("uninstrumented system reports a registry")
	}

	a := inst.APair()
	if b := plain.APair(); len(a) != len(b) {
		t.Errorf("instrumentation changed APair: %d vs %d", len(a), len(b))
	}
	if reg.Counter("her_core_paramatch_calls_total").Value() == 0 {
		t.Error("sequential matcher recorded no core metrics")
	}
	if reg.Histogram("her_core_candgen_seconds", nil).Count() == 0 {
		t.Error("no candidate-generation observations")
	}

	_, st, err := inst.APairParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.WallTime <= 0 || len(st.SuperstepDurations) != st.Supersteps {
		t.Errorf("wall accounting: %v / %v", st.WallTime, st.SuperstepDurations)
	}
	if reg.Histogram("her_bsp_superstep_seconds", nil).Count() == 0 {
		t.Error("parallel run recorded no superstep durations")
	}

	// SetThresholds resets the matcher; the new one must stay wired to
	// the registry.
	before := reg.Counter("her_core_paramatch_calls_total").Value()
	if err := inst.SetThresholds(Thresholds{Sigma: 0.8, Delta: 1.6, K: 8}); err != nil {
		t.Fatal(err)
	}
	inst.APair()
	if reg.Counter("her_core_paramatch_calls_total").Value() == before {
		t.Error("matcher reset dropped the metrics wiring")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"her_core_paramatch_seconds", "her_bsp_superstep_seconds", "her_bsp_candidate_pairs_total"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestSpanTracingPublicSurface smoke-tests the re-exported span API.
func TestSpanTracingPublicSurface(t *testing.T) {
	root := StartSpan("request")
	root.Child("phase").End()
	root.End()
	n := root.Export()
	if n.Name != "request" || len(n.Children) != 1 {
		t.Errorf("span tree = %+v", n)
	}
}
