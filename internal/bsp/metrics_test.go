package bsp

import (
	"math/rand"
	"strings"
	"testing"

	"her/internal/core"
	"her/internal/obs"
	"her/internal/ranking"
)

// TestRunRecordsObservability checks that both schedulers fill the
// Stats fields and mirror them into a registry.
func TestRunRecordsObservability(t *testing.T) {
	for _, tc := range []struct {
		mode string
		seed int64
		run  func(*Engine, Config) (Stats, error)
	}{
		{"bsp", 11, func(e *Engine, c Config) (Stats, error) { _, st, err := e.Run(nil, nil, c); return st, err }},
		{"async", 13, func(e *Engine, c Config) (Stats, error) { _, st, err := e.RunAsync(nil, nil, c); return st, err }},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			gd := randomGraph(rng, 12, 24, []string{"A", "B"}, []string{"x"})
			g := randomGraph(rng, 12, 24, []string{"A", "B"}, []string{"x"})
			p := core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.5, K: 3}
			eng, err := NewEngine(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
			if err != nil {
				t.Fatal(err)
			}
			r := obs.NewRegistry()
			eng.Metrics = r
			st, err := tc.run(eng, Config{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(st.SuperstepDurations) != st.Supersteps {
				t.Errorf("%d durations for %d supersteps", len(st.SuperstepDurations), st.Supersteps)
			}
			if tc.mode == "async" && st.Supersteps != 1 {
				t.Errorf("async Supersteps = %d, want one logical round", st.Supersteps)
			}
			if st.WallTime <= 0 {
				t.Errorf("WallTime = %v", st.WallTime)
			}
			if len(st.PerWorkerCalls) != st.Workers {
				t.Fatalf("PerWorkerCalls = %v", st.PerWorkerCalls)
			}
			sum := 0
			for _, c := range st.PerWorkerCalls {
				sum += c
			}
			if sum != st.Calls {
				t.Errorf("per-worker calls %d != total %d", sum, st.Calls)
			}
			if got := r.Histogram("her_bsp_superstep_seconds", nil).Count(); got != int64(st.Supersteps) {
				t.Errorf("superstep observations = %d, want %d", got, st.Supersteps)
			}
			if got := r.Histogram(`her_bsp_run_seconds{mode="`+tc.mode+`"}`, nil).Count(); got != 1 {
				t.Errorf("run observations = %d", got)
			}
			if got := r.Counter("her_bsp_candidate_pairs_total").Value(); got != int64(st.CandidatePairs) {
				t.Errorf("candidate pairs metric = %d, want %d", got, st.CandidatePairs)
			}
			if got := r.Counter(`her_bsp_messages_total{kind="request"}`).Value(); got != int64(st.Requests) {
				t.Errorf("request messages metric = %d, want %d", got, st.Requests)
			}
			if st.Invalidations == 0 {
				t.Fatal("the instance sends no invalidation: the counter check below would be vacuous")
			}
			inv := r.Counter(`her_bsp_messages_total{kind="invalidation"}`).Value()
			req := r.Counter(`her_bsp_messages_total{kind="request"}`).Value()
			if inv+req != int64(st.Invalidations+st.Requests) {
				t.Errorf("invalidation %d + request %d messages metric, want %d + %d", inv, req, st.Invalidations, st.Requests)
			}
			// Worker matchers share the registry: core phase counters populate.
			if st.Calls > 0 && r.Counter("her_core_paramatch_calls_total").Value() == 0 {
				t.Error("worker matchers did not record core metrics")
			}
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.String(), "# TYPE her_bsp_superstep_seconds histogram") {
				t.Errorf("exposition missing superstep histogram:\n%s", b.String())
			}
		})
	}
}

// TestRunWithoutMetricsUnchanged guards the disabled path: a nil
// registry must not alter results or panic anywhere.
func TestRunWithoutMetricsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gd := randomGraph(rng, 10, 20, []string{"A", "B"}, []string{"x"})
	g := randomGraph(rng, 10, 20, []string{"A", "B"}, []string{"x"})
	p := core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 1, Delta: 0.5, K: 3}
	eng, err := NewEngine(gd, g, ranking.NewRanker(gd, nil, 3), ranking.NewRanker(g, nil, 3), p)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := eng.Run(nil, nil, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng.Metrics = obs.NewRegistry()
	instrumented, _, err := eng.Run(nil, nil, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(plain, instrumented) {
		t.Errorf("metrics changed results: %v vs %v", plain, instrumented)
	}
}
