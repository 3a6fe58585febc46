package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// tiny is the smoke tier: every workload on the same 20-entity dataset
// with a short training, for a fraction of a second.
var tiny = scale{
	entities:     map[string]int{"vpair_cold": 20, "vpair_hot": 20, "apair_batch": 20, "vpair_rw": 20},
	pairReps:     1,
	rankerSample: 20,
	rankerEpochs: 2,
	setupReps:    2,
	checkSample:  8,
	probeSample:  8,
}

const tinySeed = 3

// tinyModels trains once for all smoke runs: they share the dataset.
var tinyModels = sync.OnceValues(func() (trained, error) {
	return trainModels(datasetConfig(20), tiny)
})

func smoke(t *testing.T, workload string, trace bool) (*outcome, result, []span) {
	t.Helper()
	models, err := tinyModels()
	if err != nil {
		t.Fatal(err)
	}
	opt := options{workload: workload, seed: tinySeed, seconds: 0.4, trace: trace, sc: tiny,
		spans: filepath.Join(t.TempDir(), "spans.json")}
	out, err := measure(opt, models)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.result(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Errorf("%s: correct %t, %d attempted, %d failed, invalid %v", workload, res.Correct, res.Attempted, res.Failed, out.invalid)
	}
	var spans []span
	if trace {
		b, err := os.ReadFile(opt.spans)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatal(err)
		}
	}
	return out, res, spans
}

// declaredNames is every metric name either list declares.
func declaredNames() map[string]bool {
	names := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		names[m.name] = true
	}
	return names
}

func TestSmokeUntraced(t *testing.T) {
	declared := declaredNames()
	for _, w := range workloadNames {
		out, res, _ := smoke(t, w, false)
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics reported, %d declared", w, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if res.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, m.name, res.Metrics[m.name].Value)
			}
		}
		for name := range out.metrics {
			if !declared[name] {
				t.Errorf("%s sets %s, which no list declares", w, name)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	names := workloadNames
	if testing.Short() {
		names = []string{"vpair_rw"}
	}
	declared := declaredNames()
	set := map[string]bool{}
	for _, w := range names {
		out, res, spans := smoke(t, w, true)
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics reported, %d declared", w, len(res.Metrics), len(perLayer))
		}
		for name := range out.metrics {
			set[name] = true
			if !declared[name] {
				t.Errorf("%s sets %s, which no list declares", w, name)
			}
		}
		if got := res.Metrics["loadgen.error_ratio"].Value; got != 0 {
			t.Errorf("%s: error ratio %v", w, got)
		}

		// The span file tiles: children inside parents, and the self times
		// add up to the roots.
		if len(spans) == 0 {
			t.Fatalf("%s: empty span file", w)
		}
		if err := checkTiling(spans); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		self, roots := selfTimes(spans)
		var sum int64
		for _, d := range self {
			sum += d
		}
		if sum != roots {
			t.Errorf("%s: self times sum to %d ns, roots to %d ns", w, sum, roots)
		}
	}
	if testing.Short() {
		return
	}
	// Every per-layer metric is measured by at least one workload.
	for _, m := range perLayer {
		if !set[m.name] {
			t.Errorf("no workload measures %s", m.name)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the program's own
// declarations equal.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var f struct {
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, -seconds defaults to %v", f.RunSeconds, defaultSeconds)
	}
	compare := func(kind string, got []jsonMetric, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			lower := g.Better == "lower"
			if kind == "per_layer" {
				lower = m.lower // the program does not use a layer metric's direction
			}
			if g.Name != m.name || g.Unit != m.unit || g.Bound != m.bound || lower != m.lower {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program has %+v", kind, i, g, m)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd)
	compare("per_layer", f.PerLayer, perLayer)
}
