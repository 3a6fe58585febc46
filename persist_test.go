package her

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"

	"her/internal/lstm"
	"her/internal/nn"
)

// TestSaveLoadModels: a freshly built system loaded with saved models
// makes exactly the same decisions as the trained original.
func TestSaveLoadModels(t *testing.T) {
	sys, pairs := incrementalFixture(t)
	u, _ := sys.Mapping.VertexOf("product", 0)
	want := sys.VPairVertex(u)
	if len(want) != 1 {
		t.Fatalf("setup: %v", want)
	}
	// Record an override and an Mv verdict so refinement state round
	// trips too.
	sys.Refine([]Feedback{{Pair: Pair{U: u, V: want[0].V}, IsMatch: true}})
	wantScore := sys.MrhoScore(pairs[0].A, pairs[0].B)

	var buf bytes.Buffer
	if err := sys.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh, untrained system over the same inputs.
	fresh, err := New(sys.DB, sys.G, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.VPairVertex(u); len(got) == len(want) {
		// Untrained systems usually behave differently; not a failure
		// if they coincide, but the loaded one must match exactly below.
		t.Log("untrained system coincidentally agrees")
	}
	if err := fresh.LoadModels(&buf); err != nil {
		t.Fatal(err)
	}
	got := fresh.VPairVertex(u)
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("loaded system differs: %v vs %v", got, want)
	}
	if fresh.Overrides() != sys.Overrides() {
		t.Errorf("overrides %d vs %d", fresh.Overrides(), sys.Overrides())
	}
	if s := fresh.MrhoScore(pairs[0].A, pairs[0].B); s != wantScore {
		t.Errorf("metric score %f vs %f", s, wantScore)
	}
	th := fresh.Thresholds()
	if th != sys.Thresholds() {
		t.Errorf("thresholds %+v vs %+v", th, sys.Thresholds())
	}
}

// TestLoadModelsWithRetiredOptions: a version-3 file written when
// Options still carried MetricHidden, LSTMEmbed, LSTMHidden and
// MinSharedTokens loads, its trained models intact — gob skips fields
// the decoding type no longer has, and the constants that replaced
// those fields equal their old defaults.
func TestLoadModelsWithRetiredOptions(t *testing.T) {
	sys, pairs := incrementalFixture(t)
	u, _ := sys.Mapping.VertexOf("product", 0)
	want := sys.VPairVertex(u)
	var buf bytes.Buffer
	if err := sys.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	var f modelFile
	if err := gob.NewDecoder(&buf).Decode(&f); err != nil {
		t.Fatal(err)
	}
	type options struct {
		EmbeddingDim                        int
		Sigma, Delta                        float64
		K, MaxPathLen                       int
		MetricHidden, LSTMEmbed, LSTMHidden int
		Seed                                int64
		MinSharedTokens                     int
	}
	old := struct {
		Version   int
		Options   options
		HasMetric bool
		Metric    nn.Snapshot
		HasLM     bool
		LM        lstm.Snapshot
		Overrides []overrideEntry
	}{
		Version: f.Version,
		Options: options{
			EmbeddingDim: f.Options.EmbeddingDim, Sigma: f.Options.Sigma, Delta: f.Options.Delta,
			K: f.Options.K, MaxPathLen: f.Options.MaxPathLen,
			MetricHidden: 64, LSTMEmbed: 16, LSTMHidden: 32,
			Seed: f.Options.Seed, MinSharedTokens: 2,
		},
		HasMetric: f.HasMetric, Metric: f.Metric,
		HasLM: f.HasLM, LM: f.LM,
		Overrides: f.Overrides,
	}
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(old); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(sys.DB, sys.G, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadModels(&legacy); err != nil {
		t.Fatalf("a file with the retired options does not load: %v", err)
	}
	if got := fresh.VPairVertex(u); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("loaded system answers %v, the trained one %v", got, want)
	}
	if a, b := fresh.MrhoScore(pairs[0].A, pairs[0].B), sys.MrhoScore(pairs[0].A, pairs[0].B); a != b {
		t.Fatalf("metric score %f after load, %f trained", a, b)
	}
}

// TestLoadModelsKeepsThresholds: thresholds that Normalize would treat
// as unset (σ = 0, δ = 0) load as they were saved, and the loaded
// System saves the same bytes again.
func TestLoadModelsKeepsThresholds(t *testing.T) {
	sys, _, _ := concurrencyFixture(t)
	want := Thresholds{Sigma: 0, Delta: 0, K: 5}
	if err := sys.SetThresholds(want); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := sys.SaveModels(&saved); err != nil {
		t.Fatal(err)
	}
	fresh, _, _ := concurrencyFixture(t)
	if err := fresh.LoadModels(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Thresholds(); got != want {
		t.Errorf("loaded thresholds %+v, saved %+v", got, want)
	}
	var again bytes.Buffer
	if err := fresh.SaveModels(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved.Bytes()) {
		t.Errorf("second save differs from the loaded file (%d vs %d bytes)", again.Len(), saved.Len())
	}
	// Saved thresholds SetThresholds would refuse are refused on load.
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(modelFile{Version: modelFileVersion, Options: Options{Sigma: 2, K: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadModels(&bad); err == nil || !strings.Contains(err.Error(), "invalid thresholds") {
		t.Errorf("σ = 2 in a model file: err = %v", err)
	}
	if got := fresh.Thresholds(); got != want {
		t.Errorf("a refused model file changed the thresholds to %+v", got)
	}
}

// TestSaveModelsByteDeterministic pins the reproducibility contract on
// the model file: saving identical learned state repeatedly must
// produce byte-identical output (gob-encoded maps would not — their
// entries serialize in randomized iteration order, which is why
// modelFile stores sorted slices).
func TestSaveModelsByteDeterministic(t *testing.T) {
	sys, _ := incrementalFixture(t)
	u, _ := sys.Mapping.VertexOf("product", 0)
	want := sys.VPairVertex(u)
	if len(want) == 0 {
		t.Fatal("setup: no matches")
	}
	// Populate both refinement maps with several entries so an
	// order-dependent encoding would actually vary. Feedback targets
	// must be real graph vertices, so grow the target graph first.
	fb := []Feedback{{Pair: Pair{U: u, V: want[0].V}, IsMatch: true}}
	for i := 0; i < 6; i++ {
		v := sys.AddGraphVertex("product")
		fb = append(fb, Feedback{Pair: Pair{U: u, V: v}, IsMatch: i%2 == 0})
	}
	sys.Refine(fb)

	var first bytes.Buffer
	if err := sys.SaveModels(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := sys.SaveModels(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("save %d differs from first save: model files must be byte-deterministic", i+2)
		}
	}

	// And the deterministic encoding still round-trips.
	fresh, err := New(sys.DB, sys.G, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadModels(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fresh.Overrides() != sys.Overrides() {
		t.Errorf("overrides %d vs %d after round trip", fresh.Overrides(), sys.Overrides())
	}
}

func TestLoadModelsErrors(t *testing.T) {
	sys, _ := incrementalFixture(t)
	if err := sys.LoadModels(strings.NewReader("garbage")); err == nil {
		t.Error("garbage input should fail")
	}
	// A version-2 file, the last to carry an M_v label-pair table, is
	// refused and leaves the system as it was.
	type mvEntry struct {
		A, B  string
		Score float64
	}
	var v2 bytes.Buffer
	if err := gob.NewEncoder(&v2).Encode(struct {
		Version int
		MvTable []mvEntry
	}{Version: 2, MvTable: []mvEntry{{A: "alpha", B: "omega", Score: 1}}}); err != nil {
		t.Fatal(err)
	}
	gen := sys.Generation()
	if err := sys.LoadModels(&v2); err == nil || !strings.Contains(err.Error(), "unsupported model file version 2") {
		t.Errorf("version-2 file: err = %v", err)
	}
	if sys.Generation() != gen {
		t.Error("a refused model file reset the system")
	}
	// Dimension mismatch: save from a 128-dim system, load into 32-dim...
	var buf bytes.Buffer
	if err := sys.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := New(sys.DB, sys.G, Options{Seed: 1, EmbeddingDim: 32})
	if err != nil {
		t.Fatal(err)
	}
	// The saved options carry EmbeddingDim 128, so the metric fits after
	// options are restored; loading must succeed and adopt 128.
	if err := other.LoadModels(&buf); err != nil {
		t.Fatal(err)
	}
	if other.Options().EmbeddingDim != sys.Options().EmbeddingDim {
		t.Errorf("options not restored: %+v", other.Options())
	}
	// Inference must actually work after the encoder rebuild.
	u, _ := other.Mapping.VertexOf("product", 0)
	other.VPairVertex(u)
}

// TestPersistWithMetricsRegistry: the gob envelope must not serialize
// the runtime metrics registry (a struct with no exported fields), a
// save from an instrumented system must succeed, and a load must keep
// the receiving System's registry wired to the rebuilt matcher.
func TestPersistWithMetricsRegistry(t *testing.T) {
	sys, _ := incrementalFixture(t)
	var buf bytes.Buffer
	if err := sys.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}

	reg := NewMetrics()
	other, err := New(sys.DB, sys.G, Options{Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.LoadModels(&buf); err != nil {
		t.Fatal(err)
	}
	if other.Metrics() != reg {
		t.Fatal("LoadModels dropped the live metrics registry")
	}
	other.APair()
	if reg.Counter("her_core_paramatch_calls_total").Value() == 0 {
		t.Error("matcher not wired to the registry after LoadModels")
	}

	// And the instrumented system itself must be able to save.
	var buf2 bytes.Buffer
	if err := other.SaveModels(&buf2); err != nil {
		t.Fatalf("saving from an instrumented system: %v", err)
	}
}
