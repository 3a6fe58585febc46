package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"her"
	"her/internal/dataset"
	"her/internal/server"
)

// scale fixes the dataset sizes and the training recipe. full is what
// BENCHMARK.json measures; the smoke test runs tiny.
type scale struct {
	entities     map[string]int // matchable entities, per workload
	pairReps     int            // copies of the dataset's path pairs M_ρ trains on
	rankerSample int            // TrainRanker arguments
	rankerEpochs int
	setupReps    int // fewest serving set-ups per untraced run; setup_s is their median
	checkSample  int // requested tuples checked against the oracle
	probeSample  int // tuples the traced run replays stage by stage
}

// The full recipe is cmd/herbench's: path pairs ×20, TrainRanker(120,
// 10), σ=0.8 δ=1.6 k=15.
var full = scale{
	entities:     map[string]int{"vpair_cold": 450, "vpair_hot": 100, "apair_batch": 40, "vpair_rw": 100},
	pairReps:     20,
	rankerSample: 120,
	rankerEpochs: 10,
	setupReps:    3,
	checkSample:  64,
	probeSample:  128,
}

var thresholds = her.Thresholds{Sigma: 0.8, Delta: 1.6, K: 15}

// nproc bounds client goroutines, shards and BSP workers alike.
var nproc = runtime.GOMAXPROCS(0)

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// modelSeed is cmd/herbench's Options.Seed.
const modelSeed = 7

// datasetConfig is the Synthetic generator at the workload's size. The
// catalogue and the models trained on it are the same in every run:
// -seed varies the traffic, not the data. With the dataset and model
// seeds derived from -seed as well, throughput differed between seeds
// by 12 % (vpair_cold) to 45 % (vpair_rw) of its median, more than any
// regression bound, because the matcher's cost depends on which
// near-duplicates the generator happens to plant.
func datasetConfig(entities int) her.DatasetConfig {
	return dataset.Scale(dataset.Synthetic(), entities)
}

// trained is the saved models of one training and what it cost.
type trained struct {
	models         []byte
	pathS, rankerS float64 // TrainPathModel, TrainRanker
}

// trainModels trains M_ρ and M_r on a system over cfg's dataset. A run
// trains once and restores the models into every system it builds
// afterwards, as herserve -models does.
func trainModels(cfg her.DatasetConfig, sc scale) (t trained, err error) {
	d, err := her.GenerateCustomDataset(cfg)
	if err != nil {
		return t, err
	}
	sys, err := her.New(d.DB, d.G, her.Options{Seed: modelSeed})
	if err != nil {
		return t, err
	}
	var training []her.PathPair
	for i := 0; i < sc.pairReps; i++ {
		training = append(training, d.PathPairs...)
	}
	t0 := time.Now()
	if err := sys.TrainPathModel(training, 0); err != nil {
		return t, err
	}
	t.pathS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := sys.TrainRanker(sc.rankerSample, sc.rankerEpochs); err != nil {
		return t, err
	}
	t.rankerS = time.Since(t0).Seconds()
	if err := sys.SetThresholds(thresholds); err != nil {
		return t, err
	}
	var buf bytes.Buffer
	if err := sys.SaveModels(&buf); err != nil {
		return t, err
	}
	t.models = buf.Bytes()
	return t, nil
}

// key names one tuple; keys are the unit every request stream indexes.
type key struct {
	rel string
	id  int
}

// env is one built system ready to measure.
type env struct {
	d    *her.Dataset
	sys  *her.System
	srv  *server.Server // nil when the workload does not serve
	keys []key          // every tuple of every relation at build time
}

func (e *env) close() {
	if e != nil && e.srv != nil {
		e.srv.Close()
	}
}

// setupSpec says what a workload's set-up builds besides the system.
type setupSpec struct {
	cfg    her.DatasetConfig
	models []byte
	reg    *her.MetricsRegistry // nil in untraced runs
	mirror bool                 // host the direct-shaped "mirror" view
	serve  bool                 // build the sharded server
	warm   func(*env) error     // warm-up, counted in set-up time
}

// build is one set-up: generate, her.New, restore the models, host the
// view, build the sharded engines, warm up.
func (s setupSpec) build() (*env, error) {
	d, err := her.GenerateCustomDataset(s.cfg)
	if err != nil {
		return nil, err
	}
	sys, err := her.New(d.DB, d.G, her.Options{Metrics: s.reg})
	if err != nil {
		return nil, err
	}
	if err := sys.LoadModels(bytes.NewReader(s.models)); err != nil {
		return nil, err
	}
	e := &env{d: d, sys: sys}
	for _, rel := range d.DB.RelationNames() {
		for _, tp := range d.DB.Relation(rel).Tuples {
			e.keys = append(e.keys, key{rel, tp.ID})
		}
	}
	if s.mirror {
		if err := sys.AddViewDef(mirrorViewDef(d.DB)); err != nil {
			return nil, err
		}
	}
	if s.serve {
		srv, err := server.NewSharded(sys, nproc)
		if err != nil {
			return nil, err
		}
		// The flight recorder is off: the benchmark does its own tracing,
		// from outside.
		srv.Recorder = nil
		e.srv = srv
	}
	if s.warm != nil {
		if err := s.warm(e); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// setupBudget is how long buildTimed keeps repeating a set-up that is
// over quickly, so that a set-up of milliseconds is a median of many.
const (
	setupBudget  = time.Second
	setupRepsMax = 15
)

// buildTimed sets up at least reps times, keeps the last env and
// returns the median set-up time and how many it took. Earlier systems
// are closed and collected before the next one is timed.
func (s setupSpec) buildTimed(reps int) (*env, float64, int, error) {
	var e *env
	var times []float64
	start := time.Now()
	for i := 0; i < reps || (reps > 1 && i < setupRepsMax && time.Since(start) < setupBudget); i++ {
		e.close()
		e = nil
		runtime.GC()
		t0 := time.Now()
		next, err := s.build()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		e = next
	}
	sort.Float64s(times)
	return e, times[len(times)/2], len(times), nil
}

// mirrorViewDef is cmd/herbench's non-direct view: direct-shaped rules
// under another name, so requests addressed to it run the whole
// per-view path (own extraction, matcher, delta log and engine) over
// the same matching work.
func mirrorViewDef(db *her.Database) *her.ViewDef {
	d := her.NewViewDef("mirror")
	for _, rel := range db.RelationNames() {
		d.Vertex(rel).ProjectAll()
	}
	for _, rel := range db.RelationNames() {
		for _, fk := range db.Relation(rel).Schema.ForeignKeys {
			d.Edge(fk.Attr, rel, fk.Attr)
		}
	}
	return d
}
