// Command benchmark is the repository's benchmark (see README.md in
// this directory and BENCHMARK.json at the root): four workloads over a
// trained her.System, each reporting the same named end-to-end metrics
// untraced and the same named per-layer metrics traced.
//
//	go run . -workload vpair_cold -seed 1
//	go run . -workload vpair_cold -seed 1 -trace 1
//	go run . -repeat 2 -workload vpair_hot
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"her"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // span file of a traced run
	sc       scale
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run trains, then measures one workload. Training happens once, first;
// every system built afterwards restores the trained models.
func run(opt options) (*outcome, error) {
	if _, ok := workloads[opt.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames, ", "))
	}
	t, err := trainModels(datasetConfig(opt.sc.entities[opt.workload]), opt.sc)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return measure(opt, t)
}

// measure runs one workload over trained models: untraced for the
// end-to-end metrics, or traced for the per-layer ones.
func measure(opt options, t trained) (*outcome, error) {
	workload := workloads[opt.workload]
	rc := runCfg{workload: opt.workload, seed: opt.seed, seconds: opt.seconds, sc: opt.sc, models: t.models, setupReps: opt.sc.setupReps}
	out := newOutcome()
	if !opt.trace {
		if err := workload(rc, out); err != nil {
			return nil, err
		}
	} else {
		// An untraced pass first, for the tracing overhead; then the
		// traced pass, with the metrics registry installed as well.
		base := newOutcome()
		rc.setupReps, rc.seconds = 1, opt.seconds*0.4
		if err := workload(rc, base); err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		runtime.GC()
		rc.seconds, rc.checkAll = opt.seconds*0.6, true
		rc.tr, rc.reg = newTracer(), her.NewMetrics()
		if err := workload(rc, out); err != nil {
			return nil, err
		}
		out.set("trace.overhead_ratio", out.metrics["throughput_ops_s"]/base.metrics["throughput_ops_s"], 0)
		out.set("loadgen.error_ratio", float64(out.failed)/float64(max(out.attempted, 1)), out.attempted)
		out.set("learn.train_path_model_s", t.pathS, 1)
		out.set("learn.train_ranker_s", t.rankerS, 1)
		if err := probe(rc, out); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		if err := checkTiling(rc.tr.spans); err != nil {
			out.invalidf("spans do not tile: %v", err)
		}
		if err := writeSpans(opt.spans, rc.tr.spans); err != nil {
			return nil, err
		}
	}
	out.set("train_s", t.pathS+t.rankerS, 1)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.set("runtime.peak_rss_mb", rss, 1)
	return out, nil
}

// declared is the metric list a run of this mode reports.
func (opt options) declared() []metric {
	if opt.trace {
		return perLayer
	}
	return endToEnd
}

// result checks that the run reported what its mode declares and
// assembles the result line. An end-to-end metric the run did not set is
// an error; a per-layer metric the workload has no use for reads 0.
func (opt options) result(out *outcome) (result, error) {
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range opt.declared() {
		v, ok := out.metrics[m.name]
		if !ok && !opt.trace {
			return res, fmt.Errorf("workload %s did not report %s", opt.workload, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("workload %s: %s is %v", opt.workload, m.name, v)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	res.Correct = out.attempted > 0 && out.failed == 0 && len(out.invalid) == 0
	return res, nil
}

// report prints every declared metric by name with its unit and sample
// count, then the result line.
func report(opt options, out *outcome) error {
	res, err := opt.result(out)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d seconds %g trace %t  (%s, GOMAXPROCS %d, NumCPU %d, %d entities)\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, runtime.Version(), nproc, runtime.NumCPU(), opt.sc.entities[opt.workload])
	for _, m := range opt.declared() {
		line := fmt.Sprintf("%-34s %16.6f %s", m.name, res.Metrics[m.name].Value, m.unit)
		if n := out.samples[m.name]; n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	for _, why := range out.invalid {
		fmt.Println("INVALID:", why)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// repeatCheck runs each workload n times in a process of its own and
// compares every end-to-end metric of the later runs with the first:
// it fails when one is worse or better by more than its bound, or when
// a run was not correct.
func repeatCheck(opt options, names []string, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var bad []string
	for _, name := range names {
		var runs []result
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds))
			cmd.Stderr = os.Stderr
			b, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s run %d: result line: %w", name, i+1, err)
			}
			if !r.Correct {
				bad = append(bad, fmt.Sprintf("%s run %d: not correct (%d of %d failed)", name, i+1, r.Failed, r.Attempted))
			}
			runs = append(runs, r)
		}
		for _, m := range endToEnd {
			first := runs[0].Metrics[m.name].Value
			line := fmt.Sprintf("%-12s %-18s %14.6f", name, m.name, first)
			for i, r := range runs[1:] {
				v := r.Metrics[m.name].Value
				diff := (v - first) / first
				line += fmt.Sprintf(" %14.6f (%+.1f%%)", v, 100*diff)
				if math.Abs(diff) > m.bound {
					bad = append(bad, fmt.Sprintf("%s %s: run %d differs from run 1 by %+.1f%%, bound %.0f%%", name, m.name, i+2, 100*diff, 100*m.bound))
				}
			}
			fmt.Printf("%s %s, bound %.0f%%\n", line, m.unit, 100*m.bound)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("repeat check failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

func main() {
	opt := options{sc: full}
	var trace, repeat int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&opt.seconds, "seconds", defaultSeconds, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics and writes the span file")
	flag.StringVar(&opt.spans, "spans", "", "span file of a traced run (default .bench_build/spans-<workload>.json)")
	flag.IntVar(&repeat, "repeat", 0, "run the workload (all of them without -workload) this many times and compare the runs")
	flag.Parse()
	opt.trace = trace != 0
	if opt.spans == "" {
		opt.spans = ".bench_build/spans-" + opt.workload + ".json"
	}
	if flag.NArg() > 0 || opt.seconds <= 0 || (opt.workload == "" && repeat == 0) {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	if repeat > 0 {
		names := workloadNames
		if opt.workload != "" {
			names = []string{opt.workload}
		}
		err = repeatCheck(opt, names, repeat)
	} else {
		var out *outcome
		if out, err = run(opt); err == nil {
			err = report(opt, out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
