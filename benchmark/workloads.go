package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"her"
	"her/internal/feq"
)

// Constants of the vpair_cold open phase. They were fixed once, on the
// machine the benchmark was defined on, so that the open phase runs at
// about half the closed phase's throughput; they are never derived at
// run time.
const (
	coldRateRPS     = 15.0
	coldSLO         = 250 * time.Millisecond
	coldClosedShare = 0.4
)

// hotThin is every how many requests vpair_hot keeps a latency sample
// and, traced, a span: it serves millions in a run.
const hotThin = 128

// runCfg is one measurement of one workload.
type runCfg struct {
	workload  string
	seed      int64
	seconds   float64
	sc        scale
	models    []byte
	setupReps int
	tr        *tracer              // nil: untraced
	reg       *her.MetricsRegistry // nil: untraced
	checkAll  bool                 // check every requested tuple, not a sample
}

// outcome is what a measurement reports.
type outcome struct {
	metrics   map[string]float64
	samples   map[string]int // sample count behind a timing, for the printout
	attempted int
	failed    int
	invalid   []string // why the run does not count, if it does not
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, samples int) {
	o.metrics[name] = v
	if samples > 0 {
		o.samples[name] = samples
	}
}

func (o *outcome) invalidf(format string, args ...any) {
	o.invalid = append(o.invalid, fmt.Sprintf(format, args...))
}

// usage is a reading of the process's CPU time and heap counters, and
// in a traced run of the serving layers' registry series.
type usage struct {
	cpu time.Duration
	mem runtime.MemStats
	ser series
}

func (rc runCfg) readUsage() usage {
	u := usage{ser: readSeries(rc.reg)}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&u.mem)
	return u
}

// setUsage reports what the timed region between two readings cost;
// writes is how many of its operations were writes.
func (o *outcome) setUsage(before, after usage, ops, writes int) {
	// What the system holds once the garbage is gone. The caller still
	// holds the system it measured.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	o.set("heap_live_mb", float64(live.HeapAlloc)/(1<<20), 1)
	o.setSeries(before.ser, after.ser, writes)
	o.set("cpu_ms_per_op", millis(after.cpu-before.cpu)/float64(ops), ops)
	o.set("runtime.num_gc", float64(after.mem.NumGC-before.mem.NumGC), 0)
	o.set("runtime.gc_pause_total_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, 0)
	o.set("runtime.alloc_bytes_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/float64(ops), ops)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// setLatency reports the percentiles of the operations' latencies. The
// smoke tier's handful of samples still get a value; the sample count
// printed beside it says how far to trust it.
func (o *outcome) setLatency(lat []time.Duration) {
	slices.Sort(lat)
	o.set("latency_p50_ms", millis(quantile(lat, 0.50)), len(lat))
	o.set("latency_p90_ms", millis(quantile(lat, 0.90)), len(lat))
	o.set("loadgen.latency_p99_ms", millis(quantile(lat, 0.99)), len(lat))
}

// drain collects and clears the clients' latency samples, request
// counts and failure counts.
func drain(clients []*client) (lat []time.Duration, ops, failed int) {
	for _, cl := range clients {
		lat = append(lat, cl.lat...)
		ops += cl.ops
		failed += cl.fail
		cl.lat, cl.ops, cl.fail = cl.lat[:0], 0, 0
	}
	return lat, ops, failed
}

// wantHitRatio invalidates a traced run whose result-cache hit ratio is
// not the one the workload is built to have: such a run measured other
// layers than it says. Untraced runs have no registry to ask.
func (rc runCfg) wantHitRatio(o *outcome, want float64) {
	if got := o.metrics["shard.cache_hit_ratio"]; rc.reg != nil && !feq.Eq(got, want) {
		o.invalidf("result-cache hit ratio %v, want %v", got, want)
	}
}

func deadlineIn(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// checkKeys re-issues the given requests outside the timed region and
// compares each answer with the sequential oracle on the same system at
// its final generation: sys.VPair, or the view's VPair for a request
// addressed to a view. urls[i] asks for keys[i%len(keys)].
func (e *env) checkKeys(cl *client, idx []int, o *outcome) error {
	for _, i := range idx {
		k := e.keys[i%len(e.keys)]
		view := ""
		if i >= len(e.keys) {
			view = "mirror"
		}
		vh, err := e.sys.View(view)
		if err != nil {
			return err
		}
		want, err := vh.VPair(k.rel, k.id)
		if err != nil {
			return err
		}
		if !cl.serve(i) {
			o.failed++
			continue
		}
		got, err := cl.matchesOf()
		if err != nil {
			return err
		}
		same := len(got) == len(want)
		for j := 0; same && j < len(got); j++ {
			same = got[j] == int32(want[j].V)
		}
		if !same {
			o.failed++
			fmt.Fprintf(os.Stderr, "benchmark: %s/%d view=%q: served %v, oracle %v\n", k.rel, k.id, view, got, want)
		}
	}
	return nil
}

// upTo returns 0..n-1: every request index of a workload that requests
// all its URLs.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// checkSample picks which of the requested indices to check.
func (rc runCfg) checkSample(requested []int) []int {
	if rc.checkAll || len(requested) <= rc.sc.checkSample {
		return requested
	}
	rng := rngFor(rc.seed, streamCheck)
	rng.Shuffle(len(requested), func(i, j int) { requested[i], requested[j] = requested[j], requested[i] })
	return requested[:rc.sc.checkSample]
}

func (rc runCfg) spec() setupSpec {
	return setupSpec{
		cfg:    datasetConfig(rc.sc.entities[rc.workload]),
		models: rc.models,
		reg:    rc.reg,
	}
}

func directURLs(e *env) []string {
	urls := make([]string, len(e.keys))
	for i, k := range e.keys {
		urls[i] = vpairURL(k, "")
	}
	return urls
}

// warmAll touches every URL once, so the result cache holds them all
// when the timed region starts.
func warmAll(e *env, urls []string) error {
	cl := newClients(e.srv, urls, 1, nil)[0]
	for i, u := range urls {
		if !cl.serve(i) {
			return fmt.Errorf("warm-up %s: HTTP %d", u, cl.w.code)
		}
	}
	return nil
}

// runCold is vpair_cold: every tuple requested at most once, so no
// cache at any layer can answer. The first coldClosedShare of the run is
// a closed loop of nproc clients (throughput); the rest an open loop at
// coldRateRPS (latency from the due time, SLO misses), the longer phase
// because it sends at half the speed and percentiles need the samples.
func runCold(rc runCfg, o *outcome) error {
	spec := rc.spec()
	spec.serve = true
	e, setupS, reps, err := spec.buildTimed(rc.setupReps)
	if err != nil {
		return err
	}
	defer e.close()
	o.set("setup_s", setupS, reps)

	clients := newClients(e.srv, directURLs(e), nproc, rc.tr)
	// The closed phase draws from the first half of the permutation and
	// the open phase from the second, so a fast machine cannot use up in
	// one phase the tuples the other needs.
	perm := permutation(rc.seed, len(e.keys))
	half := len(perm) / 2
	var closedNext, openNext atomic.Int64
	takeFrom := func(cursor *atomic.Int64, part []int) (int, bool) {
		n := int(cursor.Add(1)) - 1
		if n >= len(part) {
			return 0, false
		}
		return part[n], true
	}

	before := rc.readUsage()
	wall := closedLoop(clients, deadlineIn(rc.seconds*coldClosedShare), func(int) (int, bool) { return takeFrom(&closedNext, perm[:half]) })
	_, closedOps, closedFailed := drain(clients)
	st := openLoop(clients, coldRateRPS, coldSLO, deadlineIn(rc.seconds*(1-coldClosedShare)), func() (int, bool) { return takeFrom(&openNext, perm[half:]) })
	after := rc.readUsage()
	openLat, openOps, openFailed := drain(clients)

	o.attempted = closedOps + openOps
	o.failed = closedFailed + openFailed
	o.set("throughput_ops_s", float64(closedOps)/wall.Seconds(), closedOps)
	o.setLatency(openLat)
	o.set("loadgen.slo_miss_ratio", float64(st.sloMisses)/float64(max(st.sent, 1)), st.sent)
	slices.Sort(st.late)
	o.set("loadgen.late_p99_ms", millis(quantile(st.late, 0.99)), len(st.late))
	o.set("loadgen.backlog_max", float64(st.backlogMax), 0)
	o.setUsage(before, after, o.attempted, 0)
	rc.wantHitRatio(o, 0)
	if st.backlogMax > int(coldRateRPS) {
		o.invalidf("open phase fell %d requests behind: %.0f req/s is above capacity", st.backlogMax, coldRateRPS)
	}

	requested := slices.Concat(perm[:min(int(closedNext.Load()), half)], perm[half:][:min(int(openNext.Load()), len(perm)-half)])
	return e.checkKeys(clients[0], rc.checkSample(requested), o)
}

// runHot is vpair_hot: the warm-up leaves every key in the result
// cache, then nproc closed-loop clients each follow their own Zipf
// sequence; every request is a cache hit.
func runHot(rc runCfg, o *outcome) error {
	spec := rc.spec()
	spec.serve = true
	spec.warm = func(e *env) error { return warmAll(e, directURLs(e)) }
	e, setupS, reps, err := spec.buildTimed(rc.setupReps)
	if err != nil {
		return err
	}
	defer e.close()
	o.set("setup_s", setupS, reps)

	clients := newClients(e.srv, directURLs(e), nproc, rc.tr)
	seqs := make([][]int, nproc)
	pos := make([]int, nproc)
	for c := range seqs {
		seqs[c] = zipfSequence(rc.seed, c, len(e.keys), sequenceLen)
		clients[c].every = hotThin
	}

	before := rc.readUsage()
	wall := closedLoop(clients, deadlineIn(rc.seconds), func(c int) (int, bool) {
		i := seqs[c][pos[c]%sequenceLen]
		pos[c]++
		return i, true
	})
	after := rc.readUsage()
	lat, ops, failed := drain(clients)

	o.attempted, o.failed = ops, failed
	o.set("throughput_ops_s", float64(ops)/wall.Seconds(), ops)
	o.setLatency(lat)
	o.setUsage(before, after, o.attempted, 0)
	rc.wantHitRatio(o, 1)

	return e.checkKeys(clients[0], rc.checkSample(upTo(len(e.keys))), o)
}

// runBatch is apair_batch: rounds of sequential APair, BSP APair and
// asynchronous APair, in that order, each round from a reset match
// state. One round is one operation.
func runBatch(rc runCfg, o *outcome) error {
	round := func(e *env, tr *tracer, op int) (times [3]time.Duration, stats [2]her.ParallelStats, err error) {
		e.sys.ResetMatchState()
		start := time.Now()
		root := tr.begin(op, 0, "apair.round", start)
		var seq, bsp, async []her.Pair
		tr.stage(op, root, "her.APair", func() { seq = e.sys.APair() })
		t1 := time.Now()
		tr.stage(op, root, "bsp.Run", func() { bsp, stats[0], err = e.sys.APairParallel(nproc) })
		t2 := time.Now()
		if err != nil {
			return times, stats, err
		}
		tr.stage(op, root, "bsp.RunAsync", func() { async, stats[1], err = e.sys.APairParallelAsync(nproc) })
		t3 := time.Now()
		tr.end(root, t3)
		if err != nil {
			return times, stats, err
		}
		if !slices.Equal(seq, bsp) || !slices.Equal(seq, async) {
			err = fmt.Errorf("parallel APair differs from sequential: %d sequential, %d BSP, %d async matches", len(seq), len(bsp), len(async))
		}
		return [3]time.Duration{t1.Sub(start), t2.Sub(t1), t3.Sub(t2)}, stats, err
	}

	spec := rc.spec()
	spec.warm = func(e *env) error {
		_, _, err := round(e, nil, 0)
		return err
	}
	e, setupS, reps, err := spec.buildTimed(rc.setupReps)
	if err != nil {
		return err
	}
	o.set("setup_s", setupS, reps)

	var lat []time.Duration
	var modes [3][]time.Duration
	var last [2]her.ParallelStats
	deadline := deadlineIn(rc.seconds)
	before := rc.readUsage()
	start := time.Now()
	for len(lat) == 0 || time.Now().Before(deadline) {
		times, stats, err := round(e, rc.tr, len(lat)+1)
		if err != nil {
			return err
		}
		for m, d := range times {
			modes[m] = append(modes[m], d)
		}
		lat = append(lat, times[0]+times[1]+times[2])
		last = stats
	}
	wall := time.Since(start)
	after := rc.readUsage()

	o.attempted = len(lat)
	o.set("throughput_ops_s", float64(len(lat))/wall.Seconds(), len(lat))
	o.setLatency(lat)
	o.setUsage(before, after, o.attempted, 0)
	for m, name := range []string{"her.apair_seq_ms", "bsp.apair_bsp_ms", "bsp.apair_async_ms"} {
		slices.Sort(modes[m])
		o.set(name, millis(quantile(modes[m], 0.5)), len(modes[m]))
	}
	c := e.sys.Stats() // the sequential matcher's counters for the last round
	o.set("core.cache_hit_ratio", float64(c.CacheHits)/float64(max(c.CacheHits+c.Calls, 1)), 0)
	o.set("core.cleanups", float64(c.Cleanups), 0)
	o.set("core.rechecks", float64(c.Rechecks), 0)
	o.set("her.f_measure", e.sys.Evaluate(e.d.Truth).F1(), len(e.d.Truth))
	bsp, async := last[0], last[1]
	o.set("bsp.supersteps", float64(bsp.Supersteps), 0)
	o.set("bsp.messages", float64(bsp.Requests+async.Requests), 0)
	o.set("bsp.invalidations", float64(bsp.Invalidations+async.Invalidations), 0)
	var most, sum int
	for _, n := range bsp.PerWorkerPairs {
		most, sum = max(most, n), sum+n
	}
	o.set("bsp.worker_imbalance", float64(most)*float64(len(bsp.PerWorkerPairs))/float64(max(sum, 1)), 0)
	o.set("bsp.superstep_ms_max", millis(slices.Max(bsp.SuperstepDurations)), len(bsp.SuperstepDurations))
	return nil
}

// runRW is vpair_rw: one scripted client reads both the direct and the
// mirror view and writes after every readsPerWrite reads. One client
// and no timers, so the order of operations repeats exactly.
func runRW(rc runCfg, o *outcome) error {
	urlsOf := func(e *env) []string {
		urls := directURLs(e)
		for _, k := range e.keys {
			urls = append(urls, vpairURL(k, "mirror"))
		}
		return urls
	}
	spec := rc.spec()
	spec.serve, spec.mirror = true, true
	spec.warm = func(e *env) error { return warmAll(e, urlsOf(e)) }
	e, setupS, reps, err := spec.buildTimed(rc.setupReps)
	if err != nil {
		return err
	}
	defer e.close()
	o.set("setup_s", setupS, reps)

	cl := newClients(e.srv, urlsOf(e), 1, rc.tr)[0]
	main := e.d.DB.Relation(e.d.Config.MainRelation)
	keyAttr := main.Schema.AttrIndex(main.Schema.Key)
	mainTuples, entities := len(main.Tuples), e.d.EntityVertices
	script := rwScript(rc.seed, len(e.keys), mainTuples, len(entities), sequenceLen/readsPerWrite)

	var tupleLat, edgeLat []time.Duration
	engine := e.srv.Engine().Snapshot()
	deadline := deadlineIn(rc.seconds)
	before := rc.readUsage()
	start := time.Now()
	n := 0
	for ; ; n++ {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		switch s := script[n%len(script)]; s.kind {
		case opRead:
			cl.timed(s.a, n+1, now)
		case opReadMirror:
			cl.timed(len(e.keys)+s.a, n+1, now)
		case opAddTuple:
			vals := slices.Clone(main.Tuples[s.a].Values)
			vals[keyAttr] = "bench write " + strconv.Itoa(n)
			id := rc.tr.begin(n+1, 0, "her.AddTuple", now)
			_, err = e.sys.AddTuple(main.Schema.Name, vals...)
			done := time.Now()
			rc.tr.end(id, done)
			tupleLat = append(tupleLat, done.Sub(now))
		case opAddEdge:
			id := rc.tr.begin(n+1, 0, "her.AddGraphEdge", now)
			err = e.sys.AddGraphEdge(entities[s.a], entities[s.b], "relatedTo")
			done := time.Now()
			rc.tr.end(id, done)
			edgeLat = append(edgeLat, done.Sub(now))
		}
		if err != nil {
			return fmt.Errorf("write %d: %w", n, err)
		}
	}
	wall := time.Since(start)
	after := rc.readUsage()
	lat, _, failed := drain([]*client{cl})
	writeLat := slices.Concat(tupleLat, edgeLat)

	o.attempted, o.failed = n, failed
	o.set("throughput_ops_s", float64(n)/wall.Seconds(), n)
	o.setLatency(lat)
	for _, l := range [][]time.Duration{writeLat, tupleLat, edgeLat} {
		slices.Sort(l)
	}
	o.set("loadgen.write_latency_p50_ms", millis(quantile(writeLat, 0.50)), len(writeLat))
	o.set("loadgen.write_latency_p90_ms", millis(quantile(writeLat, 0.90)), len(writeLat))
	o.set("her.add_tuple_ms", millis(quantile(tupleLat, 0.50)), len(tupleLat))
	o.set("her.add_graph_edge_ms", millis(quantile(edgeLat, 0.50)), len(edgeLat))
	o.setUsage(before, after, n, len(writeLat))
	if d := e.srv.Engine().Snapshot().FullRebuilds - engine.FullRebuilds; d > 0 {
		o.invalidf("%d full rebuilds of the direct engine: a write fell off the delta path", d)
	}

	return e.checkKeys(cl, rc.checkSample(upTo(2*len(e.keys))), o)
}

var workloads = map[string]func(runCfg, *outcome) error{
	"vpair_cold":  runCold,
	"vpair_hot":   runHot,
	"apair_batch": runBatch,
	"vpair_rw":    runRW,
}

// workloadNames is the order BENCHMARK.json lists them in.
var workloadNames = []string{"vpair_cold", "vpair_hot", "apair_batch", "vpair_rw"}
