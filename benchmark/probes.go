package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"her"
	"her/internal/core"
	"her/internal/embed"
	"her/internal/graph"
	"her/internal/index"
	"her/internal/ranking"
	"her/internal/rdb2rdf"
	"her/internal/shard"
	"her/internal/text"
	"her/internal/view"
)

// The product is not edited by the change that defines the benchmark,
// so the layers are seen from outside: this file calls each layer's
// public functions on the workload's dataset, times the calls from
// here, and reads the series the layers already publish in the metrics
// registry.

// series is a reading of the registry series the serving layers
// publish; two readings bracket a timed region.
type series struct {
	hits, misses, sfWaits, shed    int64
	deltas, fragRebuilds, rebuilds int64
	survived, evicted              int64
	waitN, computeN, gatherN       int64
	waitSum, computeSum, gatherSum float64
}

func readSeries(reg *her.MetricsRegistry) series {
	var s series
	if reg == nil {
		return s
	}
	s.hits = reg.Counter(`her_shard_cache_hits_total`).Value()
	s.misses = reg.Counter(`her_shard_cache_misses_total`).Value()
	s.sfWaits = reg.Counter(`her_shard_singleflight_waits_total`).Value()
	s.shed = reg.Counter(`her_shard_shed_total`).Value()
	s.deltas = reg.Counter(`her_shard_deltas_applied_total`).Value()
	s.fragRebuilds = reg.Counter(`her_shard_fragment_rebuilds_total`).Value()
	s.rebuilds = reg.Counter(`her_shard_rebuilds_total`).Value()
	s.survived = reg.Counter(`her_shard_cache_delta_survived_total`).Value()
	s.evicted = reg.Counter(`her_shard_cache_delta_evicted_total`).Value()
	for i := 0; i < nproc; i++ {
		w := reg.Histogram(fmt.Sprintf(`her_shard_queue_wait_seconds{shard="%d"}`, i), nil)
		c := reg.Histogram(fmt.Sprintf(`her_shard_compute_seconds{shard="%d"}`, i), nil)
		s.waitN, s.waitSum = s.waitN+w.Count(), s.waitSum+w.Sum()
		s.computeN, s.computeSum = s.computeN+c.Count(), s.computeSum+c.Sum()
	}
	g := reg.Histogram(`her_shard_gather_seconds{op="vpair"}`, nil)
	s.gatherN, s.gatherSum = g.Count(), g.Sum()
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setSeries reports what the serving layers counted between two
// readings; writes is how many writes the region applied.
func (o *outcome) setSeries(a, b series, writes int) {
	o.set("shard.cache_hit_ratio", ratio(float64(b.hits-a.hits), float64(b.hits-a.hits+b.misses-a.misses)), int(b.hits-a.hits+b.misses-a.misses))
	o.set("shard.singleflight_waits", float64(b.sfWaits-a.sfWaits), 0)
	o.set("shard.shed_total", float64(b.shed-a.shed), 0)
	o.set("shard.queue_wait_ms_mean", 1e3*ratio(b.waitSum-a.waitSum, float64(b.waitN-a.waitN)), int(b.waitN-a.waitN))
	o.set("shard.compute_ms_mean", 1e3*ratio(b.computeSum-a.computeSum, float64(b.computeN-a.computeN)), int(b.computeN-a.computeN))
	o.set("shard.gather_ms_mean", 1e3*ratio(b.gatherSum-a.gatherSum, float64(b.gatherN-a.gatherN)), int(b.gatherN-a.gatherN))
	o.set("shard.deltas_per_write", ratio(float64(b.deltas-a.deltas), float64(writes)), writes)
	o.set("shard.fragment_rebuilds_per_write", ratio(float64(b.fragRebuilds-a.fragRebuilds), float64(writes)), writes)
	o.set("shard.cache_evicted_per_write", ratio(float64(b.evicted-a.evicted), float64(writes)), writes)
	o.set("shard.cache_survival_ratio", ratio(float64(b.survived-a.survived), float64(b.survived-a.survived+b.evicted-a.evicted)), 0)
	o.set("shard.full_rebuilds", float64(b.rebuilds-a.rebuilds), 0)
}

// medianOf times fn n times and returns the median.
func medianOf(n int, fn func()) time.Duration {
	times := make([]time.Duration, n)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = time.Since(t0)
	}
	slices.Sort(times)
	return times[n/2]
}

func mean(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(max(len(ds), 1))
}

// mallocs counts heap allocations of fn.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// probeOp numbers the probes' operations apart from the requests'.
const probeOp = 1 << 30

// probe measures the layers one by one on the workload's dataset.
func probe(rc runCfg, o *outcome) error {
	spec := rc.spec()
	d, err := probeBuild(spec.cfg, o)
	if err != nil {
		return err
	}
	reg := her.NewMetrics() // the probes' own: the run's has the workload's counts
	spec.reg, spec.serve = reg, true
	e, err := spec.build()
	if err != nil {
		return err
	}
	defer e.close()
	probeLabels(d.G, e.sys.Options().EmbeddingDim, o)
	if err := probeShardBuild(e.sys, o); err != nil {
		return err
	}

	// A seeded sample of tuples, each taken through every path. The
	// oracle goes first: the sequential System.VPair, which also leaves
	// the scorers' memos and the rankers warm for these tuples, so that
	// the paths measured after it start from the same state.
	sample := rngFor(rc.seed, streamProbe).Perm(len(e.keys))
	p := &probed{e: e, reg: reg, tr: rc.tr, keys: sample[:min(rc.sc.probeSample, len(sample))]}
	for _, k := range p.keys {
		u, err := e.sys.TupleVertex(e.keys[k].rel, e.keys[k].id)
		if err != nil {
			return err
		}
		t0 := time.Now()
		want, err := e.sys.VPair(e.keys[k].rel, e.keys[k].id)
		p.seq += time.Since(t0)
		if err != nil {
			return err
		}
		p.us, p.oracle = append(p.us, u), append(p.oracle, want)
	}
	o.set("her.vpair_seq_ms", millis(p.seq)/float64(len(p.keys)), len(p.keys))
	if err := p.pipeline(o); err != nil {
		return err
	}
	return p.serving(o)
}

// probeBuild times what a set-up builds before any request, each on its
// own.
func probeBuild(cfg her.DatasetConfig, o *outcome) (d *her.Dataset, err error) {
	const reps = 5
	o.set("dataset.generate_ms", millis(medianOf(reps, func() { d, err = her.GenerateCustomDataset(cfg) })), reps)
	if err != nil {
		return nil, err
	}
	o.set("rdb2rdf.map_ms", millis(medianOf(reps, func() { _, _, err = rdb2rdf.Map(d.DB) })), reps)
	if err != nil {
		return nil, err
	}
	o.set("view.compile_direct_ms", millis(medianOf(reps, func() { _, _, err = view.Compile(view.Direct(d.DB), d.DB) })), reps)
	if err != nil {
		return nil, err
	}
	var ix *index.Inverted
	o.set("index.build_ms", millis(medianOf(reps, func() {
		ix = index.BuildDocs(d.G, func(v graph.VID) bool { return !d.G.IsLeaf(v) }, index.NeighborhoodDoc(d.G))
	})), reps)
	o.set("index.tokens", float64(ix.NumTokens()), 0)
	o.set("graph.clone_ms", millis(medianOf(reps, func() { _ = d.G.Clone() })), reps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = d.G.Clone()
	runtime.ReadMemStats(&after)
	o.set("graph.clone_bytes", float64(after.TotalAlloc-before.TotalAlloc), 0)
	o.set("graph.partition_ms", millis(medianOf(reps, func() { _, err = graph.PartitionEdgeCut(d.G, nproc) })), reps)
	return d, err
}

// probeLabels runs the text and embedding layers over the distinct
// vertex labels of g, on a fresh encoder.
func probeLabels(g *her.Graph, dim int, o *outcome) {
	var vocab []string
	seen := map[string]bool{}
	for v := 0; v < g.NumVertices(); v++ {
		if l := g.Label(graph.VID(v)); !seen[l] {
			seen[l] = true
			vocab = append(vocab, l)
		}
	}
	perLabel := func(name string, fn func(i int, l string)) {
		t0 := time.Now()
		for i, l := range vocab {
			fn(i, l)
		}
		o.set(name, float64(time.Since(t0))/float64(len(vocab)), len(vocab))
	}
	enc := embed.NewEncoder(dim)
	perLabel("text.tokenize_ns_op", func(_ int, l string) { _ = text.Tokenize(l) })
	perLabel("embed.embed_cold_ns_op", func(_ int, l string) { _ = enc.Embed(l) })
	perLabel("embed.mvscore_ns_op", func(i int, l string) { _ = enc.MvScore(l, vocab[(i+1)%len(vocab)]) })
}

// probeShardBuild times building the sharded engine and reads what halo
// replication copies.
func probeShardBuild(sys *her.System, o *outcome) error {
	const reps = 5
	var eng *shard.Engine
	var err error
	o.set("shard.build_ms", millis(medianOf(reps, func() {
		if eng != nil {
			eng.Close()
		}
		eng, err = shard.NewEngine(sys.ShardConfig(nproc))
	})), reps)
	if err != nil {
		return err
	}
	info := eng.Snapshot()
	eng.Close()
	replicated := 0
	for _, f := range info.Fragments {
		replicated += f.Owned + f.Halo
	}
	o.set("shard.halo_radius", float64(info.HaloRadius), 0)
	o.set("shard.replication_factor", float64(replicated)/float64(sys.G.NumVertices()), 0)
	return nil
}

// probed is the sample of tuples the request-path probes share.
type probed struct {
	e      *env
	reg    *her.MetricsRegistry // e's registry
	tr     *tracer
	keys   []int         // indices into e.keys
	us     []graph.VID   // their tuple vertices
	oracle [][]her.Pair  // System.VPair of each
	seq    time.Duration // what the oracle took for all of them
}

// pipeline takes each sampled tuple through one call of a fresh
// matcher's VPair — the cost the stages must add up to — then through
// the same request stage by stage with a span per stage, and reports how
// much of the one call the stages explain; then through the ranking and
// core layers alone.
func (p *probed) pipeline(o *outcome) error {
	sys, n := p.e.sys, len(p.keys)
	params, opts := sys.CoreParams(), sys.Options()
	newMatcher := func() (*core.Matcher, error) {
		return core.NewMatcher(sys.GD, sys.G, sys.RankerD(), sys.RankerG(), params)
	}

	tr := p.tr
	first := len(tr.spans)
	var oneCall time.Duration
	var lookups, topkCold, topkWarm, matchCold []time.Duration
	var calls, candidates, matchAllocs int
	for i, k := range p.keys {
		// The one call and the staged replay of a tuple run back to back,
		// so that a slow spell of the machine slows both.
		m, err := newMatcher()
		if err != nil {
			return err
		}
		t0 := time.Now()
		got := m.VPair(p.us[i], sys.Candidates)
		oneCall += time.Since(t0)
		calls += m.Stats().Calls
		key, op := p.e.keys[k], probeOp+i
		if !slices.Equal(got, p.oracle[i]) {
			return fmt.Errorf("fresh matcher VPair(%v) differs from System.VPair", key)
		}

		root := tr.begin(op, 0, "replay.vpair", time.Now())
		var u graph.VID
		tr.stage(op, root, "her.TupleVertex", func() { u, err = sys.TupleVertex(key.rel, key.id) })
		if err != nil {
			return err
		}
		var pool []graph.VID
		t0 = time.Now()
		tr.stage(op, root, "index.Candidates", func() { pool = sys.Candidates(u) })
		lookups = append(lookups, time.Since(t0))
		candidates += len(pool)
		if m, err = newMatcher(); err != nil {
			return err
		}
		var cands []graph.VID
		tr.stage(op, root, "embed.Hv", func() {
			for _, v := range pool {
				if m.Hv(u, v) >= params.Sigma {
					cands = append(cands, v)
				}
			}
		})
		tr.stage(op, root, "ranking.TopK", func() {
			sys.RankerD().TopK(u, params.K)
			for _, v := range cands {
				sys.RankerG().TopK(v, params.K)
			}
		})
		var pairs []her.Pair
		tr.stage(op, root, "core.Match", func() {
			// Matcher.VPair's order: increasing degree, then id; the
			// answer is read once every candidate has been matched.
			slices.SortFunc(cands, func(a, b graph.VID) int {
				if da, db := sys.G.Degree(a), sys.G.Degree(b); da != db {
					return da - db
				}
				return int(a - b)
			})
			for _, v := range cands {
				m.Match(u, v)
			}
			for _, v := range cands {
				if valid, ok := m.Cached(core.Pair{U: u, V: v}); ok && valid {
					pairs = append(pairs, core.Pair{U: u, V: v})
				}
			}
		})
		tr.stage(op, root, "server.encode", func() { _, err = json.Marshal(core.SortPairs(pairs)) })
		tr.end(root, time.Now())
		if err != nil {
			return err
		}
		if !slices.Equal(pairs, p.oracle[i]) {
			return fmt.Errorf("staged VPair(%v) differs from System.VPair: %v, oracle %v", key, pairs, p.oracle[i])
		}

		// The ranking and core layers alone, cold, on the first candidate.
		if len(cands) == 0 {
			continue
		}
		v := cands[0]
		r := ranking.NewRanker(sys.G, sys.RankerG().LM, opts.MaxPathLen)
		t0 = time.Now()
		r.TopK(v, params.K)
		topkCold = append(topkCold, time.Since(t0))
		t0 = time.Now()
		r.TopK(v, params.K)
		topkWarm = append(topkWarm, time.Since(t0))
		if m, err = newMatcher(); err != nil {
			return err
		}
		t0 = time.Now()
		m.Match(u, v)
		matchCold = append(matchCold, time.Since(t0))
		if m, err = newMatcher(); err != nil {
			return err
		}
		matchAllocs += int(mallocs(func() { m.Match(u, v) }))
	}
	o.set("core.vpair_cold_ms", millis(oneCall)/float64(n), n)
	o.set("core.calls_per_vpair", float64(calls)/float64(n), n)
	self, roots := selfTimes(tr.spans[first:])
	o.set("trace.unexplained_ratio", 1-float64(roots-self["replay.vpair"])/float64(oneCall), n)
	o.set("index.lookup_us", micros(mean(lookups)), n)
	o.set("index.candidates_per_lookup", float64(candidates)/float64(n), n)
	o.set("ranking.topk_cold_us", micros(mean(topkCold)), len(topkCold))
	o.set("ranking.topk_warm_ns", float64(mean(topkWarm)), len(topkWarm))
	o.set("core.match_cold_us", micros(mean(matchCold)), len(matchCold))
	o.set("core.match_allocs_op", ratio(float64(matchAllocs), float64(len(matchCold))), len(matchCold))
	return nil
}

// serving takes each sampled tuple through the sharded engine with its
// result cache off, where every request is a miss and the registry says
// how much the shards computed for it; then, every key cached, through
// the serving engine directly and through the server.
func (p *probed) serving(o *outcome) error {
	sys, n, ctx := p.e.sys, len(p.keys), context.Background()
	missCfg := sys.ShardConfig(nproc)
	missCfg.CacheSize = -1
	missEng, err := shard.NewEngine(missCfg)
	if err != nil {
		return err
	}
	defer missEng.Close()
	before := readSeries(p.reg)
	t0 := time.Now()
	for i, u := range p.us {
		got, err := missEng.VPair(ctx, u)
		if err != nil {
			return err
		}
		if !slices.Equal(got, p.oracle[i]) {
			return fmt.Errorf("sharded VPair(%v) differs from System.VPair", p.e.keys[p.keys[i]])
		}
	}
	miss := time.Since(t0)
	o.set("shard.vpair_miss_ms", millis(miss)/float64(n), n)
	o.set("shard.work_amplification", (readSeries(p.reg).computeSum-before.computeSum)/p.seq.Seconds(), n)

	urls := make([]string, n)
	for i, k := range p.keys {
		urls[i] = vpairURL(p.e.keys[k], "")
	}
	if err := warmAll(p.e, urls); err != nil {
		return err
	}
	const rounds = 20
	hitEng := p.e.srv.Engine()
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, u := range p.us {
			if _, err := hitEng.VPair(ctx, u); err != nil {
				return err
			}
		}
	}
	engineHit := time.Since(t0) / time.Duration(rounds*n)
	cl := newClients(p.e.srv, urls, 1, nil)[0]
	bytes := 0
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range urls {
			if !cl.serve(i) {
				return fmt.Errorf("hit probe %s: HTTP %d", urls[i], cl.w.code)
			}
			bytes += len(cl.w.body)
		}
	}
	serverHit := time.Since(t0) / time.Duration(rounds*n)
	allocs := mallocs(func() {
		for i := range urls {
			cl.serve(i)
		}
	})
	o.set("shard.vpair_hit_us", micros(engineHit), rounds*n)
	o.set("server.hit_overhead_us", micros(serverHit-engineHit), rounds*n)
	o.set("server.allocs_per_hit", float64(allocs)/float64(n), n)
	o.set("server.bytes_per_response", float64(bytes)/float64(rounds*n), rounds*n)
	return nil
}
