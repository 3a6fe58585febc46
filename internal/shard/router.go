package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/obs"
)

// ErrOverloaded is returned when a shard queue is full: the request is
// shed at admission instead of queueing unbounded work. HTTP layers map
// it to 429 with a Retry-After hint.
var ErrOverloaded = errors.New("shard: queues full, request shed")

// ErrClosed is returned for requests after Close.
var ErrClosed = errors.New("shard: engine closed")

// Engine is the sharded match-serving engine. It is safe for concurrent
// use: requests share the current shard state under a read lock, while
// generation changes (incremental updates, feedback, retraining) advance
// it in place or retire it and build a fresh one under the write lock.
// A cache hit takes neither: once ready says the state has reached the
// request's generation, the result cache answers it lock-free.
type Engine struct {
	cfg   Config
	cache *resultCache
	sf    *inflight
	met   engineMetrics

	// Lifetime maintenance counters, kept on the engine (not the obs
	// registry) so Info reports them even without instrumentation.
	deltasApplied atomic.Uint64
	fullRebuilds  atomic.Uint64
	fragRebuilds  atomic.Uint64
	cacheSurvived atomic.Uint64
	cacheEvicted  atomic.Uint64

	mu     sync.RWMutex
	cur    *shardState // guarded by mu — requests read-lease it, advance swaps it
	closed bool        // guarded by mu
	// ready is cur's generation, stored under mu by NewEngine and
	// advance once the cache sweep has re-stamped the surviving entries:
	// a request whose generation it has reached needs no maintenance,
	// so serve reads the cache without taking the lease.
	ready atomic.Uint64
}

// engineMetrics resolves the engine's obs handles once; all of them are
// nil (no-op) without a registry.
type engineMetrics struct {
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	sfWaits       *obs.Counter
	shed          *obs.Counter
	rebuilds      *obs.Counter
	deltasApplied *obs.Counter
	fragRebuilds  *obs.Counter
	cacheSurvived *obs.Counter
	cacheEvicted  *obs.Counter
	vpairGather   *obs.Histogram // her_shard_gather_seconds{op="vpair"}
	apairGather   *obs.Histogram // her_shard_gather_seconds{op="apair"}
}

// gather returns the scatter/gather latency histogram for op.
func (m *engineMetrics) gather(op taskOp) *obs.Histogram {
	if op == opAPair {
		return m.apairGather
	}
	return m.vpairGather
}

// NewEngine validates the configuration and builds the initial shard
// state (partition, halo materialization, workers) from one Source call;
// whatever the owner does after that call is replayed from Deltas at the
// first request.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.normalized()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheSize),
		sf:    newInflight(),
		met: engineMetrics{
			cacheHits:     cfg.Metrics.Counter(`her_shard_cache_hits_total`),
			cacheMisses:   cfg.Metrics.Counter(`her_shard_cache_misses_total`),
			sfWaits:       cfg.Metrics.Counter(`her_shard_singleflight_waits_total`),
			shed:          cfg.Metrics.Counter(`her_shard_shed_total`),
			rebuilds:      cfg.Metrics.Counter(`her_shard_rebuilds_total`),
			deltasApplied: cfg.Metrics.Counter(`her_shard_deltas_applied_total`),
			fragRebuilds:  cfg.Metrics.Counter(`her_shard_fragment_rebuilds_total`),
			cacheSurvived: cfg.Metrics.Counter(`her_shard_cache_delta_survived_total`),
			cacheEvicted:  cfg.Metrics.Counter(`her_shard_cache_delta_evicted_total`),
			vpairGather:   cfg.Metrics.Histogram(`her_shard_gather_seconds{op="vpair"}`, obs.TimeBuckets),
			apairGather:   cfg.Metrics.Histogram(`her_shard_gather_seconds{op="apair"}`, obs.TimeBuckets),
		},
	}
	st, err := newState(cfg)
	if err != nil {
		return nil, err
	}
	e.cur = st
	e.ready.Store(st.gen)
	return e, nil
}

func (e *Engine) generation() uint64 {
	if e.cfg.Generation == nil {
		return 0
	}
	return e.cfg.Generation()
}

// task is one unit of per-shard work: a request plus what it takes to
// deliver the answer. reply is buffered (capacity 1) so a worker never
// blocks on an abandoned request. Nothing here but req reaches the
// worker's compute step, so nothing else can change a result.
type task struct {
	// ctx is the per-request cancellation; it decides whether the result
	// is delivered, never what it is.
	ctx   context.Context
	req   request
	reply chan taskResult
	// enqueuedAt is stamped at enqueue when the worker measures queue
	// wait (metrics registered) or the request carries a span; zero
	// otherwise, so the disabled path never reads the clock.
	enqueuedAt time.Time
	traced     bool // request carries a span: worker must stamp times
}

type taskResult struct {
	pairs []core.Pair // global ids
	err   error
	// dequeuedAt/doneAt travel back to the router so a traced request
	// can reconstruct the worker's queue-wait and compute intervals as
	// spans. Zero when neither metrics nor tracing asked for them.
	dequeuedAt time.Time
	doneAt     time.Time
}

// run is the worker's drain loop: one goroutine per shard owns the
// matcher, so the (deliberately non-thread-safe) core.Matcher needs no
// locking and its cache warms across requests.
func (w *shardWorker) run() {
	for t := range w.queue {
		if t.req.op == opBarrier {
			t.reply <- taskResult{}
			continue
		}
		if t.ctx.Err() != nil {
			t.reply <- taskResult{err: t.ctx.Err()}
			continue
		}
		// Queue-wait and compute are measured here, on the worker, and
		// shipped back as timestamps: the router owns no clock that could
		// see the dequeue. Clock reads happen only when the histograms
		// are registered or the request is traced.
		var dq, done time.Time
		timed := w.waitSeconds != nil || t.traced
		if timed {
			dq = time.Now()
			if !t.enqueuedAt.IsZero() {
				w.waitSeconds.Observe(dq.Sub(t.enqueuedAt).Seconds())
			}
		}
		local := w.compute(t.req)
		if timed {
			done = time.Now()
			w.computeSeconds.Observe(done.Sub(dq).Seconds())
		}
		out := make([]core.Pair, len(local))
		for i, p := range local {
			out[i] = core.Pair{U: p.U, V: w.toGlobal[p.V]}
		}
		t.reply <- taskResult{pairs: out, dequeuedAt: dq, doneAt: done}
	}
}

// compute answers r against the worker's fragment, in local G ids. The
// request value is all it is told about the call.
func (w *shardWorker) compute(r request) []core.Pair {
	switch r.op {
	case opVPair:
		return w.matcher.VPair(r.u, w.gen)
	case opAPair:
		return w.matcher.APair(r.sources(), w.gen)
	case opSPair:
		if lv, ok := w.localOf(r.v); ok && w.matcher.Match(r.u, lv) {
			return []core.Pair{{U: r.u, V: lv}}
		}
	}
	return nil
}

// VPair computes all matches of G_D vertex u across the shards —
// identical (post-merge) to a whole-graph VParaMatch. u is validated
// against the current state's G_D snapshot (not a live graph, which a
// concurrent mutation could be extending mid-read), so a vertex added
// by AddTuple becomes addressable as soon as the generation bump has
// triggered a rebuild.
func (e *Engine) VPair(ctx context.Context, u graph.VID) ([]core.Pair, error) {
	return e.serve(ctx, vpairRequest(u))
}

// APair computes all matches for the given G_D source vertices (nil
// means every vertex of G_D) across the shards.
func (e *Engine) APair(ctx context.Context, sources []graph.VID) ([]core.Pair, error) {
	return e.serve(ctx, apairRequest(sources))
}

// SPair checks one pair: does G_D vertex u match G vertex v? Both are
// validated against the current state's snapshots. The one shard that
// owns v decides — halo closure makes its verdict the whole-graph
// verdict — through its bounded queue, so a full queue sheds with
// ErrOverloaded and an expired ctx returns without leaving anything
// behind but a task the worker skips. Uncached: the worker's matcher
// cache already makes a repeat one lookup. The verdict passes through
// the Overrides hook like every other result.
func (e *Engine) SPair(ctx context.Context, u, v graph.VID) (bool, error) {
	st, release, err := e.state(e.generation())
	if err != nil {
		return false, err
	}
	defer release()
	if !st.gd.Valid(u) {
		return false, fmt.Errorf("shard: unknown G_D vertex %d", u)
	}
	if !st.g.Valid(v) {
		return false, fmt.Errorf("shard: unknown G vertex %d", v)
	}
	req := spairRequest(u, v)
	t := &task{ctx: ctx, req: req, reply: make(chan taskResult, 1)}
	if !e.enqueue(st.shards[st.owner[v]], t) {
		return false, ErrOverloaded
	}
	select {
	case r := <-t.reply:
		if r.err != nil {
			return false, r.err
		}
		pairs := r.pairs
		if e.cfg.Overrides != nil {
			pairs = e.cfg.Overrides(pairs, req.overrideScope())
		}
		for _, p := range pairs {
			if p.V == v {
				return true, nil
			}
		}
		return false, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// enqueue admits t to w's queue, or counts it shed when the queue is
// full.
func (e *Engine) enqueue(w *shardWorker, t *task) bool {
	if w.waitSeconds != nil || t.traced {
		t.enqueuedAt = time.Now()
	}
	select {
	case w.queue <- t:
		return true
	default:
		e.met.shed.Inc()
		return false
	}
}

// serve runs the cache → singleflight → scatter/gather pipeline for one
// request; req is its key at every step. The loop re-enters at most once
// per abandoned leader: when a leader fails on its own context (client
// disconnect, private timeout), its call is abandoned rather than
// finished, and each waiting follower loops back to re-check the cache
// and elect a fresh leader under its own still-healthy budget.
func (e *Engine) serve(ctx context.Context, req request) ([]core.Pair, error) {
	sp := obs.SpanFrom(ctx)
	gen := e.generation()
	// Advance maintenance before the cache read: a delta sweep re-stamps
	// surviving entries to the new generation, so reading the cache first
	// would misjudge a survivor as stale — and the very request that
	// should have been served from the surviving entry would recompute
	// it. A state that already reached gen needs none, and a hit then
	// takes no lock. Errors fall through: compute() calls state() again
	// and reports them on the request path.
	if e.ready.Load() < gen {
		if _, release, err := e.state(gen); err == nil {
			release()
		}
	}
	counted := false
	for {
		csp := sp.Child("cache")
		if pairs, ok := e.cache.get(req, gen); ok {
			e.met.cacheHits.Inc()
			if csp != nil {
				csp.SetAttr("cache", "hit")
			}
			csp.End()
			return pairs, nil
		}
		if csp != nil {
			csp.SetAttr("cache", "miss")
		}
		csp.End()
		if !counted {
			e.met.cacheMisses.Inc()
			counted = true
		}

		leader, c := e.sf.join(req, gen)
		if !leader {
			e.met.sfWaits.Inc()
			wsp := sp.Child("singleflight_wait")
			select {
			case <-c.done:
				wsp.End()
				if c.retry {
					continue // leader died on its own budget, not ours
				}
				return c.pairs, c.err
			case <-ctx.Done():
				wsp.End()
				return nil, ctx.Err()
			}
		}
		pairs, err := e.compute(ctx, gen, req)
		if err != nil && ctx.Err() != nil {
			// The failure is this leader's context expiring — it says
			// nothing about the shared computation, so don't publish it
			// to followers with healthy budgets.
			e.sf.abandon(req, gen, c)
			return nil, err
		}
		if err == nil && e.generation() == gen {
			// Only cache results whose generation is still current: a
			// mutation that landed mid-request must not be masked by a
			// stale entry stamped with the new generation.
			e.cache.put(req, gen, pairs)
		}
		e.sf.finish(req, gen, c, pairs, err)
		return pairs, err
	}
}

// compute scatters req to every shard worker and gathers the merged,
// sorted, override-reconciled match set. Admission control happens at
// enqueue: any full queue sheds the whole request with ErrOverloaded.
func (e *Engine) compute(ctx context.Context, gen uint64, req request) ([]core.Pair, error) {
	st, release, err := e.state(gen)
	if err != nil {
		return nil, err
	}
	defer release()
	if req.op == opVPair && !st.gd.Valid(req.u) {
		return nil, fmt.Errorf("shard: unknown G_D vertex %d", req.u)
	}

	sp := obs.SpanFrom(ctx)
	t0 := time.Now()
	ssp := sp.Child("scatter")
	reqCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	tasks := make([]*task, 0, len(st.shards))
	for _, w := range st.shards {
		t := &task{ctx: reqCtx, req: req, reply: make(chan taskResult, 1), traced: sp != nil}
		if !e.enqueue(w, t) {
			// Abandon the siblings already queued: cancel flips their
			// context so workers skip them cheaply.
			ssp.End()
			return nil, ErrOverloaded
		}
		tasks = append(tasks, t)
	}
	ssp.End()
	gsp := sp.Child("gather")
	results := make([]taskResult, len(tasks))
	total := 0
	for i, t := range tasks {
		select {
		case r := <-t.reply:
			if r.err != nil {
				gsp.End()
				return nil, r.err
			}
			if sp != nil && !r.doneAt.IsZero() {
				// Reconstruct the worker's timeline from its own clock
				// reads: enqueue→dequeue is queue wait, dequeue→done is
				// compute. The shard span nests both under gather.
				shSp := gsp.ChildInterval("shard", t.enqueuedAt, r.doneAt)
				shSp.SetAttr("shard", strconv.Itoa(st.shards[i].id))
				shSp.ChildInterval("queue_wait", t.enqueuedAt, r.dequeuedAt)
				shSp.ChildInterval("compute", r.dequeuedAt, r.doneAt)
			}
			results[i] = r
			total += len(r.pairs)
		case <-ctx.Done():
			gsp.End()
			return nil, ctx.Err()
		}
	}
	gsp.End()
	// One allocation sized to the gathered total, instead of letting
	// append re-grow (and re-copy) the merged slice shard by shard.
	merged := make([]core.Pair, 0, total)
	for _, r := range results {
		merged = append(merged, r.pairs...)
	}
	msp := sp.Child("merge")
	core.SortPairs(merged)
	if e.cfg.Overrides != nil {
		merged = e.cfg.Overrides(merged, req.overrideScope())
	}
	msp.End()
	e.met.gather(req.op).ObserveSince(t0)
	return merged, nil
}

// state returns the shard state for generation gen with a read lease
// (the returned release func). A state behind gen is advanced first —
// in place when the delta log covers the gap, by a full rebuild
// otherwise (delta.go). A state AHEAD of gen is served as-is: it is the
// freshest view, and the caller's pre-mutation generation stamp only
// prevents its result from being cached.
func (e *Engine) state(gen uint64) (*shardState, func(), error) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, nil, ErrClosed
	}
	if e.cur.gen >= gen {
		return e.cur, e.mu.RUnlock, nil
	}
	e.mu.RUnlock()
	if err := e.advance(); err != nil {
		return nil, nil, err
	}
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return nil, nil, ErrClosed
	}
	return e.cur, e.mu.RUnlock, nil
}

// Close stops every shard worker. Subsequent requests return ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	stopWorkers(e.cur.shards)
}

// Snapshot reports the current shard layout, for /stats and tests.
func (e *Engine) Snapshot() Info {
	e.mu.RLock()
	defer e.mu.RUnlock()
	info := Info{
		Shards:           len(e.cur.shards),
		Generation:       e.cur.gen,
		HaloRadius:       e.cur.radius,
		CacheLen:         e.cache.len(),
		DeltasApplied:    e.deltasApplied.Load(),
		FullRebuilds:     e.fullRebuilds.Load(),
		FragmentRebuilds: e.fragRebuilds.Load(),
		CacheSurvived:    e.cacheSurvived.Load(),
		CacheEvicted:     e.cacheEvicted.Load(),
	}
	for _, w := range e.cur.shards {
		info.Fragments = append(info.Fragments, FragmentInfo{
			Shard: w.id, Owned: len(w.owned), Halo: w.haloLen,
		})
	}
	return info
}
