// Package bsp is the GRAPE-style parallel engine of Section VI-B: it runs
// PAllMatch with n shared-nothing logical workers. Graph G is partitioned
// by edge-cut; each candidate pair (u, v) is owned by the worker whose
// fragment owns v. Every worker first evaluates its own candidates with
// AllParaMatch (PPSim), optimistically assuming that pairs owned by
// another worker ("border" pairs) are valid; the first assumption of a
// pair sends its owner an evaluation request, which subscribes the
// asker. When an owned pair turns false, the owner sends an invalidation
// to its subscribers, which refine their partial results incrementally
// (IncPSim, the cleanup stage of ParaMatch applied to the incoming
// message). The ParaMatch step is monotone, so a false verdict is final
// and every pair is invalidated at most once. Once no message is left,
// Π is the union of the per-worker partial results.
//
// One worker and one message type serve two schedulers: Run exchanges
// messages at Bulk Synchronous Parallel superstep barriers, RunAsync
// delivers them through per-worker mailboxes as they are sent (the
// paper's remark 1).
//
// The graphs themselves are immutable and shared read-only between
// workers — a host-process optimization; every mutable structure (the
// cache/ecache state, subscriptions, partial results) is private to one
// worker, preserving the shared-nothing semantics of the paper.
package bsp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/obs"
	"her/internal/ranking"
)

// Config configures a parallel run.
type Config struct {
	Workers int // n; must be ≥ 1
	// MaxSupersteps bounds Run's fixpoint loop as a safety net; 0 means
	// a generous default (1000). Run fails with ErrNotConverged when a
	// superstep at the bound still sends messages. RunAsync has no
	// supersteps and ignores it.
	MaxSupersteps int
}

// ErrNotConverged is returned, wrapped with the bound, when Run reaches
// Config.MaxSupersteps with messages still pending: the union of the
// partial results at that point is not Π, so Run returns no matches.
var ErrNotConverged = errors.New("bsp: no fixpoint within the superstep bound")

// Stats describes one PAllMatch run.
type Stats struct {
	Workers        int
	Supersteps     int
	Requests       int   // evaluation-request messages exchanged
	Invalidations  int   // invalidation messages: at most one per refuted pair and subscriber
	CandidatePairs int   // total candidate pairs across workers
	PerWorkerPairs []int // work division: candidates per worker
	Calls          int   // total ParaMatch invocations across workers
	PerWorkerCalls []int // work division: ParaMatch invocations per worker
	// SuperstepDurations records the wall time of each superstep (one
	// entry for the whole run under RunAsync, which has no barriers).
	SuperstepDurations []time.Duration
	WallTime           time.Duration // total run wall time
}

// Engine computes all matches across G_D and G in parallel.
type Engine struct {
	GD, G *graph.Graph
	RD    *ranking.Ranker
	RG    *ranking.Ranker
	P     core.Params
	// Metrics, when non-nil, receives superstep/message/run metrics and
	// is propagated to every worker's matcher for phase counters.
	Metrics *obs.Registry
}

// engineMetrics resolves the engine's registry handles (all nil when
// Metrics is nil, making every recording a no-op).
type engineMetrics struct {
	superstep *obs.Histogram      // her_bsp_superstep_seconds
	run       *obs.Histogram      // her_bsp_run_seconds{mode=...}
	messages  [kinds]*obs.Counter // her_bsp_messages_total{kind=...}
	pairs     *obs.Counter        // her_bsp_candidate_pairs_total
}

func (e *Engine) metrics(mode string) engineMetrics {
	r := e.Metrics
	return engineMetrics{
		superstep: r.Histogram("her_bsp_superstep_seconds", nil),
		run:       r.Histogram(`her_bsp_run_seconds{mode="`+mode+`"}`, nil),
		messages: [kinds]*obs.Counter{
			invalidation: r.Counter(`her_bsp_messages_total{kind="invalidation"}`),
			request:      r.Counter(`her_bsp_messages_total{kind="request"}`),
		},
		pairs: r.Counter("her_bsp_candidate_pairs_total"),
	}
}

// NewEngine creates a parallel engine; the rankers may be shared with a
// sequential matcher (they are safe for concurrent use).
func NewEngine(gd, g *graph.Graph, rd, rg *ranking.Ranker, p core.Params) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if gd == nil || g == nil || rd == nil || rg == nil {
		return nil, fmt.Errorf("bsp: graphs and rankers must be non-nil")
	}
	return &Engine{GD: gd, G: g, RD: rd, RG: rg, P: p}, nil
}

// msgKind says what a message asks of its receiver. The order is the
// order in which Run applies one superstep's inbox.
type msgKind int

const (
	invalidation msgKind = iota // the owner refuted p
	request                     // evaluate p and subscribe the sender to it
	kinds
)

// message is the one PAllMatch message, from worker from to worker to.
type message struct {
	p        core.Pair
	from, to int
	kind     msgKind
}

// run is one PAllMatch computation: the workers over one partition of G,
// and the scheduler's delivery of their messages.
type run struct {
	part    *graph.Partition
	workers []*worker
	met     engineMetrics
	began   time.Time
	stats   Stats
	// post delivers a sent message. The scheduler installs it before any
	// worker runs; it is called on the sending worker's goroutine.
	post func(message)
}

// worker is one shared-nothing PAllMatch worker. Everything in it is
// touched only by the goroutine that runs the worker.
type worker struct {
	id    int
	r     *run
	m     *core.Matcher // private, bordered by the fragment
	cands []core.Pair
	subs  map[core.Pair]map[int]bool // owned pair → subscriber workers
	sent  [kinds]int
}

// start checks the worker count, partitions G, gives every worker a
// private matcher bordered by its fragment, and deals out the candidate
// pairs of the source vertices (nil means every vertex of G_D).
func (e *Engine) start(mode string, sources []graph.VID, gen core.CandidateGen, cfg Config) (*run, error) {
	n := cfg.Workers
	if n < 1 {
		return nil, fmt.Errorf("bsp: Workers must be ≥ 1, got %d", n)
	}
	r := &run{met: e.metrics(mode), began: time.Now()}
	var err error
	if r.part, err = graph.PartitionEdgeCut(e.G, n); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m, err := core.NewMatcher(e.GD, e.G, e.RD, e.RG, e.P)
		if err != nil {
			return nil, err
		}
		m.SetMetrics(e.Metrics)
		w := &worker{id: i, r: r, m: m, subs: make(map[core.Pair]map[int]bool)}
		m.SetBorder(core.Border{Delegate: w.delegate, OnInvalid: w.notify})
		r.workers = append(r.workers, w)
	}

	// One scan, mirroring Matcher.CandidatesFor, serves all workers; the
	// state it warms in the matcher it borrows is discarded.
	if sources == nil {
		sources = make([]graph.VID, e.GD.NumVertices())
		for i := range sources {
			sources[i] = graph.VID(i)
		}
	}
	r.stats = Stats{Workers: n, PerWorkerPairs: make([]int, n)}
	probe := r.workers[0].m
	for _, u := range sources {
		for _, v := range probe.CandidatesFor(u, gen) {
			w := r.workers[r.part.Of[v]]
			w.cands = append(w.cands, core.Pair{U: u, V: v})
			r.stats.PerWorkerPairs[w.id]++
			r.stats.CandidatePairs++
		}
	}
	probe.Reset()
	r.met.pairs.Add(int64(r.stats.CandidatePairs))
	return r, nil
}

// finish totals the workers' messages and ParaMatch calls into the run's
// Stats and reads Π out of the final per-owner caches: the valid pairs
// among each worker's own candidates, sorted. Candidate lists are
// disjoint across workers (owned by v), so no dedup is needed.
func (r *run) finish() []core.Pair {
	st := &r.stats
	matches := make([]core.Pair, 0, st.CandidatePairs)
	st.PerWorkerCalls = make([]int, len(r.workers))
	for i, w := range r.workers {
		st.Requests += w.sent[request]
		st.Invalidations += w.sent[invalidation]
		st.PerWorkerCalls[i] = w.m.Stats().Calls
		st.Calls += st.PerWorkerCalls[i]
		for _, p := range w.cands {
			if valid, found := w.m.Cached(p); found && valid {
				matches = append(matches, p)
			}
		}
	}
	st.WallTime = time.Since(r.began)
	r.met.run.Observe(st.WallTime.Seconds())
	return core.SortPairs(matches)
}

// delegate is the worker's border: a pair whose G-side vertex another
// fragment owns is assumed valid, and its first assumption asks the
// owner to evaluate it.
func (w *worker) delegate(p core.Pair) bool {
	owner := w.r.part.Of[p.V]
	if owner == w.id {
		return false
	}
	if !w.m.IsAssumed(p) {
		w.send(message{p: p, from: w.id, to: owner, kind: request})
	}
	return true
}

// notify tells the subscribers of an owned pair that it turned false;
// they are looked up then, so a later subscriber is answered by handle
// instead.
func (w *worker) notify(p core.Pair) {
	if w.r.part.Of[p.V] != w.id {
		return
	}
	for sub := range w.subs[p] {
		w.send(message{p: p, from: w.id, to: sub, kind: invalidation})
	}
}

// send counts a message into the worker's Stats and the run's metrics
// and hands it to the scheduler.
func (w *worker) send(msg message) {
	w.sent[msg.kind]++
	w.r.met.messages[msg.kind].Inc()
	w.r.post(msg)
}

// handle processes one incoming message: an invalidation runs the
// IncPSim cleanup, and a request subscribes the asker, then evaluates
// the pair on demand or, when it is already known invalid, replies at
// once.
func (w *worker) handle(msg message) {
	switch msg.kind {
	case invalidation:
		w.m.Invalidate(msg.p)
	case request:
		set := w.subs[msg.p]
		if set == nil {
			set = make(map[int]bool)
			w.subs[msg.p] = set
		}
		set[msg.from] = true
		if valid, found := w.m.Cached(msg.p); !found {
			w.m.Match(msg.p.U, msg.p.V) // a refutation reaches the asker through notify
		} else if !valid {
			w.send(message{p: msg.p, from: w.id, to: msg.from, kind: invalidation})
		}
	}
}

// evaluateOwn is PPSim: evaluate every own candidate not yet decided.
func (w *worker) evaluateOwn() {
	for _, p := range w.cands {
		if _, found := w.m.Cached(p); !found {
			w.m.Match(p.U, p.V)
		}
	}
}

// Run computes Π for the given G_D source vertices (nil means all) with
// cfg.Workers workers under the BSP model, returning the match set and
// run statistics. In the first superstep every worker evaluates its own
// candidates; at each barrier the workers' outboxes are routed in worker
// order, and in the next superstep each worker applies its inbox —
// invalidations, then requests. The fixpoint is a
// superstep that sends no message; a run still sending at
// cfg.MaxSupersteps fails with ErrNotConverged.
func (e *Engine) Run(sources []graph.VID, gen core.CandidateGen, cfg Config) ([]core.Pair, Stats, error) {
	maxSteps := cfg.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 1000
	}
	r, err := e.start("bsp", sources, gen, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	n := len(r.workers)
	outboxes := make([][]message, n) // by sender: a worker appends only to its own
	r.post = func(msg message) { outboxes[msg.from] = append(outboxes[msg.from], msg) }
	inboxes := make([][]message, n)

	busy := true
	for step := 0; busy && step < maxSteps; step++ {
		stepStart := time.Now()
		var wg sync.WaitGroup
		for i, w := range r.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, msg := range inboxes[i] {
					w.handle(msg)
				}
				if step == 0 {
					w.evaluateOwn()
				}
			}()
		}
		wg.Wait()

		// Barrier: route the messages.
		inboxes = make([][]message, n)
		busy = false
		for i, out := range outboxes {
			for _, msg := range out {
				inboxes[msg.to] = append(inboxes[msg.to], msg)
				busy = true
			}
			outboxes[i] = out[:0]
		}
		for _, in := range inboxes {
			slices.SortStableFunc(in, func(a, b message) int { return cmp.Compare(a.kind, b.kind) })
		}
		stepDur := time.Since(stepStart)
		r.stats.Supersteps++
		r.stats.SuperstepDurations = append(r.stats.SuperstepDurations, stepDur)
		r.met.superstep.Observe(stepDur.Seconds())
	}

	matches := r.finish()
	if busy {
		return nil, r.stats, fmt.Errorf("%w (%d)", ErrNotConverged, maxSteps)
	}
	return matches, r.stats, nil
}
