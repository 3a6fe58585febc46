// Package bsp is the GRAPE-style parallel engine of Section VI-B: it runs
// PAllMatch with n shared-nothing logical workers under the Bulk
// Synchronous Parallel model. Graph G is partitioned by edge-cut; each
// candidate pair (u, v) is owned by the worker whose fragment owns v.
// In the first superstep (PPSim) every worker optimistically assumes
// pairs involving non-owned ("border") vertices are valid and computes
// its partial result with AllParaMatch; at each synchronization barrier
// workers exchange two kinds of messages — evaluation requests for
// assumed pairs, and invalidations of pairs that flipped true→false — and
// then refine their partial results incrementally (IncPSim, which is the
// cleanup stage of ParaMatch applied to incoming invalidations). The
// computation reaches a fixpoint when a superstep produces no messages;
// Π is the union of the per-worker partial results.
//
// The graphs themselves are immutable and shared read-only between
// workers — a host-process optimization; every mutable structure (the
// cache/ecache state, subscriptions, partial results) is private to one
// worker, preserving the shared-nothing semantics of the paper.
package bsp

import (
	"errors"
	"fmt"
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
	// MaxSupersteps bounds the fixpoint loop as a safety net; 0 means
	// a generous default (1000). Run fails with ErrNotConverged when a
	// superstep at the bound still sends messages.
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
	Invalidations  int   // invalidation messages exchanged
	CandidatePairs int   // total candidate pairs across workers
	PerWorkerPairs []int // work division: candidates per worker
	Calls          int   // total ParaMatch invocations across workers
	PerWorkerCalls []int // work division: ParaMatch invocations per worker
	// SuperstepDurations records the wall time of each superstep (one
	// entry for the whole run under the asynchronous engine, which has
	// no barriers).
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
	superstep *obs.Histogram // her_bsp_superstep_seconds
	run       *obs.Histogram // her_bsp_run_seconds{mode=...}
	requests  *obs.Counter   // her_bsp_messages_total{kind="request"}
	invalid   *obs.Counter   // her_bsp_messages_total{kind="invalidation"}
	revalid   *obs.Counter   // her_bsp_messages_total{kind="revalidation"}
	pairs     *obs.Counter   // her_bsp_candidate_pairs_total
}

func (e *Engine) metrics(mode string) engineMetrics {
	r := e.Metrics
	return engineMetrics{
		superstep: r.Histogram("her_bsp_superstep_seconds", nil),
		run:       r.Histogram(`her_bsp_run_seconds{mode="`+mode+`"}`, nil),
		requests:  r.Counter(`her_bsp_messages_total{kind="request"}`),
		invalid:   r.Counter(`her_bsp_messages_total{kind="invalidation"}`),
		revalid:   r.Counter(`her_bsp_messages_total{kind="revalidation"}`),
		pairs:     r.Counter("her_bsp_candidate_pairs_total"),
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

// request asks the owner of a pair to evaluate it for a subscriber.
type request struct {
	p    core.Pair
	from int
}

// worker is one shared-nothing BSP worker.
type worker struct {
	id    int
	eng   *Engine
	m     *core.Matcher
	owns  func(graph.VID) bool
	cands []core.Pair

	subs map[core.Pair]map[int]bool // owned pair → subscriber workers

	// Per-superstep outboxes.
	newAssumed []core.Pair // delegated pairs assumed this superstep
	invalided  []core.Pair // owned pairs that flipped to invalid
	revalided  []core.Pair // owned pairs that flipped back to valid
	directInv  []message   // immediate responses to requests already known invalid
}

type message struct {
	p  core.Pair
	to int
}

// Run computes Π for the given G_D source vertices (nil means all) with
// cfg.Workers workers, returning the match set and run statistics.
func (e *Engine) Run(sources []graph.VID, gen core.CandidateGen, cfg Config) ([]core.Pair, Stats, error) {
	n := cfg.Workers
	if n < 1 {
		return nil, Stats{}, fmt.Errorf("bsp: Workers must be ≥ 1, got %d", n)
	}
	runStart := time.Now()
	met := e.metrics("bsp")
	maxSteps := cfg.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 1000
	}
	part, err := graph.PartitionEdgeCutSCC(e.G, n)
	if err != nil {
		return nil, Stats{}, err
	}

	// Build workers with private matchers.
	workers := make([]*worker, n)
	ms := make([]*core.Matcher, n)
	for i := 0; i < n; i++ {
		m, err := core.NewMatcher(e.GD, e.G, e.RD, e.RG, e.P)
		if err != nil {
			return nil, Stats{}, err
		}
		ms[i] = m
		m.EnableReadTracking()
		m.SetMetrics(e.Metrics)
		w := &worker{id: i, eng: e, m: m, subs: make(map[core.Pair]map[int]bool)}
		w.owns = func(v graph.VID) bool { return part.Of[v] == w.id }
		m.SetDelegate(func(p core.Pair) bool {
			if w.owns(p.V) {
				return false
			}
			if !w.m.IsAssumed(p) {
				w.newAssumed = append(w.newAssumed, p)
			}
			return true
		})
		m.SetOnInvalid(func(p core.Pair) {
			if w.owns(p.V) {
				w.invalided = append(w.invalided, p)
			}
		})
		m.SetOnRevalid(func(p core.Pair) {
			if w.owns(p.V) {
				w.revalided = append(w.revalided, p)
			}
		})
		workers[i] = w
	}

	cands, stats := e.distribute(ms, sources, gen, part, met)
	for i, w := range workers {
		w.cands = cands[i]
	}

	// Inboxes for the next superstep.
	inRequests := make([][]request, n)
	inInvalid := make([][]core.Pair, n)
	inRevalid := make([][]core.Pair, n)

	busy := true
	for step := 0; busy && step < maxSteps; step++ {
		stats.Supersteps++
		stepStart := time.Now()
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.superstep(step == 0, inRequests[w.id], inInvalid[w.id], inRevalid[w.id])
			}(w)
		}
		wg.Wait()

		// Barrier: route messages.
		nextReq := make([][]request, n)
		nextInv := make([][]core.Pair, n)
		nextRev := make([][]core.Pair, n)
		busy = false
		for _, w := range workers {
			for _, p := range w.newAssumed {
				owner := part.Of[p.V]
				nextReq[owner] = append(nextReq[owner], request{p: p, from: w.id})
				stats.Requests++
				met.requests.Inc()
				busy = true
			}
			for _, p := range w.invalided {
				for sub := range w.subs[p] {
					nextInv[sub] = append(nextInv[sub], p)
					stats.Invalidations++
					met.invalid.Inc()
					busy = true
				}
			}
			for _, p := range w.revalided {
				for sub := range w.subs[p] {
					nextRev[sub] = append(nextRev[sub], p)
					stats.Invalidations++
					met.revalid.Inc()
					busy = true
				}
			}
			for _, msg := range w.directInv {
				nextInv[msg.to] = append(nextInv[msg.to], msg.p)
				stats.Invalidations++
				met.invalid.Inc()
				busy = true
			}
			w.newAssumed, w.invalided, w.revalided, w.directInv = nil, nil, nil, nil
		}
		inRequests, inInvalid, inRevalid = nextReq, nextInv, nextRev
		stepDur := time.Since(stepStart)
		stats.SuperstepDurations = append(stats.SuperstepDurations, stepDur)
		met.superstep.Observe(stepDur.Seconds())
	}

	matches := union(&stats, ms, cands)
	stats.WallTime = time.Since(runStart)
	met.run.Observe(stats.WallTime.Seconds())
	if busy {
		return nil, stats, fmt.Errorf("%w (%d)", ErrNotConverged, maxSteps)
	}
	return matches, stats, nil
}

// distribute generates the candidate pairs of the source vertices (nil
// means every vertex of G_D) and deals each to the worker whose
// fragment owns its G-side vertex: one scan, mirroring
// Matcher.CandidatesFor, serves all workers. ms holds the workers'
// matchers; the state the scan warms in the one it borrows is discarded.
func (e *Engine) distribute(ms []*core.Matcher, sources []graph.VID, gen core.CandidateGen, part *graph.Partition, met engineMetrics) ([][]core.Pair, Stats) {
	if sources == nil {
		sources = make([]graph.VID, e.GD.NumVertices())
		for i := range sources {
			sources[i] = graph.VID(i)
		}
	}
	n, probe := len(ms), ms[0]
	cands := make([][]core.Pair, n)
	stats := Stats{Workers: n, PerWorkerPairs: make([]int, n)}
	for _, u := range sources {
		for _, v := range probe.CandidatesFor(u, gen) {
			cands[part.Of[v]] = append(cands[part.Of[v]], core.Pair{U: u, V: v})
			stats.CandidatePairs++
			stats.PerWorkerPairs[part.Of[v]]++
		}
	}
	probe.Reset()
	met.pairs.Add(int64(stats.CandidatePairs))
	return cands, stats
}

// union reads Π out of the final per-owner caches — the valid pairs
// among each worker's own candidates, sorted — and totals the workers'
// ParaMatch calls into stats. Candidate lists are disjoint across
// workers (owned by v), so no dedup is needed.
func union(stats *Stats, ms []*core.Matcher, cands [][]core.Pair) []core.Pair {
	matches := make([]core.Pair, 0, stats.CandidatePairs)
	stats.PerWorkerCalls = make([]int, len(ms))
	for i, m := range ms {
		stats.PerWorkerCalls[i] = m.Stats().Calls
		stats.Calls += stats.PerWorkerCalls[i]
		for _, p := range cands[i] {
			if valid, found := m.Cached(p); found && valid {
				matches = append(matches, p)
			}
		}
	}
	return core.SortPairs(matches)
}

// superstep processes one BSP round for the worker: apply incoming
// invalidations (IncPSim), serve evaluation requests, and in the first
// round evaluate the worker's own candidate pairs (PPSim).
func (w *worker) superstep(first bool, reqs []request, invs, revs []core.Pair) {
	for _, p := range invs {
		w.m.Invalidate(p)
	}
	for _, p := range revs {
		w.m.Revalidate(p)
	}
	for _, r := range reqs {
		set := w.subs[r.p]
		if set == nil {
			set = make(map[int]bool)
			w.subs[r.p] = set
		}
		set[r.from] = true
		if valid, found := w.m.Cached(r.p); found {
			if !valid {
				w.directInv = append(w.directInv, message{p: r.p, to: r.from})
			}
			continue
		}
		w.m.Match(r.p.U, r.p.V) // invalid results reach subscribers via the observer
	}
	if first {
		for _, p := range w.cands {
			if _, found := w.m.Cached(p); !found {
				w.m.Match(p.U, p.V)
			}
		}
	}
}
