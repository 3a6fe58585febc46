package shard

import (
	"errors"
	"slices"
	"sync"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/index"
)

// This file implements delta-aware maintenance: instead of retiring the
// whole shard state on every generation bump (an O(|G|) re-clone plus
// repartition per write), the engine consumes typed deltas from its
// owner and applies them to the private snapshots in place — the
// IncPSim discipline of Section VI-B remark 2 lifted to the serving
// layer. A delta is routed only to fragments whose halo-closed
// subgraphs actually materialize the touched vertices; everything else
// keeps its warm matcher caches, and the result cache evicts only the
// entries whose key vertices can reach the touched region (vertex-
// scoped invalidation) instead of the whole cache.

// DeltaKind classifies one recorded mutation.
type DeltaKind uint8

const (
	// DeltaReset marks a non-incremental change (feedback, retraining,
	// threshold updates, model reload): verdicts may change anywhere, so
	// the engine must fall back to a full rebuild.
	DeltaReset DeltaKind = iota
	// DeltaTuple is an AddTuple: G_D grew a fresh region (a tuple vertex
	// plus attribute leaves; edges only leave the new vertices, so no old
	// verdict is affected).
	DeltaTuple
	// DeltaGraphVertex is an AddGraphVertex: G gained one isolated vertex.
	DeltaGraphVertex
	// DeltaGraphEdge is an AddGraphEdge: G gained one edge.
	DeltaGraphEdge
)

// GDEdge is one canonical-graph edge carried by a DeltaTuple.
type GDEdge struct {
	From, To graph.VID
	Label    string
}

// Delta is one typed mutation, stamped with the generation it produced.
// The engine replays deltas in generation order against its private
// graph mirrors, so a mirror at generation g plus the deltas (g, g']
// reconstructs the owner's graphs at g' exactly.
type Delta struct {
	Gen  uint64
	Kind DeltaKind

	// DeltaTuple: the new G_D vertices are [GDBase, GDBase+len(GDLabels))
	// in id order, with GDEdges grouped by source in insertion order.
	GDBase   int
	GDLabels []string
	GDEdges  []GDEdge

	// DeltaGraphVertex: the new vertex id (must equal the mirror's next
	// id — a mismatch means the log and mirror diverged).
	V graph.VID
	// DeltaGraphEdge endpoints.
	From, To graph.VID
	// Label is the vertex label (DeltaGraphVertex) or edge label
	// (DeltaGraphEdge).
	Label string
}

// DeltaLog is a bounded ring of recorded deltas, dense in generations:
// every generation bump records exactly one delta, so the log covers a
// contiguous suffix of history. Owners record under their mutation
// lock; the engine reads concurrently through Since. The zero value is
// an empty log.
type DeltaLog struct {
	mu  sync.Mutex
	buf []Delta // guarded by mu — ascending Gen; the oldest dropped past deltaLogCap
}

// deltaLogCap is how many of the most recent deltas a log retains. An
// engine further behind than that rebuilds in full.
const deltaLogCap = 1024

// Record appends d. Callers must record deltas with strictly increasing
// Gen (the owner's mutation lock serializes them).
func (l *DeltaLog) Record(d Delta) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) >= deltaLogCap {
		n := copy(l.buf, l.buf[len(l.buf)-deltaLogCap+1:])
		l.buf = l.buf[:n]
	}
	l.buf = append(l.buf, d)
}

// Since returns the deltas with Gen in (after, upto], in order. ok is
// false when the log no longer covers that range contiguously (the ring
// dropped older entries), in which case the caller must fall back to a
// full rebuild.
func (l *DeltaLog) Since(after, upto uint64) ([]Delta, bool) {
	if after >= upto {
		return nil, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) == 0 || l.buf[0].Gen > after+1 || l.buf[len(l.buf)-1].Gen < upto {
		return nil, false
	}
	out := make([]Delta, 0, upto-after)
	for _, d := range l.buf {
		if d.Gen > after && d.Gen <= upto {
			out = append(out, d)
		}
	}
	if uint64(len(out)) != upto-after {
		return nil, false // gap: generations are dense, so this is divergence
	}
	return out, true
}

// errDeltaRebuild signals that a delta cannot be applied in place and
// the engine must fall back to a full rebuild. It never escapes advance.
var errDeltaRebuild = errors.New("shard: delta requires full rebuild")

// advance brings the current state up to the owner's generation: by
// applying the recorded deltas in place when the log covers the gap and
// every delta is incremental, by a full rebuild otherwise. Runs under
// the write lock, which excludes every in-flight request; quiesce then
// drains the worker queues so no worker goroutine touches shared state
// while it is mutated.
func (e *Engine) advance() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	target := e.generation()
	if e.cur.gen >= target {
		return nil // raced with another advancer
	}
	if e.cfg.Deltas != nil {
		if deltas, ok := e.cfg.Deltas(e.cur.gen, target); ok && incrementalOnly(deltas) {
			if err := e.applyDeltasLocked(deltas); err == nil {
				e.cur.gen = target
				e.ready.Store(target)
				return nil
			} else if err != errDeltaRebuild {
				return err
			}
		}
	}
	st, err := newState(e.cfg)
	if err != nil {
		return err
	}
	stopWorkers(e.cur.shards)
	e.cur = st
	e.ready.Store(st.gen)
	e.fullRebuilds.Add(1)
	e.met.rebuilds.Inc()
	return nil
}

// incrementalOnly reports whether every delta can be applied in place
// (no DeltaReset poison pill).
func incrementalOnly(deltas []Delta) bool {
	for i := range deltas {
		if deltas[i].Kind == DeltaReset {
			return false
		}
	}
	return len(deltas) > 0
}

// applyDeltasLocked quiesces the workers and replays the batch in
// generation order, advancing the result cache after each delta so
// surviving entries are re-stamped exactly once per generation. Any
// error leaves the state partially mutated; the caller discards it with
// a full rebuild, so nothing corrupt is ever served. Callers hold
// e.mu for writing (advance does), which excludes every request lease.
func (e *Engine) applyDeltasLocked(deltas []Delta) error {
	st := e.cur
	st.quiesce()
	for i := range deltas {
		if err := e.applyDelta(st, &deltas[i]); err != nil {
			return err
		}
		e.deltasApplied.Add(1)
		e.met.deltasApplied.Inc()
	}
	return nil
}

func (e *Engine) applyDelta(st *shardState, d *Delta) error {
	switch d.Kind {
	case DeltaTuple:
		return e.applyTupleDelta(st, d)
	case DeltaGraphVertex:
		return e.applyVertexDelta(st, d)
	case DeltaGraphEdge:
		return e.applyEdgeDelta(st, d)
	default:
		return errDeltaRebuild
	}
}

// applyTupleDelta grows the private G_D mirror with the tuple's fresh
// region. No fragment is touched: G is unchanged, the new G_D vertices
// have no incoming edges from old vertices (view.ExtendTuple only adds
// edges leaving them), so every cached verdict and ranker entry stays
// valid, and the shared RankerD evaluates the new vertices lazily. Only
// unscoped APair entries are evicted from the result cache — they must
// now include the new tuple's matches — so VPair and explicit-source
// APair entries survive the write. The one structural escape hatch: a
// foreign-key edge into an old tuple can deepen (or knot) G_D and
// change the halo radius, in which case the fragments are no longer
// closed widely enough and the engine falls back to a full rebuild.
func (e *Engine) applyTupleDelta(st *shardState, d *Delta) error {
	if st.gd.NumVertices() != d.GDBase {
		return errDeltaRebuild // mirror diverged from the log
	}
	for _, lbl := range d.GDLabels {
		st.gd.AddVertex(lbl)
	}
	for _, ge := range d.GDEdges {
		if ge.From < graph.VID(d.GDBase) || st.gd.AddEdge(ge.From, ge.To, ge.Label) != nil {
			return errDeltaRebuild
		}
	}
	if core.HaloRadius(st.gd, st.in.MaxPathLen) != st.radius {
		return errDeltaRebuild
	}
	e.sweepCache(st, d.Gen, func(r request) bool {
		return r.op == opAPair && r.all
	})
	return nil
}

// applyVertexDelta appends one isolated vertex to the G mirror and to
// exactly one fragment, chosen as the least-owned (ownership placement
// is free: halo closure makes every per-pair verdict independent of
// which fragment owns the candidate, so any disjoint cover yields the
// same merged result). The new id is the global maximum, so appending
// preserves the ascending-global-id invariant every tie-break relies
// on. A fresh vertex is a leaf: the blocking index ignores it and no
// cached decision references it, so with blocking on, nothing is
// evicted; without blocking every candidate scan now includes it, so
// all match entries go.
func (e *Engine) applyVertexDelta(st *shardState, d *Delta) error {
	if st.g.AddVertex(d.Label) != d.V {
		return errDeltaRebuild // mirror diverged from the log
	}
	i := 0
	for j, cand := range st.shards {
		if len(cand.owned) < len(st.shards[i].owned) {
			i = j
		}
	}
	st.owner = append(st.owner, i)
	w := st.shards[i]
	lv := w.g.AddVertex(d.Label)
	w.setLocal(d.V, lv)
	w.toGlobal = append(w.toGlobal, d.V)
	w.depthOf = append(w.depthOf, 0)
	w.owned = append(w.owned, lv)
	w.ownedGlobal = append(w.ownedGlobal, d.V)
	e.sweepCache(st, d.Gen, func(request) bool { return st.ix == nil })
	return nil
}

// applyEdgeDelta adds one G edge. Fragment routing follows the halo
// rule: a fragment is affected iff it materializes the source vertex at
// a depth whose out-edges are expanded (expandEdges) — anywhere else
// the edge is provably never inspected, because every owned candidate
// sits at least the full halo radius away. Affected fragments first try
// an in-place graft (append the edge, pull newly reachable vertices
// into the halo when their global ids keep the local order ascending);
// when the graft would reorder ids or shrink a depth (which could shift
// the expansion frontier), just that fragment is rebuilt from the
// mirrors — still no global re-clone. In-place fragments then drop the
// ranker entries and cached decisions of every vertex within MaxPathLen
// reverse hops of the source (plus transitive dependants), mirroring
// System.AddGraphEdge's IncPSim rule. The state's blocking index is
// rebuilt once (the source's neighborhood doc changed), and the shard
// owning the source counts as touched for the cache sweep even when the
// halo rule routes it nothing: its candidate sets may have changed.
func (e *Engine) applyEdgeDelta(st *shardState, d *Delta) error {
	if !st.g.Valid(d.From) || !st.g.Valid(d.To) {
		return errDeltaRebuild
	}
	if err := st.g.AddEdge(d.From, d.To, d.Label); err != nil {
		return errDeltaRebuild
	}
	maxLen := st.in.MaxPathLen
	if maxLen <= 0 {
		maxLen = 4
	}
	forget := st.g.ReverseRegion(d.From, maxLen)

	touched := make([]bool, len(st.shards)) // by shard index
	for i, w := range st.shards {
		lfrom, ok := w.localOf(d.From)
		if !ok || !expandEdges(int(w.depthOf[lfrom]), st.radius) {
			continue
		}
		if w.applyEdgeInPlace(st, d, lfrom) {
			region := w.localRegion(forget)
			for lv := range region {
				w.rankerG.Invalidate(lv)
			}
			w.matcher.ForgetVertices(func(v graph.VID) bool { return region[v] })
		} else {
			nw, err := st.rebuildWorker(w)
			if err != nil {
				return err
			}
			close(w.queue)
			st.shards[i] = nw
			e.fragRebuilds.Add(1)
			e.met.fragRebuilds.Inc()
		}
		touched[i] = true
	}
	if st.ix != nil {
		st.ix = index.Blocking(st.g, st.in.MinSharedTokens)
		touched[st.owner[d.From]] = true
	}

	if !slices.Contains(touched, true) {
		// The source is at most a halo-frontier vertex everywhere: its
		// out-edges are never inspected, no verdict or candidate set can
		// change, so every cache entry survives untouched.
		e.sweepCache(st, d.Gen, func(request) bool { return false })
		return nil
	}
	// Cache scoping: a cached result can change only if one of its
	// candidates reaches the edge's source within the halo radius (the
	// matcher never reads G beyond that) and is owned by a touched shard;
	// candidate sets themselves only grow under edge addition, and any
	// gained candidate is the source itself, so probing the post-update
	// blocking index is sound.
	evict := st.g.ReverseRegion(d.From, st.radius)
	affected := func(v graph.VID) bool { return evict[v] && touched[st.owner[v]] }
	e.sweepCache(st, d.Gen, func(r request) bool {
		if st.ix == nil {
			return true // candidates are all owned vertices: always in range
		}
		if r.op == opAPair && r.all {
			return true
		}
		probe := func(u graph.VID) bool {
			return !st.gd.Valid(u) || st.ix.Candidates(st.gd, u, affected) != nil
		}
		if r.op == opVPair {
			return probe(r.u)
		}
		for _, u := range r.sources() {
			if probe(u) {
				return true
			}
		}
		return false
	})
	return nil
}

// applyEdgeInPlace grafts the new edge (and any vertices it pulls into
// the halo) onto the worker's subgraph. It reports false when the graft
// cannot preserve the worker's invariants — a pulled vertex whose
// global id is not past the current maximum (local ids must stay
// ascending in global id), or a depth decrease for an existing member
// (the expansion frontier could shift) — in which case the caller
// rebuilds the fragment and discards the partial mutation with it.
func (w *shardWorker) applyEdgeInPlace(st *shardState, d *Delta, lfrom graph.VID) bool {
	type pend struct {
		lfrom graph.VID
		to    graph.VID // global
		label string
		depth int32 // candidate depth of to
	}
	queue := []pend{{lfrom: lfrom, to: d.To, label: d.Label, depth: w.depthOf[lfrom] + 1}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if lto, ok := w.localOf(p.to); ok {
			if p.depth < w.depthOf[lto] {
				return false
			}
			w.g.MustAddEdge(p.lfrom, lto, p.label)
			continue
		}
		if len(w.toGlobal) > 0 && p.to <= w.toGlobal[len(w.toGlobal)-1] {
			return false
		}
		lto := w.g.AddVertex(st.g.Label(p.to))
		w.setLocal(p.to, lto)
		w.toGlobal = append(w.toGlobal, p.to)
		w.depthOf = append(w.depthOf, p.depth)
		w.haloLen++
		w.g.MustAddEdge(p.lfrom, lto, p.label)
		if expandEdges(int(p.depth), st.radius) {
			for _, ge := range st.g.Out(p.to) {
				queue = append(queue, pend{lfrom: lto, to: ge.To, label: ge.Label, depth: p.depth + 1})
			}
		}
	}
	return true
}

// rebuildWorker rebuilds one fragment from the state's private mirrors,
// keeping its owned set (including vertices assigned since the last
// full partition). The old worker keeps serving nothing — advance holds
// the write lock — and is retired by the caller.
func (st *shardState) rebuildWorker(old *shardWorker) (*shardWorker, error) {
	w, err := st.buildWorker(&graph.Fragment{ID: old.id, Owned: old.ownedGlobal})
	if err != nil {
		return nil, err
	}
	wireWorker(st.cfg, w)
	return w, nil
}

// sweepCache advances every live entry to generation gen, evicting the
// ones the delta affects (and any strays from older generations). The
// survival counters feed the benchmark's shard.cache_survival_ratio.
func (e *Engine) sweepCache(st *shardState, gen uint64, affects func(request) bool) {
	survived, evicted := e.cache.advance(gen, affects)
	e.cacheSurvived.Add(uint64(survived))
	e.cacheEvicted.Add(uint64(evicted))
	e.met.cacheSurvived.Add(int64(survived))
	e.met.cacheEvicted.Add(int64(evicted))
}

// quiesce drains every worker queue with a barrier task: workers serve
// FIFO, so once each has acknowledged its barrier, no worker goroutine
// is touching matcher or subgraph state — abandoned tasks left behind
// by cancelled requests included. New enqueues are excluded by the
// engine write lock the caller holds.
func (st *shardState) quiesce() {
	acks := make([]chan taskResult, 0, len(st.shards))
	for _, w := range st.shards {
		t := &task{req: request{op: opBarrier}, reply: make(chan taskResult, 1)}
		w.queue <- t
		acks = append(acks, t.reply)
	}
	for _, c := range acks {
		<-c
	}
}

// localOf resolves a global vertex id to the worker's local id.
func (w *shardWorker) localOf(gv graph.VID) (graph.VID, bool) {
	if int(gv) >= len(w.toLocal) || w.toLocal[gv] == graph.NoVertex {
		return graph.NoVertex, false
	}
	return w.toLocal[gv], true
}

// setLocal records the local id of a global vertex, growing the lookup
// table as the mirror graph grows.
func (w *shardWorker) setLocal(gv, lv graph.VID) {
	for len(w.toLocal) <= int(gv) {
		w.toLocal = append(w.toLocal, graph.NoVertex)
	}
	w.toLocal[gv] = lv
}

// localRegion maps a set of global vertex ids to the worker's local ids
// (dropping vertices this fragment does not materialize).
func (w *shardWorker) localRegion(global map[graph.VID]bool) map[graph.VID]bool {
	out := make(map[graph.VID]bool)
	for gv := range global {
		if lv, ok := w.localOf(gv); ok {
			out[lv] = true
		}
	}
	return out
}
