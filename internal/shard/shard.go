// Package shard is the sharded match-serving engine: it partitions the
// target graph G with an edge cut (Section VI-B's fragmentation, the
// same substrate the BSP engine parallelizes over), materializes one
// self-contained subgraph per shard with hop-bounded halo replication,
// and scatter-gathers VPair/APair requests across per-shard workers
// behind a generation-stamped result cache with admission control.
//
// Halo replication is what makes per-shard matching exact rather than
// approximate: each fragment's subgraph is closed under the
// neighborhoods parametric simulation inspects, out to the radius
// core.HaloRadius derives from the ranker path cap and the depth of
// G_D (full forward reachability when G_D is cyclic). A shard worker
// therefore runs a plain sequential core.Matcher — no cross-shard
// messages, no optimistic border assumptions — and its verdict for any
// owned candidate is provably identical to the whole-graph verdict.
// Only candidate generation is restricted: each shard considers
// exclusively the vertices it owns, so the union of per-shard match
// sets equals the whole-graph match set with no duplicates.
//
// The serving layer on top (router.go) bounds per-shard work queues,
// deduplicates concurrent identical requests singleflight-style,
// merges shard results through core.SortPairs, and sheds load with
// ErrOverloaded when queues are full instead of piling up goroutines.
// A single-pair check (SPair) skips the scatter and the cache: it is
// one task for the shard that owns the G-side vertex.
//
// The engine never shares a graph with its owner. Everything it matches
// over arrives through Config.Source as an Inputs value, whose graphs are
// graph.Copy values — only (*graph.Graph).Copy makes one — taken under
// the owner's lock together with the generation they belong to. The
// engine reads them, and grows them by delta replay, without any lock of
// the owner's; the owner publishes a mutation by bumping Generation,
// which advances or retires the state at the next request.
package shard

import (
	"fmt"
	"sort"
	"strconv"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/index"
	"her/internal/lstm"
	"her/internal/obs"
	"her/internal/ranking"
)

// Inputs is what an engine state is built from: what the owner reads
// under its mutation lock in one Source call. LM and the score functions
// inside Params are shared by all shard workers and must be safe for
// concurrent reads (scorers are memoized behind RWMutexes, a retrained
// language model is swapped in whole).
type Inputs struct {
	// GD is the canonical graph G_D (left side); it is not sharded —
	// requests address its vertices. G is the target graph to partition.
	GD, G graph.Copy
	// LM is the path language model guiding path growth on both sides
	// (may be nil: the deterministic PRA-greedy rule).
	LM *lstm.Model
	// Params are the parametric-simulation parameters (M_v, M_ρ, σ, δ, k).
	Params core.Params
	// MaxPathLen caps ranker paths on both sides (0 means the ranker
	// default of 4); the halo radius derives from it.
	MaxPathLen int
	// MinSharedTokens > 0 enables the blocking index (index.Blocking,
	// the System's candidate generation); 0 scans every owned vertex
	// (the testkit differential mode, mirroring a nil CandidateGen).
	MinSharedTokens int
	// Gen is the generation the copies were taken at. It anchors delta
	// replay: a state built from these copies plus the deltas (Gen, g] is
	// exactly the owner's state at g.
	Gen uint64
}

// Config is what stays fixed for an engine's life.
type Config struct {
	// Source reads one consistent Inputs from the owner. NewEngine calls
	// it once and every full rebuild once more — a System retrains its
	// language model and changes thresholds across generations — so each
	// engine state costs one deep copy of (G_D, G).
	Source func() Inputs
	// Shards is the number of fragments (>= 1).
	Shards int
	// CacheSize is the result-cache capacity in entries (default 1024;
	// negative disables the cache).
	CacheSize int
	// Generation reports the current mutation generation; results are
	// cached stamped with it, and a bump triggers maintenance at the
	// next request: delta application when Deltas covers the gap, a full
	// rebuild otherwise. Nil means the constant generation 0.
	Generation func() uint64
	// Deltas, when set alongside Generation, returns the typed deltas
	// recorded in (after, upto] so the engine can maintain its state in
	// place instead of rebuilding (DeltaLog.Since). ok=false — the log
	// was truncated or diverged — falls back to a full rebuild, as does
	// any DeltaReset in the range. Nil always rebuilds.
	Deltas func(after, upto uint64) ([]Delta, bool)
	// Overrides reconciles a merged match set with user-verified
	// verdicts (her.System.ApplyOverrides); nil means identity. scope
	// is the G_D vertex for VPair requests, graph.NoVertex for APair.
	Overrides func(matches []core.Pair, scope graph.VID) []core.Pair
	// Metrics receives the engine's instrumentation (nil disables it).
	Metrics *obs.Registry
}

// queueDepth bounds each shard's request queue; a full queue sheds the
// request with ErrOverloaded.
const queueDepth = 64

func (c Config) normalized() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	return c
}

func (c Config) validate() error {
	if c.Source == nil {
		return fmt.Errorf("shard: Source must be non-nil")
	}
	if c.Shards < 1 {
		return fmt.Errorf("shard: shard count must be >= 1, got %d", c.Shards)
	}
	return nil
}

// shardState is one generation of the engine: the partition, the
// materialized per-shard subgraphs and their workers. A mutation
// (generation bump) advances it at the next request — in place when the
// owner's delta log covers the gap (delta.go), by retiring the whole
// state and building a fresh one otherwise. All mutation happens under
// the engine write lock with quiesced workers; requests share it read-
// only.
type shardState struct {
	cfg     Config // the engine's fixed settings
	in      Inputs // what the owner handed over for this state
	gen     uint64
	gd      *graph.Graph    // private G_D (grown in place by deltas)
	g       *graph.Graph    // private G (delta replay + fragment rebuilds)
	rankerD *ranking.Ranker // h_r over gd, shared by all workers (its ecache is concurrency-safe)
	radius  int             // halo radius used (-1 = full forward closure)
	ix      *index.Inverted // blocking index over g (nil: blocking off); rebuilt per edge delta
	shards  []*shardWorker  // shards[i] owns fragment i
	owner   []int           // G vertex → index in shards of the fragment owning it
}

// shardWorker owns one fragment: its halo-closed subgraph (local vertex
// ids, ascending in global id so every id-based tie-break agrees with
// the whole-graph matcher), a sequential matcher over (G_D, subgraph),
// and a bounded request queue drained by a single goroutine.
type shardWorker struct {
	id          int
	g           *graph.Graph    // fragment + halo, local ids
	toGlobal    []graph.VID     // local id → global id (strictly increasing)
	toLocal     []graph.VID     // global id → local id (NoVertex = not here)
	depthOf     []int32         // local id → BFS depth from the owned set
	owned       []graph.VID     // local ids of owned vertices (candidates)
	ownedGlobal []graph.VID     // global ids of owned vertices (the fragment)
	haloLen     int             // replicated (non-owned) vertex count
	rankerG     *ranking.Ranker // this fragment's G-side ranker
	matcher     *core.Matcher
	gen         core.CandidateGen // candidate generator over owned vertices
	queue       chan *task
	// waitSeconds/computeSeconds attribute each task's enqueue→dequeue
	// and dequeue→done intervals per shard; nil (no registry) skips the
	// worker's clock reads unless the request itself is traced.
	waitSeconds    *obs.Histogram // her_shard_queue_wait_seconds{shard}
	computeSeconds *obs.Histogram // her_shard_compute_seconds{shard}
}

// newState asks the owner for its inputs, partitions G, materializes
// every fragment's halo-closed subgraph and starts one worker per shard.
func newState(cfg Config) (*shardState, error) {
	in := cfg.Source()
	gd, g := in.GD.Graph(), in.G.Graph()
	if gd == nil || g == nil {
		return nil, fmt.Errorf("shard: Source returned no copy of G_D or G")
	}
	part, err := graph.PartitionEdgeCut(g, cfg.Shards)
	if err != nil {
		return nil, err
	}
	st := &shardState{
		cfg: cfg, in: in, gen: in.Gen, gd: gd, g: g,
		rankerD: ranking.NewRanker(gd, in.LM, in.MaxPathLen),
		radius:  core.HaloRadius(gd, in.MaxPathLen),
		owner:   part.Of,
	}
	if in.MinSharedTokens > 0 {
		st.ix = index.Blocking(g, in.MinSharedTokens)
	}
	for i := range part.Fragments {
		w, err := st.buildWorker(&part.Fragments[i])
		if err != nil {
			stopWorkers(st.shards)
			return nil, err
		}
		st.shards = append(st.shards, w)
	}
	for _, w := range st.shards {
		wireWorker(cfg, w)
	}
	return st, nil
}

// wireWorker registers the worker's instrumentation (idempotent: the
// registry memoizes by name, so a rebuilt fragment reuses its series)
// and starts its drain goroutine.
func wireWorker(cfg Config, w *shardWorker) {
	w.waitSeconds = cfg.Metrics.Histogram(
		`her_shard_queue_wait_seconds{shard="`+strconv.Itoa(w.id)+`"}`, obs.TimeBuckets)
	w.computeSeconds = cfg.Metrics.Histogram(
		`her_shard_compute_seconds{shard="`+strconv.Itoa(w.id)+`"}`, obs.TimeBuckets)
	go w.run()
}

// expandEdges reports whether the out-edges of a vertex discovered at
// BFS depth d must be materialized: everything strictly inside the halo
// radius, or everything when the radius is unbounded.
func expandEdges(d, radius int) bool {
	return radius < 0 || d < radius
}

// buildWorker materializes one fragment: BFS forward from the owned set
// out to the halo radius, assign local ids in ascending global order
// (so ranker and matcher tie-breaks agree with the whole-graph run),
// copy the eligible out-edges in their original order, and assemble the
// worker's matcher and candidate generator.
func (st *shardState) buildWorker(frag *graph.Fragment) (*shardWorker, error) {
	g, radius := st.g, st.radius
	n := g.NumVertices()
	depthOf := make([]int32, n)
	for i := range depthOf {
		depthOf[i] = -1
	}
	members := make([]graph.VID, 0, len(frag.Owned))
	for _, gv := range frag.Owned {
		depthOf[gv] = 0
		members = append(members, gv)
	}
	frontier := frag.Owned
	for d := 0; len(frontier) > 0 && expandEdges(d, radius); d++ {
		next := make([]graph.VID, 0, len(frontier))
		for _, gv := range frontier {
			for _, e := range g.Out(gv) {
				if depthOf[e.To] < 0 {
					depthOf[e.To] = int32(d + 1)
					members = append(members, e.To)
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })

	sg := graph.New(len(members))
	toLocal := make([]graph.VID, n)
	for i := range toLocal {
		toLocal[i] = graph.NoVertex
	}
	toGlobal := make([]graph.VID, 0, len(members))
	ldepth := make([]int32, 0, len(members))
	for _, gv := range members {
		toLocal[gv] = sg.AddVertex(g.Label(gv))
		toGlobal = append(toGlobal, gv)
		ldepth = append(ldepth, depthOf[gv])
	}
	for _, gv := range members {
		if !expandEdges(int(depthOf[gv]), radius) {
			continue
		}
		for _, e := range g.Out(gv) {
			sg.MustAddEdge(toLocal[gv], toLocal[e.To], e.Label)
		}
	}

	owned := make([]graph.VID, 0, len(frag.Owned))
	ownedGlobal := make([]graph.VID, 0, len(frag.Owned))
	for _, gv := range frag.Owned {
		owned = append(owned, toLocal[gv])
	}
	sort.Slice(owned, func(a, b int) bool { return owned[a] < owned[b] })
	for _, lv := range owned {
		ownedGlobal = append(ownedGlobal, toGlobal[lv])
	}

	rankerG := ranking.NewRanker(sg, st.in.LM, st.in.MaxPathLen)
	m, err := core.NewMatcher(st.gd, sg, st.rankerD, rankerG, st.in.Params)
	if err != nil {
		return nil, err
	}
	m.SetMetrics(st.cfg.Metrics)
	w := &shardWorker{
		id:          frag.ID,
		g:           sg,
		toGlobal:    toGlobal,
		toLocal:     toLocal,
		depthOf:     ldepth,
		owned:       owned,
		ownedGlobal: ownedGlobal,
		haloLen:     len(members) - len(frag.Owned),
		rankerG:     rankerG,
		matcher:     m,
		queue:       make(chan *task, queueDepth),
	}
	// The candidate generators read the state's and the worker's fields,
	// not captured copies, so an in-place delta (grown owned set, rebuilt
	// index) is picked up without rebuilding the closure.
	if st.ix == nil {
		w.gen = func(graph.VID) []graph.VID { return w.owned }
		return w, nil
	}
	// The state's index lookup, kept to the vertices this shard owns, is
	// exactly the whole-graph candidate list restricted to them. Local
	// ids ascend in global id, so mapping keeps its order.
	ownedHere := func(v graph.VID) bool { return st.owner[v] == w.id }
	w.gen = func(u graph.VID) []graph.VID {
		cands := st.ix.Candidates(st.gd, u, ownedHere)
		for i, v := range cands {
			cands[i] = w.toLocal[v]
		}
		return cands
	}
	return w, nil
}

// stopWorkers closes every worker's queue; the drain loop exits after
// finishing (or skipping) whatever is still enqueued. Callers must
// guarantee no further enqueues (the engine does, by swapping states
// under the write lock).
func stopWorkers(workers []*shardWorker) {
	for _, w := range workers {
		close(w.queue)
	}
}

// FragmentInfo describes one shard of a built state for observability
// and tests.
type FragmentInfo struct {
	Shard int `json:"shard"`
	Owned int `json:"owned"`
	Halo  int `json:"halo"`
}

// Info is an engine snapshot: the shard layout of the current state
// plus lifetime maintenance counters (how many generations advanced via
// deltas versus full rebuilds, and how the vertex-scoped cache sweeps
// treated existing entries).
type Info struct {
	Shards     int    `json:"shards"`
	Generation uint64 `json:"generation"`
	HaloRadius int    `json:"haloRadius"` // -1 = full forward closure
	CacheLen   int    `json:"cacheEntries"`
	// DeltasApplied counts mutations maintained in place; FullRebuilds
	// counts state retirements (initial build excluded); FragmentRebuilds
	// counts single-fragment rebuilds on the delta path.
	DeltasApplied    uint64 `json:"deltasApplied"`
	FullRebuilds     uint64 `json:"fullRebuilds"`
	FragmentRebuilds uint64 `json:"fragmentRebuilds"`
	// CacheSurvived/CacheEvicted count how delta sweeps treated live
	// result-cache entries: survived entries were re-stamped to the new
	// generation without recomputation.
	CacheSurvived uint64         `json:"cacheSurvived"`
	CacheEvicted  uint64         `json:"cacheEvicted"`
	Fragments     []FragmentInfo `json:"fragments"`
}
