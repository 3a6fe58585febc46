package shard

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/obs"
)

func exactMv(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

func exactMrho(a, b []string) float64 {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return 0
		}
	}
	return 1
}

func testParams() core.Params {
	return core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 0.9, Delta: 1.5, K: 2}
}

// fixtureGD builds an acyclic G_D: tuple → name, tuple → addr → city.
func fixtureGD() *graph.Graph {
	gd := graph.New()
	tup := gd.AddVertex("person:alice")
	name := gd.AddVertex("alice")
	addr := gd.AddVertex("addr:1")
	city := gd.AddVertex("springfield")
	gd.MustAddEdge(tup, name, "name")
	gd.MustAddEdge(tup, addr, "addr")
	gd.MustAddEdge(addr, city, "city")
	return gd
}

// fixtureG builds a deterministic target graph: copies of the G_D
// pattern chained into a long spine so halo closure actually has depth
// to exercise, plus unlabeled-noise branches.
func fixtureG(copies int) *graph.Graph {
	g := graph.New()
	var prev graph.VID = graph.NoVertex
	for i := 0; i < copies; i++ {
		tup := g.AddVertex("person:alice")
		name := g.AddVertex("alice")
		addr := g.AddVertex("addr:1")
		city := g.AddVertex("springfield")
		noise := g.AddVertex("noise")
		g.MustAddEdge(tup, name, "name")
		g.MustAddEdge(tup, addr, "addr")
		g.MustAddEdge(addr, city, "city")
		g.MustAddEdge(city, noise, "seen_in")
		if prev != graph.NoVertex {
			g.MustAddEdge(prev, tup, "next")
		}
		prev = noise
	}
	return g
}

func fixtureConfig(shards int) Config {
	return configOver(fixtureGD(), fixtureG(8), 0, shards)
}

// configOver is an engine config over copies of the given graphs, at
// the constant generation 0.
func configOver(gd, g *graph.Graph, minShared, shards int) Config {
	return Config{
		Source: func() Inputs {
			return Inputs{GD: gd.Copy(), G: g.Copy(), Params: testParams(), MinSharedTokens: minShared}
		},
		Shards: shards,
	}
}

func TestExpandEdges(t *testing.T) {
	for _, tc := range []struct {
		d, radius int
		want      bool
	}{
		{d: 0, radius: 0, want: false}, // radius 0: labels only, blocking or not
		{d: 0, radius: 3, want: true},
		{d: 2, radius: 3, want: true},
		{d: 3, radius: 3, want: false}, // frontier: labels only
		{d: 7, radius: -1, want: true}, // unbounded: everything expands
	} {
		if got := expandEdges(tc.d, tc.radius); got != tc.want {
			t.Errorf("expandEdges(%d, %d) = %v, want %v", tc.d, tc.radius, got, tc.want)
		}
	}
}

// globalDepths BFSes g forward from the seed set, returning min hop
// distances (-1 = unreachable).
func globalDepths(g *graph.Graph, seeds []graph.VID) []int {
	depth := make([]int, g.NumVertices())
	for i := range depth {
		depth[i] = -1
	}
	var frontier []graph.VID
	for _, v := range seeds {
		depth[v] = 0
		frontier = append(frontier, v)
	}
	for d := 0; len(frontier) > 0; d++ {
		var next []graph.VID
		for _, v := range frontier {
			for _, e := range g.Out(v) {
				if depth[e.To] < 0 {
					depth[e.To] = d + 1
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	return depth
}

// checkWorkerClosure asserts the halo-closure invariant for one worker:
// every global vertex within the radius of the owned set is replicated
// with an identical label, vertices strictly inside the radius carry
// their complete out-edge list in global order, and local ids ascend in
// global id so id tie-breaks agree with the whole-graph matcher.
func checkWorkerClosure(t *testing.T, st *shardState, w *shardWorker, radius int) {
	t.Helper()
	g := st.g
	ownedGlobal := make([]graph.VID, 0, len(w.owned))
	for _, lv := range w.owned {
		ownedGlobal = append(ownedGlobal, w.toGlobal[lv])
	}
	depth := globalDepths(g, ownedGlobal)

	toLocal := make(map[graph.VID]graph.VID, len(w.toGlobal))
	for lv, gv := range w.toGlobal {
		if lv > 0 && w.toGlobal[lv-1] >= gv {
			t.Fatalf("shard %d: toGlobal not strictly increasing at %d", w.id, lv)
		}
		toLocal[gv] = graph.VID(lv)
	}

	for gv := 0; gv < g.NumVertices(); gv++ {
		d := depth[gv]
		// Presence: exactly everything within the radius, blocking or not
		// (the blocking index is the state's, over its whole G).
		inHalo := d >= 0 && (radius < 0 || d <= radius)
		lv, present := toLocal[graph.VID(gv)]
		if inHalo != present {
			t.Fatalf("shard %d: vertex %d depth %d (radius %d): present=%v, want %v",
				w.id, gv, d, radius, present, inHalo)
		}
		if !present {
			continue
		}
		if w.g.Label(lv) != g.Label(graph.VID(gv)) {
			t.Fatalf("shard %d: vertex %d label %q, want %q",
				w.id, gv, w.g.Label(lv), g.Label(graph.VID(gv)))
		}
		if expandEdges(d, radius) {
			gout := g.Out(graph.VID(gv))
			lout := w.g.Out(lv)
			if len(lout) != len(gout) {
				t.Fatalf("shard %d: vertex %d has %d out-edges, want %d",
					w.id, gv, len(lout), len(gout))
			}
			for i := range gout {
				if w.toGlobal[lout[i].To] != gout[i].To || lout[i].Label != gout[i].Label {
					t.Fatalf("shard %d: vertex %d out-edge %d diverges", w.id, gv, i)
				}
			}
		} else if w.g.OutDegree(lv) != 0 {
			t.Fatalf("shard %d: frontier vertex %d (depth %d) has out-edges", w.id, gv, d)
		}
	}
}

// TestHaloClosure asserts — with the radius derived from core.HaloRadius,
// not hardcoded — that every fragment's subgraph is closed under the
// dv-hop neighborhoods the matcher inspects.
func TestHaloClosure(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5} {
		radius := core.HaloRadius(fixtureGD(), 0)
		if radius < 0 {
			t.Fatalf("fixture G_D must be acyclic, got radius %d", radius)
		}
		st, err := newState(fixtureConfig(shards).normalized())
		if err != nil {
			t.Fatalf("newState(%d shards): %v", shards, err)
		}
		if st.radius != radius {
			t.Fatalf("state radius %d, want derived %d", st.radius, radius)
		}
		totalOwned := 0
		for _, w := range st.shards {
			checkWorkerClosure(t, st, w, radius)
			totalOwned += len(w.owned)
		}
		if totalOwned != st.g.NumVertices() {
			t.Fatalf("%d shards own %d vertices, want %d (disjoint cover)",
				shards, totalOwned, st.g.NumVertices())
		}
		stopWorkers(st.shards)
	}
}

// TestHaloClosureCyclicGD: a cyclic G_D has no hop bound, so every
// fragment must be closed under full forward reachability.
func TestHaloClosureCyclicGD(t *testing.T) {
	gd := fixtureGD()
	gd.MustAddEdge(3, 0, "back") // springfield → person: directed cycle
	radius := core.HaloRadius(gd, 0)
	if radius != -1 {
		t.Fatalf("cyclic G_D radius = %d, want -1", radius)
	}
	st, err := newState(configOver(gd, fixtureG(8), 0, 3).normalized())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range st.shards {
		checkWorkerClosure(t, st, w, radius)
	}
	stopWorkers(st.shards)
}

// TestHaloClosureBlocking: turning the blocking index on adds nothing
// to a halo, even at radius 0 (a leaf-only G_D), where owned vertices
// keep no out-edges: the neighborhood documents are read from the
// state's index over its whole G, not from the fragment.
func TestHaloClosureBlocking(t *testing.T) {
	gd := graph.New()
	gd.AddVertex("alice") // single leaf: HaloRadius 0
	radius := core.HaloRadius(gd, 0)
	if radius != 0 {
		t.Fatalf("leaf-only G_D radius = %d, want 0", radius)
	}
	st, err := newState(configOver(gd, fixtureG(8), 1, 2).normalized())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range st.shards {
		checkWorkerClosure(t, st, w, radius)
	}
	stopWorkers(st.shards)
}

func TestResultCacheGeneration(t *testing.T) {
	c := newResultCache(2)
	pairs := []core.Pair{{U: 1, V: 2}}
	k, k2 := vpairRequest(1), vpairRequest(2)
	ra, rb, rc := vpairRequest(10), vpairRequest(11), vpairRequest(12)
	c.put(k, 7, pairs)
	got, ok := c.get(k, 7)
	if !ok || len(got) != 1 || got[0] != pairs[0] {
		t.Fatalf("get(k, 7) = %v, %v; want cached pair", got, ok)
	}
	// Mutating the returned slice must not corrupt the cache.
	got[0] = core.Pair{U: 9, V: 9}
	if again, _ := c.get(k, 7); again[0] != pairs[0] {
		t.Fatal("cache entry aliased caller's slice")
	}
	// An older-generation entry misses a newer caller and is evicted.
	if _, ok := c.get(k, 8); ok {
		t.Fatal("stale-generation entry served")
	}
	if c.len() != 0 {
		t.Fatalf("stale entry not evicted, len %d", c.len())
	}
	// A newer-generation entry (advanced by a delta sweep) misses an
	// older caller but survives for current-generation readers.
	c.put(k2, 7, pairs)
	if _, ok := c.get(k2, 6); ok {
		t.Fatal("newer-generation entry served to an older caller")
	}
	if _, ok := c.get(k2, 7); !ok {
		t.Fatal("newer-generation entry evicted by an older caller")
	}
	c.advance(8, func(request) bool { return true })
	// Eviction at capacity: a was read since it was stored, b was not.
	c.put(ra, 1, nil)
	c.put(rb, 1, nil)
	c.get(ra, 1) // a is now referenced
	c.put(rc, 1, nil)
	if _, ok := c.get(rb, 1); ok {
		t.Fatal("eviction victim b still cached")
	}
	if _, ok := c.get(ra, 1); !ok {
		t.Fatal("recently used a evicted")
	}
	// Disabled cache.
	var nilCache *resultCache = newResultCache(0)
	nilCache.put(k, 1, pairs)
	if _, ok := nilCache.get(k, 1); ok {
		t.Fatal("disabled cache served an entry")
	}
}

func TestInflightDedup(t *testing.T) {
	f := newInflight()
	leader, c := f.join(vpairRequest(1), 1)
	if !leader {
		t.Fatal("first join must lead")
	}
	follower, c2 := f.join(vpairRequest(1), 1)
	if follower || c2 != c {
		t.Fatal("second join must follow the leader's call")
	}
	if lead2, _ := f.join(vpairRequest(1), 2); !lead2 {
		t.Fatal("different generation must start its own call")
	}
	done := make(chan []core.Pair)
	go func() {
		<-c2.done
		done <- c2.pairs
	}()
	want := []core.Pair{{U: 3, V: 4}}
	f.finish(vpairRequest(1), 1, c, want, nil)
	if got := <-done; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("follower saw %v, want %v", got, want)
	}
	// The key is retired: a new join leads again.
	if lead3, _ := f.join(vpairRequest(1), 1); !lead3 {
		t.Fatal("finished key must accept a new leader")
	}
}

// TestAdmissionShed wedges every worker (a task whose reply buffer is
// pre-filled, so the worker blocks publishing its result) and fills the
// queues; the next request must be shed with ErrOverloaded, not block.
func TestAdmissionShed(t *testing.T) {
	cfg := fixtureConfig(2)
	cfg.Metrics = obs.NewRegistry()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wedged, filler []*task
	for _, w := range e.cur.shards {
		blocker := &task{ctx: context.Background(), req: vpairRequest(0),
			reply: make(chan taskResult, 1)}
		blocker.reply <- taskResult{} // worker will block re-sending
		w.queue <- blocker            // worker picks this up and wedges
		wedged = append(wedged, blocker)
		for i := 0; i < queueDepth; i++ {
			fill := &task{ctx: context.Background(), req: vpairRequest(0),
				reply: make(chan taskResult, 1)}
			w.queue <- fill // sits in the queue: full once all are in
			filler = append(filler, fill)
		}
	}
	if _, err := e.VPair(context.Background(), 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("VPair on full queues = %v, want ErrOverloaded", err)
	}
	if _, err := e.SPair(context.Background(), 0, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("SPair on a full queue = %v, want ErrOverloaded", err)
	}
	if got := cfg.Metrics.Counter(`her_shard_shed_total`).Value(); got != 2 {
		t.Fatalf("shed counter = %d after two shed requests", got)
	}
	// Unwedge so Close's workers can drain.
	for _, b := range wedged {
		<-b.reply
		<-b.reply
	}
	for _, f := range filler {
		<-f.reply
	}
}

// TestGenerationInvalidation drives the full loop: a result cached at
// generation g, mutation bumps g, the next request recomputes against
// fresh state instead of serving the stale entry.
func TestGenerationInvalidation(t *testing.T) {
	var gen atomic.Uint64
	var suppress atomic.Bool
	cfg := fixtureConfig(2)
	src := cfg.Source
	cfg.Source = func() Inputs {
		in := src()
		in.Gen = gen.Load()
		return in
	}
	cfg.Generation = gen.Load
	cfg.Overrides = func(matches []core.Pair, scope graph.VID) []core.Pair {
		if suppress.Load() {
			return nil
		}
		return matches
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	first, err := e.APair(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("fixture produced no matches; test needs a non-empty set")
	}
	// Flip the override without bumping the generation: the cached
	// result must still be served (overrides are part of the computed,
	// cached value).
	suppress.Store(true)
	cached, err := e.APair(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != len(first) {
		t.Fatalf("cache bypassed: got %d pairs, want cached %d", len(cached), len(first))
	}
	// Bump the generation: the stale entry must not be served, the
	// state rebuilds, and the new override outcome becomes visible.
	gen.Add(1)
	fresh, err := e.APair(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 0 {
		t.Fatalf("stale read after generation bump: got %d pairs, want 0", len(fresh))
	}
	if info := e.Snapshot(); info.Generation != 1 {
		t.Fatalf("state generation %d after bump, want 1", info.Generation)
	}
}

// TestNewEngineRejectsMissingInputs: a nil Source, or a Source whose
// Inputs hold the zero graph.Copy for either graph, is an error from
// NewEngine — not a nil dereference in the first partition.
func TestNewEngineRejectsMissingInputs(t *testing.T) {
	good := fixtureConfig(2).Source()
	for name, src := range map[string]func() Inputs{
		"nil Source": nil,
		"zero GD":    func() Inputs { in := good; in.GD = graph.Copy{}; return in },
		"zero G":     func() Inputs { in := good; in.G = graph.Copy{}; return in },
	} {
		if e, err := NewEngine(Config{Source: src, Shards: 2}); err == nil {
			e.Close()
			t.Errorf("%s: NewEngine built an engine", name)
		}
	}
}

// TestManyShards: shard counts beyond |V| produce empty fragments and
// still-correct (merged) results.
func TestManyShards(t *testing.T) {
	nv := fixtureG(8).NumVertices()
	whole, err := NewEngine(fixtureConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	want, err := whole.APair(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	over := fixtureConfig(nv + 3)
	e, err := NewEngine(over)
	if err != nil {
		t.Fatalf("NewEngine(%d shards over %d vertices): %v", nv+3, nv, err)
	}
	defer e.Close()
	got, err := e.APair(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("over-sharded APair: %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("over-sharded APair diverges at %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestDeadline: an expired context surfaces as the context error, both
// for leaders (gather) and followers (waiting on the leader).
func TestDeadline(t *testing.T) {
	e, err := NewEngine(fixtureConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.VPair(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("VPair(cancelled ctx) = %v, want context.Canceled", err)
	}
}

// TestAPairKeyNilDistinctFromEmpty: nil sources mean "all of G_D"
// (Matcher.APair's convention) while an explicit empty slice means "no
// sources". Served back to back through one engine's cache, neither may
// be answered with the other's entry.
func TestAPairKeyNilDistinctFromEmpty(t *testing.T) {
	e, err := NewEngine(fixtureConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	all, err := e.APair(ctx, nil)
	if err != nil || len(all) == 0 {
		t.Fatalf("APair(nil) = %v, %v; want the fixture's matches", all, err)
	}
	for i := 0; i < 2; i++ { // second round is served from the cache
		none, err := e.APair(ctx, []graph.VID{})
		if err != nil || len(none) != 0 {
			t.Fatalf("APair(empty) = %v, %v; want no pairs", none, err)
		}
		again, err := e.APair(ctx, nil)
		if err != nil || len(again) != len(all) {
			t.Fatalf("APair(nil) after APair(empty) = %d pairs, %v; want %d", len(again), err, len(all))
		}
	}
	if n := e.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want one per selection", n)
	}
}

// TestInflightAbandon: an abandoned call wakes followers with the retry
// flag (no result, no inherited error) and frees the key for a new
// leader.
func TestInflightAbandon(t *testing.T) {
	f := newInflight()
	leader, c := f.join(vpairRequest(1), 1)
	if !leader {
		t.Fatal("first join must lead")
	}
	woke := make(chan bool, 1)
	go func() {
		<-c.done
		woke <- c.retry
	}()
	f.abandon(vpairRequest(1), 1, c)
	if !<-woke {
		t.Fatal("abandoned call must tell followers to retry")
	}
	if c.err != nil || c.pairs != nil {
		t.Fatalf("abandon published a result: %v, %v", c.pairs, c.err)
	}
	if lead2, _ := f.join(vpairRequest(1), 1); !lead2 {
		t.Fatal("abandoned key must accept a new leader")
	}
}

// TestVPairUnknownVertex: request vertices are validated against the
// engine's G_D snapshot (not a live graph a mutation could be extending
// mid-read), and invalid ids error instead of matching nothing.
func TestVPairUnknownVertex(t *testing.T) {
	e, err := NewEngine(fixtureConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if _, err := e.VPair(ctx, graph.NoVertex); err == nil {
		t.Fatal("VPair(NoVertex) must error")
	}
	if _, err := e.VPair(ctx, graph.VID(10_000)); err == nil {
		t.Fatal("VPair(out of range) must error")
	}
	if _, err := e.VPair(ctx, 0); err != nil {
		t.Fatalf("VPair(valid vertex) = %v", err)
	}
}

// TestLeaderCancelDoesNotPoisonFollowers: a leader whose own context is
// canceled mid-gather must not publish its context error to followers
// with healthy budgets; a follower re-elects itself and computes.
func TestLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	cfg := fixtureConfig(1)
	cfg.Metrics = obs.NewRegistry()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Wedge the single worker: it picks up blocker and blocks re-sending
	// into the pre-filled reply buffer, so the leader's gather hangs.
	w := e.cur.shards[0]
	blocker := &task{ctx: context.Background(), req: vpairRequest(1),
		reply: make(chan taskResult, 1)}
	blocker.reply <- taskResult{}
	w.queue <- blocker

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.VPair(leaderCtx, 1)
		leaderErr <- err
	}()
	// Wait for the leader's call to register, then start the follower
	// and wait until it has joined (the singleflight-wait counter fires
	// before it blocks on the leader's done channel).
	waitFor := func(cond func() bool) {
		t.Helper()
		for i := 0; i < 5000; i++ {
			if cond() {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("condition not reached in 5s")
	}
	waitFor(func() bool {
		e.sf.mu.Lock()
		defer e.sf.mu.Unlock()
		return len(e.sf.calls) == 1
	})
	type res struct {
		pairs []core.Pair
		err   error
	}
	followerRes := make(chan res, 1)
	go func() {
		p, err := e.VPair(context.Background(), 1)
		followerRes <- res{p, err}
	}()
	sfWaits := cfg.Metrics.Counter(`her_shard_singleflight_waits_total`)
	waitFor(func() bool { return sfWaits.Value() >= 1 })

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader = %v, want context.Canceled", err)
	}
	// Unwedge the worker: it finishes the blocker, skips the leader's
	// canceled task, then serves the follower's re-led computation.
	<-blocker.reply
	<-blocker.reply
	r := <-followerRes
	if r.err != nil {
		t.Fatalf("follower inherited the leader's fate: %v", r.err)
	}
	if len(r.pairs) == 0 {
		t.Fatal("follower got an empty result")
	}
}

// TestQueueWaitAttributionMetrics checks the per-shard queue-wait and
// compute histograms and the per-op gather histograms fill in on an
// instrumented engine: one VPair and one APair touch both shards, so
// every per-shard series observes twice and each op's gather once.
func TestQueueWaitAttributionMetrics(t *testing.T) {
	cfg := fixtureConfig(2)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.VPair(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.APair(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`her_shard_queue_wait_seconds{shard="0"}`,
		`her_shard_queue_wait_seconds{shard="1"}`,
		`her_shard_compute_seconds{shard="0"}`,
		`her_shard_compute_seconds{shard="1"}`,
	} {
		if n := reg.Histogram(name, obs.TimeBuckets).Count(); n != 2 {
			t.Errorf("%s count = %d, want 2", name, n)
		}
	}
	if n := reg.Histogram(`her_shard_gather_seconds{op="vpair"}`, obs.TimeBuckets).Count(); n != 1 {
		t.Errorf("vpair gather count = %d, want 1", n)
	}
	if n := reg.Histogram(`her_shard_gather_seconds{op="apair"}`, obs.TimeBuckets).Count(); n != 1 {
		t.Errorf("apair gather count = %d, want 1", n)
	}
}

// TestRequestKeysDistinct: the request value is the cache and
// singleflight key, so requests that may answer differently must compare
// unequal — in particular nil vs empty APair sources, source order, and
// the three operations over the same vertex ids — and an APair selection
// must come back out exactly as it went in.
func TestRequestKeysDistinct(t *testing.T) {
	sets := [][]graph.VID{nil, {}, {0}, {0, 1}, {1, 0}}
	reqs := []request{vpairRequest(0), spairRequest(0, 0)}
	for _, set := range sets {
		r := apairRequest(set)
		reqs = append(reqs, r)
		if got := r.sources(); !reflect.DeepEqual(got, set) {
			t.Errorf("apairRequest(%#v).sources() = %#v", set, got)
		}
		if set != nil {
			same := make([]graph.VID, len(set))
			copy(same, set)
			if r != apairRequest(same) {
				t.Errorf("equal source sets %v compare unequal", set)
			}
		}
	}
	seen := make(map[sfKey]int)
	for i, r := range reqs {
		if j, dup := seen[sfKey{req: r, gen: 1}]; dup {
			t.Errorf("requests %d and %d share a key: %+v", j, i, r)
		}
		seen[sfKey{req: r, gen: 1}] = i
	}
	// The key owns its bytes: a caller reusing its slice cannot reach it.
	buf := []graph.VID{3, 4}
	r := apairRequest(buf)
	buf[0] = 9
	if got := r.sources(); got[0] != 3 {
		t.Errorf("request aliases the caller's slice: sources() = %v", got)
	}
}
