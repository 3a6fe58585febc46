package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"her/internal/core"
	"her/internal/graph"
)

// deltaHarness owns live graphs, a generation counter and a delta log,
// mimicking her.System's emission protocol (stamp, record, publish —
// all under the mutation lock; Source reads the generation of its
// copies under the same lock).
type deltaHarness struct {
	mu        sync.Mutex
	gd        *graph.Graph
	g         *graph.Graph
	maxLen    int
	minShared int
	params    core.Params

	gen atomic.Uint64
	log *DeltaLog
}

func newDeltaHarness(gd, g *graph.Graph, maxLen, minShared int, params core.Params) *deltaHarness {
	return &deltaHarness{gd: gd, g: g, maxLen: maxLen, minShared: minShared,
		params: params, log: new(DeltaLog)}
}

func (h *deltaHarness) config(shards int) Config {
	return Config{
		Source: func() Inputs {
			h.mu.Lock()
			defer h.mu.Unlock()
			return Inputs{
				GD: h.gd.Copy(), G: h.g.Copy(),
				Params: h.params, MaxPathLen: h.maxLen, MinSharedTokens: h.minShared,
				Gen: h.gen.Load(),
			}
		},
		Shards:     shards,
		Generation: h.gen.Load,
		Deltas:     h.log.Since,
	}
}

func (h *deltaHarness) record(d Delta) {
	d.Gen = h.gen.Load() + 1
	h.log.Record(d)
	h.gen.Add(1)
}

func (h *deltaHarness) addGraphEdge(t *testing.T, from, to graph.VID, label string) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.g.AddEdge(from, to, label); err != nil {
		t.Fatalf("AddEdge(%d, %d, %s): %v", from, to, label, err)
	}
	h.record(Delta{Kind: DeltaGraphEdge, From: from, To: to, Label: label})
}

func (h *deltaHarness) addGraphVertex(label string) graph.VID {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := h.g.AddVertex(label)
	h.record(Delta{Kind: DeltaGraphVertex, V: v, Label: label})
	return v
}

func (h *deltaHarness) addTuple(t *testing.T, labels []string, edges []GDEdge) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	base := h.gd.NumVertices()
	for _, l := range labels {
		h.gd.AddVertex(l)
	}
	for _, e := range edges {
		if err := h.gd.AddEdge(e.From, e.To, e.Label); err != nil {
			t.Fatalf("GD AddEdge: %v", err)
		}
	}
	d := Delta{Kind: DeltaTuple, GDBase: base}
	for v := base; v < h.gd.NumVertices(); v++ {
		d.GDLabels = append(d.GDLabels, h.gd.Label(graph.VID(v)))
		for _, e := range h.gd.Out(graph.VID(v)) {
			d.GDEdges = append(d.GDEdges, GDEdge{From: graph.VID(v), To: e.To, Label: e.Label})
		}
	}
	h.record(d)
}

// workerSet snapshots the current worker pointers (advance holds no
// lock the test needs: queries have completed and only advance mutates
// e.cur).
func workerSet(e *Engine) []*shardWorker {
	return append([]*shardWorker(nil), e.cur.shards...)
}

// TestDeltaOnHaloBoundary: an edge whose source a fragment materializes
// only at frontier depth (== radius) is provably invisible to that
// fragment — frontier vertices contribute labels, never out-edges — so
// the delta must leave it untouched (same worker pointer, no fragment
// rebuild), while fragments holding the source at expandable depth pick
// the edge up.
func TestDeltaOnHaloBoundary(t *testing.T) {
	// G_D: one edge u0 -e-> u1, longest path 1; MaxPathLen 1 → radius 1.
	gd := graph.New()
	u0 := gd.AddVertex("X")
	u1 := gd.AddVertex("Y")
	gd.MustAddEdge(u0, u1, "e")

	// G: two disjoint matching edges; with 2 shards each fragment owns
	// part of the spine and materializes the rest only as halo.
	g := graph.New()
	var vs []graph.VID
	for i := 0; i < 4; i++ {
		a := g.AddVertex("X")
		b := g.AddVertex("Y")
		g.MustAddEdge(a, b, "e")
		vs = append(vs, a, b)
	}
	// Chain the components so halos actually cross fragments.
	g.MustAddEdge(vs[1], vs[2], "next")
	g.MustAddEdge(vs[3], vs[4], "next")
	g.MustAddEdge(vs[5], vs[6], "next")

	h := newDeltaHarness(gd, g, 1, 0, core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 0.9, Delta: 0.5, K: 2})
	e, err := NewEngine(h.config(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if _, err := e.APair(ctx, nil); err != nil {
		t.Fatal(err)
	}

	// Pick a source vertex that some fragment materializes exactly at
	// the frontier (depth == radius == 1).
	before := workerSet(e)
	st := e.cur
	var from graph.VID = graph.NoVertex
	frontier := make(map[int]bool) // worker index → source at frontier depth
	for _, v := range vs {
		frontier = map[int]bool{}
		ok := false
		for i, w := range before {
			lv, has := w.localOf(v)
			if !has {
				continue
			}
			if int(w.depthOf[lv]) == st.radius {
				frontier[i] = true
				ok = true
			}
		}
		if ok {
			from = v
			break
		}
	}
	if from == graph.NoVertex {
		t.Fatal("fixture produced no frontier-depth vertex; halo-boundary case not reachable")
	}

	h.addGraphEdge(t, from, vs[0], "e")
	if _, err := e.APair(ctx, nil); err != nil {
		t.Fatal(err)
	}

	info := e.Snapshot()
	if info.DeltasApplied != 1 || info.FullRebuilds != 0 {
		t.Fatalf("deltasApplied=%d fullRebuilds=%d, want 1 and 0 (delta must apply in place)",
			info.DeltasApplied, info.FullRebuilds)
	}
	after := workerSet(e)
	for i := range before {
		if frontier[i] && after[i] != before[i] {
			t.Errorf("worker %d holds the source only at frontier depth but was rebuilt", i)
		}
		if frontier[i] {
			lv, _ := after[i].localOf(from)
			for _, ge := range after[i].g.Out(lv) {
				if ge.Label == "e" && after[i].toGlobal[ge.To] == vs[0] {
					t.Errorf("worker %d grafted an edge past its halo frontier", i)
				}
			}
		}
	}
}

// TestDeltaRadiusZeroBlocking: with a leaf-only G_D the halo radius is
// 0, so no fragment expands any out-edge and the halo rule routes an
// edge delta to no shard. With blocking on, the new edge still changes
// the source's neighborhood document — here it turns a leaf, which the
// index skips, into a candidate — so the shard owning the source must
// count as touched and the cached empty VPair must go.
func TestDeltaRadiusZeroBlocking(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		gd := graph.New()
		u := gd.AddVertex("alpha")
		g := graph.New()
		leaf := g.AddVertex("alpha")
		other := g.AddVertex("beta")

		h := newDeltaHarness(gd, g, 0, 1, testParams())
		e, err := NewEngine(h.config(shards))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if r := e.Snapshot().HaloRadius; r != 0 {
			t.Fatalf("%d shards: halo radius %d, want 0", shards, r)
		}
		if got, err := e.VPair(ctx, u); err != nil || len(got) != 0 {
			t.Fatalf("%d shards: VPair before the edge = %v, %v; want [] (a leaf is no candidate)", shards, got, err)
		}

		h.addGraphEdge(t, leaf, other, "next")
		got, err := e.VPair(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngine(h.config(shards))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.VPair(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 1 || want[0] != (core.Pair{U: u, V: leaf}) {
			t.Fatalf("%d shards: fresh VPair = %v, want [(%d, %d)]", shards, want, u, leaf)
		}
		if len(got) != 1 || got[0] != want[0] {
			t.Errorf("%d shards: delta-maintained VPair = %v, fresh engine %v", shards, got, want)
		}
		if info := e.Snapshot(); info.DeltasApplied != 1 || info.FullRebuilds != 0 {
			t.Errorf("%d shards: deltasApplied=%d fullRebuilds=%d, want 1 and 0",
				shards, info.DeltasApplied, info.FullRebuilds)
		}
		e.Close()
		fresh.Close()
	}
}

// TestDeltaCyclicGDFullClosure: a cyclic G_D forces radius -1 (full
// forward closure). Delta maintenance must keep working — every
// fragment materializing the edge source is affected, grafts follow the
// unbounded expansion rule — and stay equal to a from-scratch engine.
func TestDeltaCyclicGDFullClosure(t *testing.T) {
	gd := graph.New()
	u0 := gd.AddVertex("A")
	u1 := gd.AddVertex("B")
	gd.MustAddEdge(u0, u1, "x")
	gd.MustAddEdge(u1, u0, "y") // cycle: longest path unbounded

	g := graph.New()
	a0 := g.AddVertex("A")
	b0 := g.AddVertex("B")
	g.MustAddEdge(a0, b0, "x")
	g.MustAddEdge(b0, a0, "y")
	a1 := g.AddVertex("A")
	b1 := g.AddVertex("B")
	g.MustAddEdge(a1, b1, "x")

	h := newDeltaHarness(gd, g, 2, 0, core.Params{Mv: exactMv, Mrho: exactMrho, Sigma: 0.9, Delta: 0.5, K: 2})
	e, err := NewEngine(h.config(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	if got := e.Snapshot().HaloRadius; got != -1 {
		t.Fatalf("cyclic G_D halo radius = %d, want -1 (full closure)", got)
	}
	if _, err := e.APair(ctx, nil); err != nil {
		t.Fatal(err)
	}

	// Close the second component's cycle: flips (a1, b1) into a full
	// match under the cyclic pattern.
	h.addGraphEdge(t, b1, a1, "y")
	got, err := e.APair(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := NewEngine(h.config(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.APair(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("delta-maintained APair has %d pairs, fresh engine %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d: delta-maintained %+v != fresh %+v", i, got[i], want[i])
		}
	}
	if info := e.Snapshot(); info.DeltasApplied == 0 {
		t.Fatalf("full-closure delta was not applied in place (fullRebuilds=%d)", info.FullRebuilds)
	}
}

// TestDeltaTupleZeroFragments: a pure-relational AddTuple touches no
// fragment at all — G is unchanged and the new G_D region has no
// incoming edges from old vertices. Workers must keep their identity,
// VPair cache entries must survive the write (re-stamped, served
// without recomputation), unscoped APair entries must be evicted (they
// now miss the new tuple), and the new tuple must be queryable.
func TestDeltaTupleZeroFragments(t *testing.T) {
	gd := fixtureGD()
	h := newDeltaHarness(gd, fixtureG(4), 0, 0, testParams())
	e, err := NewEngine(h.config(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()

	vp, err := e.VPair(ctx, 1) // the "alice" leaf: matched in every fixture copy
	if err != nil {
		t.Fatal(err)
	}
	if len(vp) == 0 {
		t.Fatal("fixture produced no VPair matches; test needs a non-empty cached entry")
	}
	if _, err := e.APair(ctx, nil); err != nil {
		t.Fatal(err)
	}
	before := workerSet(e)

	// A fresh tuple region mirroring the fixture pattern: tup → name.
	base := graph.VID(gd.NumVertices())
	h.addTuple(t, []string{"person:alice", "alice"},
		[]GDEdge{{From: base, To: base + 1, Label: "name"}})

	vp2, err := e.VPair(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	info := e.Snapshot()
	if info.DeltasApplied != 1 || info.FullRebuilds != 0 || info.FragmentRebuilds != 0 {
		t.Fatalf("deltasApplied=%d fullRebuilds=%d fragmentRebuilds=%d, want 1/0/0",
			info.DeltasApplied, info.FullRebuilds, info.FragmentRebuilds)
	}
	if info.CacheSurvived != 1 || info.CacheEvicted != 1 {
		t.Fatalf("cacheSurvived=%d cacheEvicted=%d, want exactly the VPair entry to survive and the unscoped APair entry to go",
			info.CacheSurvived, info.CacheEvicted)
	}
	for i, w := range workerSet(e) {
		if w != before[i] {
			t.Errorf("worker %d rebuilt by a pure-relational tuple delta", i)
		}
	}
	if len(vp2) != len(vp) {
		t.Fatalf("surviving VPair entry changed: %d pairs, want %d", len(vp2), len(vp))
	}

	// The new region is queryable: its "alice" leaf matches the leaf
	// replicas in every fixture copy, exactly like old vertex 1.
	nvp, err := e.VPair(ctx, base+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nvp) != len(vp) {
		t.Fatalf("new region's leaf has %d matches, want %d (same pattern as old leaf); the grown G_D mirror is not being served",
			len(nvp), len(vp))
	}
}

// TestDeltaLogSince pins the three answers Since gives: an empty range
// is covered, a retained range comes back whole and in order, and a
// range reaching below what the ring still holds is a gap (ok=false),
// which the engine answers with a full rebuild.
func TestDeltaLogSince(t *testing.T) {
	var l DeltaLog
	for _, r := range [][2]uint64{{0, 0}, {3, 3}, {5, 2}} {
		if d, ok := l.Since(r[0], r[1]); !ok || d != nil {
			t.Errorf("Since(%d, %d) on an empty range = %v, %v; want nil, true", r[0], r[1], d, ok)
		}
	}
	if _, ok := l.Since(0, 1); ok {
		t.Error("Since(0, 1) on an empty log reported covered")
	}
	for g := uint64(1); g <= 10; g++ {
		l.Record(Delta{Gen: g, Kind: DeltaGraphVertex})
	}
	got, ok := l.Since(3, 7)
	if !ok || len(got) != 4 {
		t.Fatalf("Since(3, 7) = %d deltas, %v; want 4, true", len(got), ok)
	}
	for i, d := range got {
		if d.Gen != uint64(4+i) {
			t.Fatalf("Since(3, 7)[%d].Gen = %d, want %d", i, d.Gen, 4+i)
		}
	}
	if _, ok := l.Since(5, 11); ok {
		t.Error("Since(5, 11) past the newest delta reported covered")
	}
	// Fill the ring past its capacity: generation 1 and the rest of the
	// oldest ones are dropped.
	last := uint64(deltaLogCap + 10)
	for g := uint64(11); g <= last; g++ {
		l.Record(Delta{Gen: g, Kind: DeltaGraphVertex})
	}
	oldest := last - deltaLogCap + 1
	if _, ok := l.Since(0, last); ok {
		t.Errorf("Since(0, %d) after the ring dropped generations below %d reported covered", last, oldest)
	}
	if _, ok := l.Since(oldest-2, oldest); ok {
		t.Errorf("Since(%d, %d) reaching one dropped generation reported covered", oldest-2, oldest)
	}
	if got, ok := l.Since(oldest-1, last); !ok || len(got) != deltaLogCap || got[0].Gen != oldest {
		t.Errorf("Since(%d, %d) over the whole ring = %d deltas, %v; want %d from %d",
			oldest-1, last, len(got), ok, deltaLogCap, oldest)
	}
}
