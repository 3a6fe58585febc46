package her

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"her/internal/shard"
)

// tsv serializes a graph, for whole-graph equality.
func tsv(t *testing.T, g *Graph) string {
	t.Helper()
	var b strings.Builder
	if err := g.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestShardConfigSnapshotClones: Source hands the engine copies that
// share no memory with the live graphs or with each other — the engine
// reads and grows its graphs without the system lock, while
// AddTuple/AddGraphVertex/AddGraphEdge mutate the live ones under it.
func TestShardConfigSnapshotClones(t *testing.T) {
	sys, _ := incrementalFixture(t)
	cfg := sys.ShardConfig(2)
	a, b := cfg.Source(), cfg.Source()
	gd0, g0 := tsv(t, sys.GD), tsv(t, sys.G)
	for _, in := range []shard.Inputs{a, b} {
		if in.GD.Graph() == sys.GD || in.G.Graph() == sys.G {
			t.Fatal("Source handed the engine the live graphs")
		}
		if tsv(t, in.GD.Graph()) != gd0 || tsv(t, in.G.Graph()) != g0 {
			t.Fatal("copy diverges from the live graphs at capture time")
		}
	}
	if a.GD.Graph() == b.GD.Graph() || a.G.Graph() == b.G.Graph() {
		t.Fatal("two Source calls returned the same copy")
	}

	// Write to the live graphs and, differently, to the first copy.
	v := sys.AddGraphVertex("live only")
	if err := sys.AddGraphEdge(0, v, "liveEdge"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddTuple("product", "Live Only Sandal", "teal"); err != nil {
		t.Fatal(err)
	}
	gd1, g1 := tsv(t, sys.GD), tsv(t, sys.G)
	a.G.Graph().AddVertex("copy only")
	a.G.Graph().MustAddEdge(1, 0, "copyEdge")
	a.GD.Graph().MustAddEdge(0, a.GD.Graph().AddVertex("copy only"), "copyEdge")

	if tsv(t, b.GD.Graph()) != gd0 || tsv(t, b.G.Graph()) != g0 {
		t.Fatal("a write to the live graphs or to one copy reached the other copy")
	}
	if tsv(t, sys.GD) != gd1 || tsv(t, sys.G) != g1 {
		t.Fatal("a write to a copy reached the live graphs")
	}
	copied := tsv(t, a.GD.Graph()) + tsv(t, a.G.Graph())
	for _, written := range []string{"live only", "liveEdge", "Live Only Sandal"} {
		if strings.Contains(copied, written) {
			t.Fatalf("the live graphs' %q reached a copy", written)
		}
	}
}

// TestEngineBuildsFromPassedSnapshot: one deep copy of (G_D, G) per
// engine state, never two — NewEngine calls Source exactly once, and a
// reset delta (a threshold change records one) makes the next request
// call it exactly once more.
func TestEngineBuildsFromPassedSnapshot(t *testing.T) {
	sys, _ := incrementalFixture(t)
	cfg := sys.ShardConfig(2)
	calls, source := 0, cfg.Source
	cfg.Source = func() shard.Inputs {
		calls++
		return source()
	}
	eng, err := shard.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if calls != 1 {
		t.Fatalf("NewEngine called Source %d times, want 1", calls)
	}
	u0, err := sys.TupleVertex("product", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.VPair(context.Background(), u0); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("a request at the engine's own generation called Source (%d calls)", calls)
	}
	if err := sys.SetThresholds(sys.Thresholds()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.VPair(context.Background(), u0); err != nil {
		t.Fatal(err)
	}
	if info := eng.Snapshot(); calls != 2 || info.FullRebuilds != 1 {
		t.Fatalf("after one reset: %d Source calls, %d full rebuilds, want 2 and 1", calls, info.FullRebuilds)
	}
}

// TestEngineReplaysWritesSinceSnapshot: a write that lands between
// Source returning and the first request is not lost and costs no
// rebuild — the state is stamped with the generation Source read under
// the system lock, so the first request replays (that, now] from the
// delta log.
func TestEngineReplaysWritesSinceSnapshot(t *testing.T) {
	sys, _ := incrementalFixture(t)
	cfg := sys.ShardConfig(2)
	id, source := -1, cfg.Source
	cfg.Source = func() shard.Inputs {
		in := source()
		var err error
		if id, err = sys.AddTuple("product", "Aurora Trail Runner 7 GTX", "red"); err != nil {
			t.Error(err)
		}
		return in
	}
	eng, err := shard.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	uNew, err := sys.TupleVertex("product", id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.VPair(context.Background(), uNew)
	if err != nil {
		t.Fatalf("engine does not know the tuple added after its copies were taken: %v", err)
	}
	want := sys.VPairVertex(uNew)
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("VPair of the new tuple = %v, sequential %v", got, want)
	}
	if info := eng.Snapshot(); info.DeltasApplied != 1 || info.FullRebuilds != 0 {
		t.Fatalf("deltasApplied %d, fullRebuilds %d, want the one write replayed in place", info.DeltasApplied, info.FullRebuilds)
	}
}

// TestEngineRebuildsPastDeltaLog: when more writes land between two
// requests than the view's delta log retains (1024), the log answers
// the gap with ok=false and the engine rebuilds in full — once — from a
// fresh Source, answering as the System does.
func TestEngineRebuildsPastDeltaLog(t *testing.T) {
	sys, _ := incrementalFixture(t)
	eng, err := shard.NewEngine(sys.ShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	u0, err := sys.TupleVertex("product", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.VPair(context.Background(), u0); err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()

	// A second product like the first, then enough isolated vertices to
	// push the product's deltas out of the log.
	p2 := sys.AddGraphVertex("product")
	for _, e := range [][2]string{{"Aurora Trail Runner", "productName"}, {"red", "hasColor"}} {
		if err := sys.AddGraphEdge(p2, sys.AddGraphVertex(e[0]), e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1100; i++ {
		sys.AddGraphVertex(fmt.Sprintf("filler %d", i))
	}
	got, err := eng.VPair(context.Background(), u0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.VPair("product", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("VPair after the gap = %v, System.VPair %v", got, want)
	}
	after := eng.Snapshot()
	if after.FullRebuilds != before.FullRebuilds+1 || after.DeltasApplied != before.DeltasApplied {
		t.Fatalf("full rebuilds %d → %d, deltas applied %d → %d; want one rebuild and no replay",
			before.FullRebuilds, after.FullRebuilds, before.DeltasApplied, after.DeltasApplied)
	}
	if after.Generation != sys.Generation() {
		t.Fatalf("engine at generation %d, System at %d", after.Generation, sys.Generation())
	}
}

// TestEngineSPairOnAddedVertex: a vertex added by a replayed delta is
// owned by exactly one shard, the one SPair asks, and its verdict is
// the System's.
func TestEngineSPairOnAddedVertex(t *testing.T) {
	sys, _ := incrementalFixture(t)
	eng, err := shard.NewEngine(sys.ShardConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	u0, err := sys.TupleVertex("product", 0)
	if err != nil {
		t.Fatal(err)
	}
	p2 := sys.AddGraphVertex("product")
	for _, e := range [][2]string{{"Aurora Trail Runner", "productName"}, {"red", "hasColor"}} {
		if err := sys.AddGraphEdge(p2, sys.AddGraphVertex(e[0]), e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if !sys.SPairVertices(u0, p2) {
		t.Fatal("fixture: the added product does not match the tuple")
	}
	for v := VertexID(0); int(v) < sys.G.NumVertices(); v++ {
		got, err := eng.SPair(context.Background(), u0, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := sys.SPairVertices(u0, v); got != want {
			t.Errorf("SPair(%d, %d) = %t, System %t", u0, v, got, want)
		}
	}
	info := eng.Snapshot()
	if info.FullRebuilds != 0 || info.DeltasApplied != 5 {
		t.Fatalf("full rebuilds %d, deltas applied %d; want the 5 writes replayed in place", info.FullRebuilds, info.DeltasApplied)
	}
	owned := 0
	for _, f := range info.Fragments {
		owned += f.Owned
	}
	if owned != sys.G.NumVertices() {
		t.Fatalf("fragments own %d vertices, G has %d", owned, sys.G.NumVertices())
	}
}

// TestConcurrentMutateWhileServing is the mutate-while-serving race
// regression (meaningful under -race): shard requests hammer the engine
// while incremental updates extend G_D and G through the system lock.
// Before the engine served from cloned snapshots, workers and rebuilds
// read the live graphs' adjacency slices mid-append.
func TestConcurrentMutateWhileServing(t *testing.T) {
	sys, _ := incrementalFixture(t)
	eng, err := shard.NewEngine(sys.ShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	u0, err := sys.TupleVertex("product", 0)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected transients here (e.g. a request
				// racing a rebuild); the race detector is the oracle.
				if (n+i)%2 == 0 {
					_, _ = eng.VPair(ctx, u0)
				} else {
					_, _ = eng.APair(ctx, sys.SourceVertices())
				}
			}
		}(i)
	}
	lastID := -1
	for i := 0; i < 6; i++ {
		p := sys.AddGraphVertex("product")
		n := sys.AddGraphVertex(fmt.Sprintf("Nimbus Peak Boot %d", i))
		c := sys.AddGraphVertex("green")
		if err := sys.AddGraphEdge(p, n, "productName"); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddGraphEdge(p, c, "hasColor"); err != nil {
			t.Fatal(err)
		}
		id, err := sys.AddTuple("product",
			fmt.Sprintf("Nimbus Peak Boot %d GTX", i), "green")
		if err != nil {
			t.Fatal(err)
		}
		lastID = id
	}
	close(stop)
	wg.Wait()

	// Quiesced: the engine must converge on the final generation and
	// agree with the sequential matcher, including for a vertex that
	// only exists in the freshest snapshot.
	uNew, err := sys.TupleVertex("product", lastID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.VPair(context.Background(), uNew)
	if err != nil {
		t.Fatal(err)
	}
	want := sys.VPairVertex(uNew)
	if len(got) != len(want) {
		t.Fatalf("sharded VPair after mutations = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sharded VPair diverges at %d: %v != %v", i, got[i], want[i])
		}
	}

	// Surviving cache entries must never be stale: populate the cache
	// for every source, apply one more write — whose delta sweep
	// re-stamps the surviving VPair entries instead of wiping them —
	// and re-ask. Every post-write answer, whether served from a
	// survivor or recomputed, must equal the fresh sequential verdict.
	ctx := context.Background()
	sources := sys.SourceVertices()
	for _, u := range sources {
		if _, err := eng.VPair(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.AddTuple("product", "Cloudrunner Final GTX", "green"); err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	for _, u := range sources {
		got, err := eng.VPair(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		want := sys.VPairVertex(u)
		if len(got) != len(want) {
			t.Fatalf("post-write VPair(%d) = %v, want %v (stale cache survivor?)", u, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("post-write VPair(%d) diverges at %d: %v != %v", u, i, got[i], want[i])
			}
		}
	}
	after := eng.Snapshot()
	if after.DeltasApplied == 0 {
		t.Fatal("no delta was ever applied in place; the incremental serving path is dead")
	}
	if after.CacheSurvived <= before.CacheSurvived {
		t.Fatalf("no cache entry survived the AddTuple sweep (survived %d → %d): vertex-scoped invalidation is not scoping",
			before.CacheSurvived, after.CacheSurvived)
	}

	t.Run("view hits", concurrentViewHits)
}

// concurrentViewHits serves the direct and the mirror view from their
// engines — resolving tuples and rendering G labels the way /vpair
// does, without the system lock — while AddTuple, AddGraphVertex,
// AddGraphEdge and one recompile of the mirror land. Every rendered
// body must decode, and every label must be G's label of its vertex.
func concurrentViewHits(t *testing.T) {
	sys, direct, mirror, entities := viewFixture(t)
	views := []*ViewHandle{direct, mirror}
	engs := make([]*shard.Engine, len(views))
	for i, h := range views {
		eng, err := shard.NewEngine(h.ShardConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		engs[i] = eng
	}
	type match struct {
		Vertex int32  `json:"vertex"`
		Label  string `json:"label"`
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var requests atomic.Int64
	served := make([][]match, 4)
	for i := range served {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, eng := views[i%2], engs[i%2]
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				requests.Add(1)
				u, err := h.TupleVertex("main", n%2)
				if err != nil {
					t.Error(err)
					return
				}
				// Errors are expected transients (a request racing a
				// rebuild); the labels and the race detector are the oracle.
				pairs, err := eng.VPair(context.Background(), u)
				if err != nil {
					continue
				}
				body := make([]match, 0, len(pairs))
				for _, p := range pairs {
					body = append(body, match{Vertex: int32(p.V), Label: sys.GraphLabel(p.V)})
				}
				raw, err := json.Marshal(body)
				if err != nil {
					t.Error(err)
					return
				}
				var decoded []match
				if err := json.Unmarshal(raw, &decoded); err != nil {
					t.Errorf("body %s does not decode: %v", raw, err)
					return
				}
				served[i] = append(served[i], decoded...)
			}
		}(i)
	}
	for i := 0; i < 6; i++ {
		v := sys.AddGraphVertex("main")
		if err := sys.AddGraphEdge(v, sys.AddGraphVertex(fmt.Sprintf("entity %d", i+2)), "key"); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddGraphEdge(entities[i%2], v, "relatedTo"); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.AddTuple("main", fmt.Sprintf("entity %d", i+2), "green", "dim A"); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			if _, err := sys.AddTuple("dim", "dim B", "fr"); err != nil { // recompiles the mirror
				t.Fatal(err)
			}
		}
	}
	// Let the readers hit the final state's caches too.
	for want, deadline := requests.Load()+400, time.Now().Add(10*time.Second); requests.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if n := len(served[0]) + len(served[1]) + len(served[2]) + len(served[3]); n == 0 {
		t.Fatal("no match was served")
	}
	if mirror.Recompiles() != 1 || direct.Recompiles() != 0 {
		t.Fatalf("recompiles: mirror %d, direct %d; want 1, 0", mirror.Recompiles(), direct.Recompiles())
	}
	for _, ms := range served {
		for _, m := range ms {
			if want := sys.G.Label(VertexID(m.Vertex)); m.Label != want {
				t.Fatalf("vertex %d rendered with label %q, G labels it %q", m.Vertex, m.Label, want)
			}
		}
	}
}

// TestSystemDeltaDifferential drives the REAL emission path — System's
// AddTuple/AddGraphVertex/AddGraphEdge recording into the delta log the
// engine replays — and asserts after every single write that the
// delta-maintained engine answers exactly like the sequential system,
// for every source vertex. This is the end-to-end version of the
// testkit mutation-sequence differential.
func TestSystemDeltaDifferential(t *testing.T) {
	sys, _ := incrementalFixture(t)
	eng, err := shard.NewEngine(sys.ShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	checkAll := func(stage string) {
		t.Helper()
		for _, u := range sys.SourceVertices() {
			got, err := eng.VPair(ctx, u)
			if err != nil {
				t.Fatalf("%s: engine VPair(%d): %v", stage, u, err)
			}
			want := sys.VPairVertex(u)
			if len(got) != len(want) {
				t.Fatalf("%s: VPair(%d) = %v, want %v", stage, u, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: VPair(%d) diverges at %d: %v != %v", stage, u, i, got[i], want[i])
				}
			}
		}
	}

	checkAll("initial")
	p := sys.AddGraphVertex("product")
	checkAll("after AddGraphVertex(product)")
	n := sys.AddGraphVertex("Aurora Trail Runner 7")
	c := sys.AddGraphVertex("red")
	if err := sys.AddGraphEdge(p, n, "productName"); err != nil {
		t.Fatal(err)
	}
	checkAll("after AddGraphEdge(productName)")
	if err := sys.AddGraphEdge(p, c, "hasColor"); err != nil {
		t.Fatal(err)
	}
	checkAll("after AddGraphEdge(hasColor)")
	if _, err := sys.AddTuple("product", "Celeste Dune Sandal", "teal"); err != nil {
		t.Fatal(err)
	}
	checkAll("after AddTuple")
	if eng.Snapshot().DeltasApplied == 0 {
		t.Fatal("every write fell back to a full rebuild; the delta path was never taken")
	}
}
