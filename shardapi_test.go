package her

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"her/internal/shard"
)

// TestShardConfigSnapshotClones: the Snapshot hook must hand the engine
// private graph copies, with the ranker rebound to the cloned G_D — the
// engine reads its graphs at request time without the system lock,
// while AddTuple/AddGraphVertex/AddGraphEdge mutate the live graphs
// under it.
func TestShardConfigSnapshotClones(t *testing.T) {
	sys, _ := incrementalFixture(t)
	cfg := sys.ShardConfig(2)
	if cfg.GD == sys.GD || cfg.G == sys.G {
		t.Fatal("ShardConfig handed the engine the live graphs")
	}
	if cfg.RankerD.G != cfg.GD {
		t.Fatal("RankerD not bound to the engine's G_D clone")
	}
	if cfg.GD.NumVertices() != sys.GD.NumVertices() || cfg.G.NumEdges() != sys.G.NumEdges() {
		t.Fatal("snapshot diverges from the live graphs at capture time")
	}
	again := cfg.Snapshot(cfg)
	if again.GD == cfg.GD || again.G == cfg.G {
		t.Fatal("rebuild snapshot reused a previous clone")
	}
}

// TestEngineBuildsFromPassedSnapshot: NewEngine serves the snapshot
// ShardConfig already took — cloning the graphs a second time under the
// system lock, only to drop the first pair, is the bug this pins — and
// the Snapshot hook runs once per full rebuild after that.
func TestEngineBuildsFromPassedSnapshot(t *testing.T) {
	sys, _ := incrementalFixture(t)
	cfg := sys.ShardConfig(2)
	calls, hook := 0, cfg.Snapshot
	cfg.Snapshot = func(c shard.Config) shard.Config {
		calls++
		return hook(c)
	}
	eng, err := shard.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if calls != 0 {
		t.Fatalf("NewEngine called the Snapshot hook %d times; the Config it was handed is the snapshot", calls)
	}
	u0, err := sys.TupleVertex("product", 0)
	if err != nil {
		t.Fatal(err)
	}
	// A threshold change records a reset delta: the next request must
	// rebuild from a fresh snapshot.
	if err := sys.SetThresholds(sys.Thresholds()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.VPair(context.Background(), u0); err != nil {
		t.Fatal(err)
	}
	if info := eng.Snapshot(); calls != 1 || info.FullRebuilds != 1 {
		t.Fatalf("after one reset: %d Snapshot calls, %d full rebuilds, want 1 and 1", calls, info.FullRebuilds)
	}
}

// TestEngineReplaysWritesSinceSnapshot: a Config captured at generation
// g stays a valid way to start an engine after the system moved on —
// the first state is stamped SnapGen, so the first request replays
// (SnapGen, now] from the delta log instead of serving a stale graph or
// rebuilding.
func TestEngineReplaysWritesSinceSnapshot(t *testing.T) {
	sys, _ := incrementalFixture(t)
	cfg := sys.ShardConfig(2)
	id, err := sys.AddTuple("product", "Aurora Trail Runner 7 GTX", "red")
	if err != nil {
		t.Fatal(err)
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
		t.Fatalf("engine does not know the tuple added after its snapshot: %v", err)
	}
	want := sys.VPairVertex(uNew)
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("VPair of the new tuple = %v, sequential %v", got, want)
	}
	if info := eng.Snapshot(); info.DeltasApplied != 1 || info.FullRebuilds != 0 {
		t.Fatalf("deltasApplied %d, fullRebuilds %d, want the one write replayed in place", info.DeltasApplied, info.FullRebuilds)
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
