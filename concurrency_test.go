package her

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"her/internal/shard"
)

// concurrencyFixture builds a small untrained system with a tuple
// mapping — enough structure for queries, cheap enough to race-test.
func concurrencyFixture(t *testing.T) (*System, VertexID, VertexID) {
	t.Helper()
	schema, err := NewSchema("product", []string{"name", "color"}, "name")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(schema)
	db.Relation("product").MustInsert("Aurora Trail Runner 7", "red")

	g := NewGraph()
	p1 := g.AddVertex("product")
	g.MustAddEdge(p1, g.AddVertex("Aurora Trail Runner"), "productName")
	g.MustAddEdge(p1, g.AddVertex("red"), "hasColor")

	sys, err := New(db, g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srcs := sys.SourceVertices()
	if len(srcs) == 0 {
		t.Fatal("no source vertices")
	}
	return sys, srcs[0], p1
}

// TestCandidatesRaceWithAddGraphEdge pins the lock discipline of
// System.Candidates: AddGraphEdge rebuilds the blocking index under
// s.mu, so Candidates reads it under the same lock. Before the fix, this
// read raced with the rebuild; run with -race to regress it.
func TestCandidatesRaceWithAddGraphEdge(t *testing.T) {
	sys, src, p1 := concurrencyFixture(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sys.Candidates(src)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		v := sys.AddGraphVertex("accessory")
		if err := sys.AddGraphEdge(p1, v, "relatedTo"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// raceReadsWithWrites runs read on two goroutines and, once a read has
// finished, writes from the test goroutine until two more reads have
// finished (at least 20 writes, at most 200), so that writes land
// while reads are in flight. The readers of the live graphs must be
// ordered with the writes by s.mu or by a copy taken under it, or the
// race detector reports them.
func raceReadsWithWrites(t *testing.T, read func(), write func(i int) error) {
	t.Helper()
	var wg sync.WaitGroup
	var reads atomic.Int64
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					read()
					reads.Add(1)
				}
			}
		}()
	}
	for reads.Load() == 0 {
		runtime.Gosched()
	}
	for i, until := 0, reads.Load()+2; i < 20 || (i < 200 && reads.Load() < until); i++ {
		if err := write(i); err != nil {
			t.Fatal(err)
		}
	}
}

// tupleAndEdgeWrites appends a product tuple and an edge out of p1 per
// write: AddTuple extends the database and G_D, AddGraphEdge grows G.
func tupleAndEdgeWrites(sys *System, p1 VertexID) func(int) error {
	return func(i int) error {
		if _, err := sys.AddTuple("product", fmt.Sprintf("Comet Road Cruiser %d", i), "blue"); err != nil {
			return err
		}
		return sys.AddGraphEdge(p1, sys.AddGraphVertex("accessory"), "relatedTo")
	}
}

// TestCandidatesRaceWithAddTuple: Candidates reads the tuple vertex's
// neighborhood document in the live G_D, which AddTuple extends, so it
// runs under s.mu. Run with -race to regress it.
func TestCandidatesRaceWithAddTuple(t *testing.T) {
	sys, src, _ := concurrencyFixture(t)
	raceReadsWithWrites(t, func() { sys.Candidates(src) }, func(i int) error {
		_, err := sys.AddTuple("product", fmt.Sprintf("Comet Road Cruiser %d", i), "blue")
		return err
	})
}

// TestEvaluateWithRaceWithWrites: EvaluateWith (and LearnThresholds
// through it) matches over copies of G_D and G taken under s.mu, not
// over the live graphs the writes extend. Run with -race to regress it.
func TestEvaluateWithRaceWithWrites(t *testing.T) {
	sys, src, p1 := concurrencyFixture(t)
	anns := []Annotation{{Pair: Pair{U: src, V: p1}, Match: true}}
	raceReadsWithWrites(t, func() {
		sys.EvaluateWith(Thresholds{Sigma: 0.5, Delta: 0.5, K: 3}, anns)
	}, tupleAndEdgeWrites(sys, p1))
}

// TestTrainRankerRaceWithWrites: TrainRanker collects its corpus and
// vocabulary from copies of G_D and G taken under s.mu. Run with -race
// to regress it.
func TestTrainRankerRaceWithWrites(t *testing.T) {
	sys, _, p1 := concurrencyFixture(t)
	raceReadsWithWrites(t, func() {
		if err := sys.TrainRanker(10, 1); err != nil {
			t.Error(err)
		}
	}, tupleAndEdgeWrites(sys, p1))
}

// TestSemanticJoinRaceWithWrites: SemanticJoin reads the relation's
// tuples and each matched vertex's properties in G under s.mu. The
// thresholds are lowered so that every candidate matches and the
// properties are read. Run with -race to regress it.
func TestSemanticJoinRaceWithWrites(t *testing.T) {
	sys, _, p1 := concurrencyFixture(t)
	if err := sys.SetThresholds(Thresholds{Sigma: 0, Delta: 0, K: 3}); err != nil {
		t.Fatal(err)
	}
	if rows, err := sys.SemanticJoin("product"); err != nil || len(rows) == 0 {
		t.Fatalf("SemanticJoin = %d rows, %v; want rows to read properties from", len(rows), err)
	}
	raceReadsWithWrites(t, func() {
		if _, err := sys.SemanticJoin("product"); err != nil {
			t.Error(err)
		}
	}, tupleAndEdgeWrites(sys, p1))
}

// TestThresholdsRaceWithParallelAPair pins the snapshot discipline of
// APairParallel: the run parameters (σ, δ, k, metrics, generator,
// sources) must be read under s.mu before the engine starts, because
// SetThresholds mutates s.opts under that lock. Before the fix, the
// unlocked params read raced with the threshold write; run with -race
// to regress it. Readers of Options/Thresholds/CoreParams take the
// lock too, so they join the stampede here.
func TestThresholdsRaceWithParallelAPair(t *testing.T) {
	sys, _, _ := concurrencyFixture(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ths := []Thresholds{
			{Sigma: 0.4, Delta: 1, K: 2},
			{Sigma: 0.6, Delta: 2, K: 3},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if err := sys.SetThresholds(ths[i%len(ths)]); err != nil {
					t.Error(err)
					return
				}
				sys.Thresholds()
				sys.Options()
				sys.CoreParams()
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, _, err := sys.APairParallel(2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sys.APairParallelAsync(2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWritesRaceWithParallelAPair pins that APairParallel(+Async) hold
// s.mu for the whole run, not just while the engine is assembled: the
// BSP workers read the live G_D, G and rankers, which the three
// incremental writes extend under that lock. Before the fix the run
// read a label slice AddGraphVertex was appending to; run with -race to
// regress it.
func TestWritesRaceWithParallelAPair(t *testing.T) {
	sys, _, p1 := concurrencyFixture(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := sys.AddGraphVertex(fmt.Sprintf("accessory %d", i))
			if err := sys.AddGraphEdge(p1, v, "relatedTo"); err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.AddTuple("product", fmt.Sprintf("Nimbus Peak Boot %d", i), "green"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, _, err := sys.APairParallel(2); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sys.APairParallelAsync(2); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRetrainRaceWithShardedServing pins the lock discipline of the
// ranker rebind: TrainRanker swaps the language model and every hosted
// view's rankers, which a sharded engine's Source and every
// matcher rebuild read under s.mu. Before the fix the swap happened
// outside the lock; each retrain bumps the generation, so the serving
// goroutines below keep rebuilding the engine through Source while
// the next retrain lands. Run with -race to regress it.
func TestRetrainRaceWithShardedServing(t *testing.T) {
	sys, src, _ := concurrencyFixture(t)
	eng, err := shard.NewEngine(sys.ShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					// Errors are transients (a request racing a rebuild);
					// the race detector is the oracle.
					_, _ = eng.VPair(context.Background(), src)
					sys.RankerD()
					sys.RankerG()
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if err := sys.TrainRanker(10, 1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTrainRaceWithServing pins that published scorers are immutable:
// TrainPathModel trains a private network and Refine fine-tunes a
// private clone, each swapped in whole under s.mu, while sharded
// serving and MrhoScore go on scoring with the scorers they read. Every
// MrhoScore pair is new, so each call misses the memo and runs the
// network. Before the fix the network was assigned and fine-tuned in
// place; run with -race to regress it.
func TestTrainRaceWithServing(t *testing.T) {
	sys, src, p1 := concurrencyFixture(t)
	p2 := sys.AddGraphVertex("product")
	if err := sys.AddGraphEdge(p2, sys.AddGraphVertex("Comet Road Cruiser"), "productName"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddGraphEdge(p2, sys.AddGraphVertex("blue"), "hasColor"); err != nil {
		t.Fatal(err)
	}
	pairs := []PathPair{
		{A: []string{"name"}, B: []string{"productName"}, Match: true},
		{A: []string{"color"}, B: []string{"hasColor"}, Match: true},
		{A: []string{"name"}, B: []string{"hasColor"}, Match: false},
		{A: []string{"color"}, B: []string{"productName"}, Match: false},
	}
	eng, err := shard.NewEngine(sys.ShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
					// Errors are transients (a request racing a rebuild);
					// the race detector is the oracle.
					_, _ = eng.VPair(context.Background(), src)
					sys.MrhoScore([]string{fmt.Sprintf("w%d_%d", id, n)}, []string{"productName"})
				}
			}
		}(i)
	}
	// One FN and one FP pair: Refine fine-tunes only with both polarities.
	fb := []Feedback{{Pair: Pair{U: src, V: p1}, IsMatch: true}, {Pair: Pair{U: src, V: p2}, IsMatch: false}}
	for i := 0; i < 3; i++ {
		if err := sys.TrainPathModel(pairs, 2); err != nil {
			t.Fatal(err)
		}
		sys.Refine(fb)
	}
	close(stop)
	wg.Wait()
}

// TestResolveAndLabelTakeNoLock: a tuple the published resolution maps
// and a vertex in G's published label column are read without s.mu —
// here held by the test for the whole call. Both go on answering for
// what AddTuple and AddGraphVertex publish.
func TestResolveAndLabelTakeNoLock(t *testing.T) {
	sys, src, p1 := concurrencyFixture(t)
	id, err := sys.AddTuple("product", "Nimbus Peak Boot", "green")
	if err != nil {
		t.Fatal(err)
	}
	v := sys.AddGraphVertex("accessory")
	uNew, err := sys.TupleVertex("product", id)
	if err != nil {
		t.Fatal(err)
	}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	type answer struct {
		u0, u1        VertexID
		err0, err1    error
		label, labelV string
	}
	done := make(chan answer, 1)
	go func() {
		var a answer
		a.u0, a.err0 = sys.TupleVertex("product", 0)
		a.u1, a.err1 = sys.TupleVertex("product", id)
		a.label, a.labelV = sys.GraphLabel(p1), sys.GraphLabel(v)
		done <- a
	}()
	select {
	case a := <-done:
		if a.err0 != nil || a.err1 != nil || a.u0 != src || a.u1 != uNew {
			t.Errorf("TupleVertex = (%d, %v), (%d, %v); want %d, %d", a.u0, a.err0, a.u1, a.err1, src, uNew)
		}
		if a.label != "product" || a.labelV != "accessory" {
			t.Errorf("GraphLabel = %q, %q; want product, accessory", a.label, a.labelV)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TupleVertex or GraphLabel waited for the system lock")
	}
}
