package testkit

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/rdb2rdf"
	"her/internal/relational"
)

// workerCounts is the parallel sweep the differential suite proves
// equivalence over, in both sync and async mode.
var workerCounts = []int{1, 2, 4, 8}

const graphSeedBase = 100000

// seedsPerFamily is the seed count of each workload family (60 by
// default, so the suite covers 120 workloads). TESTKIT_SEEDS widens it
// for extended runs (e.g. the tier-2 gate or a soak).
func seedsPerFamily() int64 {
	if s := os.Getenv("TESTKIT_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return int64(n)
		}
	}
	return 60
}

// plantedWorkloads generates the relational workloads of the suite.
func plantedWorkloads(t *testing.T) []*Workload {
	t.Helper()
	n := seedsPerFamily()
	ws := make([]*Workload, 0, n)
	for seed := int64(1); seed <= n; seed++ {
		w, err := GenWorkload(seed)
		if err != nil {
			t.Fatalf("GenWorkload(%d): %v", seed, err)
		}
		ws = append(ws, w)
	}
	return ws
}

// graphWorkloads generates the adversarial graph-pair workloads.
func graphWorkloads(t *testing.T) []*Workload {
	t.Helper()
	n := seedsPerFamily()
	ws := make([]*Workload, 0, n)
	for i := int64(0); i < n; i++ {
		w, err := GenGraphWorkload(graphSeedBase + i)
		if err != nil {
			t.Fatalf("GenGraphWorkload(%d): %v", graphSeedBase+i, err)
		}
		ws = append(ws, w)
	}
	return ws
}

// widenedWorkloads generates the widened class: WidenedDraws instances
// for each of seedsPerFamily seeds.
func widenedWorkloads() []*Workload {
	n := seedsPerFamily()
	ws := make([]*Workload, 0, n*WidenedDraws)
	for seed := int64(1); seed <= n; seed++ {
		ws = append(ws, GenWidenedWorkloads(seed)...)
	}
	return ws
}

// TestExactAgainstReference: Π is defined existentially (DESIGN §3), and
// its step is monotone, so it is one set — the greatest fixpoint that
// core.ReferenceMatch computes. Sequential APair, a fresh matcher per
// pair, one shared matcher asked in reverse order, and the parallel
// engine in both modes at every worker count must each return exactly
// that set on the widened class, whose competing candidate lists make
// greedy lineage choices miss pairs.
func TestExactAgainstReference(t *testing.T) {
	for _, w := range widenedWorkloads() {
		ref, err := w.Reference()
		if err != nil {
			t.Fatal(err)
		}
		type run struct {
			name string
			run  func() ([]core.Pair, error)
		}
		runs := []run{
			{"apair", w.APair},
			{"paramatch-fresh", w.FreshParaMatch},
			{"paramatch-reversed", w.ReversedParaMatch},
		}
		for _, n := range workerCounts {
			runs = append(runs,
				run{fmt.Sprintf("bsp-sync-%d", n), func() ([]core.Pair, error) { return w.Parallel(n, false) }},
				run{fmt.Sprintf("bsp-async-%d", n), func() ([]core.Pair, error) { return w.Parallel(n, true) }})
		}
		for _, r := range runs {
			got, err := r.run()
			if err != nil {
				t.Fatalf("%s on %s: %v", r.name, w.Name, err)
			}
			if !EqualPairs(ref, got) {
				t.Errorf("workload %s: %s differs from the reference:\n%s",
					w.Name, r.name, DiffPairs("reference", ref, r.name, got))
			}
		}
	}
}

// TestHistoryIndependence: a shard worker's matcher keeps its state
// across requests, so with the result cache off every VPair answer
// depends on what earlier requests decided — and must not. Each vertex
// of G_D is asked twice, in a random order, and every answer must equal
// VPair on a fresh matcher.
func TestHistoryIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range widenedWorkloads() {
		nv := w.GD.NumVertices()
		want := make([][]core.Pair, nv)
		for u := range want {
			m, err := w.NewMatcher()
			if err != nil {
				t.Fatal(err)
			}
			want[u] = m.VPair(graph.VID(u), nil)
		}
		var order []graph.VID
		for _, u := range append(rng.Perm(nv), rng.Perm(nv)...) {
			order = append(order, graph.VID(u))
		}
		got, err := w.ShardedVPairs(2, order)
		if err != nil {
			t.Fatalf("workload %s: %v", w.Name, err)
		}
		for i, u := range order {
			if !EqualPairs(want[u], got[i]) {
				t.Errorf("workload %s: request %d, VPair(%d) after %v:\n%s",
					w.Name, i, u, order[:i], DiffPairs("fresh", want[u], "engine", got[i]))
			}
		}
	}
}

// TestDifferentialEquivalence is the paper's Theorems restated as a
// property: sequential ParaMatch (fresh and shared-cache), VPair, APair,
// the BSP engine (sync and async, workers ∈ {1,2,4,8}) and the sharded
// serving engine (halo replication, shards ∈ {1,2,4,8}) compute the
// same match set Π on every seeded workload.
func TestDifferentialEquivalence(t *testing.T) {
	workloads := append(plantedWorkloads(t), graphWorkloads(t)...)
	if len(workloads) < 100 {
		t.Fatalf("suite covers %d workloads, need at least 100", len(workloads))
	}
	for _, w := range workloads {
		results, err := w.RunAll(workerCounts)
		if err != nil {
			t.Fatal(err)
		}
		base := results[0]
		for _, r := range results[1:] {
			if !EqualPairs(base.Matches, r.Matches) {
				t.Errorf("workload %s: %s diverges from %s:\n%s",
					w.Name, r.Name, base.Name,
					DiffPairs(base.Name, base.Matches, r.Name, r.Matches))
			}
		}
	}
}

// TestPlantedRecovery: every planted tuple↔replica pair must be found —
// the generator constructs them so that parametric simulation is
// guaranteed to accept (exact canonical replica, δ ≤ 0.5, k above the
// tuple fan-out).
func TestPlantedRecovery(t *testing.T) {
	for _, w := range plantedWorkloads(t) {
		matches, err := w.APair()
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := ContainsAll(matches, w.Planted); !ok {
			t.Errorf("workload %s: planted pair (%d, %d) not recovered (%d matches, %d planted)",
				w.Name, p.U, p.V, len(matches), len(w.Planted))
		}
	}
}

// TestRoundTripMapping: the canonical mapping f_D is 1-1 and invertible —
// every tuple's non-null attributes are recoverable from G_D alone
// (Section II: "f_D is a 1-1 mapping ... D and G_D contain the same
// information").
func TestRoundTripMapping(t *testing.T) {
	for _, w := range plantedWorkloads(t) {
		if w.Mapping.NumTupleVertices() != w.DB.NumTuples() {
			t.Fatalf("workload %s: %d tuple vertices for %d tuples",
				w.Name, w.Mapping.NumTupleVertices(), w.DB.NumTuples())
		}
		for _, relName := range w.DB.RelationNames() {
			rel := w.DB.Relation(relName)
			for _, tp := range rel.Tuples {
				u, ok := w.Mapping.VertexOf(relName, tp.ID)
				if !ok {
					t.Fatalf("workload %s: tuple %s/%d unmapped", w.Name, relName, tp.ID)
				}
				if ref, ok := w.Mapping.TupleOf(u); !ok || ref.Relation != relName || ref.TupleID != tp.ID {
					t.Fatalf("workload %s: f_D not 1-1 at %s/%d", w.Name, relName, tp.ID)
				}
				got, err := rdb2rdf.RecoverTuple(w.GD, w.Mapping, w.DB, u)
				if err != nil {
					t.Fatal(err)
				}
				want := map[string]string{}
				for i, a := range rel.Schema.Attrs {
					if !relational.IsNull(tp.Values[i]) {
						want[a] = tp.Values[i]
					}
				}
				if len(got) != len(want) {
					t.Fatalf("workload %s: %s/%d recovered %v, want %v", w.Name, relName, tp.ID, got, want)
				}
				for a, v := range want {
					if got[a] != v {
						t.Fatalf("workload %s: %s/%d attribute %s recovered %q, want %q",
							w.Name, relName, tp.ID, a, got[a], v)
					}
				}
			}
		}
	}
}

// TestDeterminism: repeated runs of the same workload return identical
// match sets — for the sequential engine trivially, and for the
// asynchronous engine despite nondeterministic message interleavings.
func TestDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		w, err := GenWorkload(seed)
		if err != nil {
			t.Fatal(err)
		}
		a1, err := w.APair()
		if err != nil {
			t.Fatal(err)
		}
		a2, err := w.APair()
		if err != nil {
			t.Fatal(err)
		}
		if !EqualPairs(a1, a2) {
			t.Errorf("workload %s: APair not deterministic:\n%s",
				w.Name, DiffPairs("run1", a1, "run2", a2))
		}
		for run := 0; run < 3; run++ {
			p, err := w.Parallel(4, true)
			if err != nil {
				t.Fatal(err)
			}
			if !EqualPairs(a1, p) {
				t.Errorf("workload %s: async run %d differs from APair:\n%s",
					w.Name, run, DiffPairs("apair", a1, "async", p))
			}
		}
	}
}

// TestGeneratorDeterminism: the same seed reproduces byte-identical
// workloads, so failures replay from the seed alone.
func TestGeneratorDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		w1, err1 := GenWorkload(seed)
		w2, err2 := GenWorkload(seed)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		var b1, b2 bytes.Buffer
		if err := w1.G.WriteTSV(&b1); err != nil {
			t.Fatal(err)
		}
		if err := w2.G.WriteTSV(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("seed %d: generated graphs differ", seed)
		}
		if len(w1.Planted) != len(w2.Planted) {
			t.Fatalf("seed %d: planted sets differ", seed)
		}
		for i := range w1.Planted {
			if w1.Planted[i] != w2.Planted[i] {
				t.Fatalf("seed %d: planted pair %d differs", seed, i)
			}
		}
	}
}

// TestCandidatePoolNontrivial guards the generator's value: workloads
// must actually produce candidates, matches, and (for planted mode)
// non-planted hard candidates, or the equivalence proof is vacuous.
func TestCandidatePoolNontrivial(t *testing.T) {
	totalCands, totalMatches, totalPlanted := 0, 0, 0
	for _, w := range plantedWorkloads(t) {
		cands, err := w.CandidatePairs()
		if err != nil {
			t.Fatal(err)
		}
		matches, err := w.APair()
		if err != nil {
			t.Fatal(err)
		}
		totalCands += len(cands)
		totalMatches += len(matches)
		totalPlanted += len(w.Planted)
	}
	if totalCands == 0 || totalMatches == 0 {
		t.Fatalf("vacuous suite: %d candidates, %d matches", totalCands, totalMatches)
	}
	if totalMatches < totalPlanted {
		t.Errorf("matches %d < planted %d: planted pairs are being lost", totalMatches, totalPlanted)
	}
	if totalCands <= totalMatches {
		t.Errorf("every candidate matches (%d candidates, %d matches): no hard negatives generated",
			totalCands, totalMatches)
	}
	t.Logf("planted family: %d candidate pairs, %d matches, %d planted", totalCands, totalMatches, totalPlanted)
}

// TestShardedManyShards pushes the sharded engine past the vertex count
// of G — and so past any possible SCC count — where most fragments are
// empty: the merged match set must still equal sequential APair.
func TestShardedManyShards(t *testing.T) {
	workloads := append(plantedWorkloads(t)[:3], graphWorkloads(t)[:3]...)
	for _, w := range workloads {
		want, err := w.APair()
		if err != nil {
			t.Fatal(err)
		}
		n := w.G.NumVertices() + 7
		got, err := w.Sharded(n)
		if err != nil {
			t.Fatalf("Sharded(%d) on %s: %v", n, w.Name, err)
		}
		if !EqualPairs(SortPairs(want), got) {
			t.Errorf("workload %s at %d shards (|V|=%d):\n%s",
				w.Name, n, w.G.NumVertices(),
				DiffPairs("apair", want, "sharded", got))
		}
	}
}

// TestShardedSPairDifferential: Engine.SPair(u, v) is the sequential
// matcher's Match(u, v) — decided cold, one matcher per pair, so the
// oracle owes nothing to evaluation order — for every candidate pair and
// a seeded sample of non-candidate pairs, at 1, 2, 4 and 8 shards with
// blocking off and on; and with user verdicts installed, SPair answers
// the verdict over the matcher.
func TestShardedSPairDifferential(t *testing.T) {
	for _, w := range append(plantedWorkloads(t), graphWorkloads(t)...) {
		pairs, err := w.CandidatePairs()
		if err != nil {
			t.Fatal(err)
		}
		candidate := make(map[core.Pair]bool, len(pairs))
		for _, p := range pairs {
			candidate[p] = true
		}
		rng := rand.New(rand.NewSource(w.Seed))
		sources := w.sources()
		for i := 0; i < 24; i++ {
			p := core.Pair{U: sources[rng.Intn(len(sources))], V: graph.VID(rng.Intn(w.G.NumVertices()))}
			if !candidate[p] {
				pairs = append(pairs, p)
			}
		}
		want := make([]bool, len(pairs))
		verdicts, flipped := map[core.Pair]bool{}, map[bool]bool{}
		for i, p := range pairs {
			m, err := w.NewMatcher()
			if err != nil {
				t.Fatal(err)
			}
			want[i] = m.Match(p.U, p.V)
			// The user refutes the first match and confirms the first
			// non-match.
			if !flipped[want[i]] {
				flipped[want[i]], verdicts[p] = true, !want[i]
			}
		}
		for _, minShared := range []int{0, 1} {
			for _, n := range workerCounts {
				got, err := w.ShardedSPair(n, minShared, pairs, nil)
				if err != nil {
					t.Fatalf("workload %s: SPair at %d shards, minShared %d: %v", w.Name, n, minShared, err)
				}
				for i, p := range pairs {
					if got[i] != want[i] {
						t.Errorf("workload %s: SPair(%d, %d) at %d shards, minShared %d = %t, sequential Match %t (candidate %t)",
							w.Name, p.U, p.V, n, minShared, got[i], want[i], candidate[p])
					}
				}
			}
		}
		got, err := w.ShardedSPair(2, 1, pairs, verdicts)
		if err != nil {
			t.Fatalf("workload %s: SPair under overrides: %v", w.Name, err)
		}
		for i, p := range pairs {
			expect := want[i]
			if v, ok := verdicts[p]; ok {
				expect = v
			}
			if got[i] != expect {
				t.Errorf("workload %s: SPair(%d, %d) under overrides %v = %t, want %t", w.Name, p.U, p.V, verdicts, got[i], expect)
			}
		}
	}
}
