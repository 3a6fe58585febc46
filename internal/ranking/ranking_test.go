package ranking

import (
	"math"
	"testing"

	"her/internal/embed"
	"her/internal/graph"
	"her/internal/lstm"
)

// chainGraph: root → a → b → c where a and b have out-degree 1, plus a
// bushy sibling: root → hub → {x1..x4}.
func chainGraph() (*graph.Graph, map[string]graph.VID) {
	g := graph.New()
	vs := map[string]graph.VID{}
	for _, n := range []string{"root", "a", "b", "c", "hub", "x1", "x2", "x3", "x4"} {
		vs[n] = g.AddVertex(n)
	}
	g.MustAddEdge(vs["root"], vs["a"], "factorySite")
	g.MustAddEdge(vs["a"], vs["b"], "isIn")
	g.MustAddEdge(vs["b"], vs["c"], "isIn")
	g.MustAddEdge(vs["root"], vs["hub"], "brandName")
	for _, x := range []string{"x1", "x2", "x3", "x4"} {
		g.MustAddEdge(vs["hub"], vs[x], "related")
	}
	return g, vs
}

func TestPRA(t *testing.T) {
	g, vs := chainGraph()
	p := graph.SingleVertexPath(vs["root"]).
		Extend(graph.Edge{To: vs["a"], Label: "factorySite"}).
		Extend(graph.Edge{To: vs["b"], Label: "isIn"})
	// root has 2 children, a has 1: R = 1/2 * 1 = 0.5.
	if got := PRA(g, p); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("PRA = %f, want 0.5", got)
	}
	if got := PRA(g, graph.SingleVertexPath(vs["root"])); got != 1 {
		t.Errorf("PRA of zero-length path = %f", got)
	}
}

func TestPRAMonotoneNonIncreasing(t *testing.T) {
	g, vs := chainGraph()
	g.SimplePaths(vs["root"], 3, func(p graph.Path) bool {
		if p.Len() < 2 {
			return true
		}
		longer := PRA(g, p)
		shorter := PRA(g, p.Prefix(p.Len()-1))
		if longer > shorter+1e-12 {
			t.Errorf("PRA increased on extension: %f → %f for %v", shorter, longer, p.Vertices)
		}
		return true
	})
}

func TestTopKFallbackGreedy(t *testing.T) {
	g, vs := chainGraph()
	r := NewRanker(g, nil, 4)
	sel := r.TopK(vs["root"], 5)
	// Two outgoing edges → two paths. The chain extends through
	// out-degree-1 vertices: factorySite isIn isIn → c; brandName stops
	// at hub (out-degree 4).
	if len(sel) != 2 {
		t.Fatalf("TopK = %+v", sel)
	}
	byDesc := map[graph.VID]Selected{}
	for _, s := range sel {
		byDesc[s.Desc] = s
	}
	chain, ok := byDesc[vs["c"]]
	if !ok {
		t.Fatalf("chain path should reach c: %+v", sel)
	}
	if chain.Path.LabelString() != "factorySite isIn isIn" {
		t.Errorf("chain path labels = %q", chain.Path.LabelString())
	}
	hub, ok := byDesc[vs["hub"]]
	if !ok || hub.Path.Len() != 1 {
		t.Errorf("bushy path should stop at hub: %+v", sel)
	}
	// PRA descending order.
	for i := 1; i < len(sel); i++ {
		if sel[i-1].PRA < sel[i].PRA {
			t.Error("selections not PRA-sorted")
		}
	}
}

func TestTopKRespectsK(t *testing.T) {
	g, vs := chainGraph()
	r := NewRanker(g, nil, 4)
	if got := r.TopK(vs["hub"], 2); len(got) != 2 {
		t.Errorf("k=2 returned %d", len(got))
	}
	if got := r.TopK(vs["hub"], 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := r.TopK(vs["c"], 3); got != nil {
		t.Errorf("leaf TopK = %v", got)
	}
}

func TestTopKCaching(t *testing.T) {
	g, vs := chainGraph()
	r := NewRanker(g, nil, 4)
	r.TopK(vs["root"], 1)
	if r.CacheSize() != 1 {
		t.Errorf("CacheSize = %d", r.CacheSize())
	}
	// Larger k re-uses the same cached full list.
	full := r.TopK(vs["root"], 10)
	if len(full) != 2 {
		t.Errorf("cached full list = %d entries", len(full))
	}
	r.Reset()
	if r.CacheSize() != 0 {
		t.Error("Reset did not clear cache")
	}
}

func TestTopKDuplicateDescendantKeepsBest(t *testing.T) {
	// Two parallel edges from a to b: only one selection for b survives.
	g := graph.New()
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	g.MustAddEdge(a, b, "e1")
	g.MustAddEdge(a, b, "e2")
	r := NewRanker(g, nil, 4)
	sel := r.TopK(a, 5)
	if len(sel) != 1 || sel[0].Desc != b {
		t.Errorf("TopK = %+v", sel)
	}
}

func TestTrainingPaths(t *testing.T) {
	g, vs := chainGraph()
	corpus := TrainingPaths(g, []graph.VID{vs["root"]}, 4, nil)
	// Reachable from root: a, b, c, hub, x1..x4 → 8 descendants, one
	// max-PRA path each.
	if len(corpus) != 8 {
		t.Fatalf("corpus size = %d: %v", len(corpus), corpus)
	}
	// Reject filter removes x* labels.
	corpus2 := TrainingPaths(g, []graph.VID{vs["root"]}, 4,
		func(v graph.VID) bool { return g.Label(v)[0] == 'x' })
	if len(corpus2) != 4 {
		t.Errorf("filtered corpus size = %d", len(corpus2))
	}
	// RejectPassThrough drops the out-degree-1 chain vertices a and b.
	corpus3 := TrainingPaths(g, []graph.VID{vs["root"]}, 4, RejectPassThrough(g))
	if len(corpus3) != 6 {
		t.Errorf("pass-through-filtered corpus size = %d: %v", len(corpus3), corpus3)
	}
}

func TestLSTMGuidedGrowth(t *testing.T) {
	g, vs := chainGraph()
	// Train the LM so that factorySite → isIn → isIn → <eos> and
	// brandName → <eos>.
	corpus := [][]string{}
	for i := 0; i < 40; i++ {
		corpus = append(corpus, []string{"factorySite", "isIn", "isIn"})
		corpus = append(corpus, []string{"brandName"})
		corpus = append(corpus, []string{"related"})
	}
	vocab := lstm.NewVocab(embed.LabelVocabulary(g))
	lm := lstm.New(vocab, 8, 16, 3)
	lm.Train(corpus, lstm.TrainConfig{Epochs: 30, LearnRate: 0.05, Clip: 5, Seed: 2})

	r := NewRanker(g, lm, 4)
	sel := r.TopK(vs["root"], 5)
	byDesc := map[graph.VID]Selected{}
	for _, s := range sel {
		byDesc[s.Desc] = s
	}
	if chain, ok := byDesc[vs["c"]]; !ok {
		t.Errorf("LM-guided growth should follow the chain to c: %+v", sel)
	} else if chain.Path.LabelString() != "factorySite isIn isIn" {
		t.Errorf("chain labels = %q", chain.Path.LabelString())
	}
	if hub, ok := byDesc[vs["hub"]]; !ok || hub.Path.Len() != 1 {
		t.Errorf("brandName should stop at hub (eos): %+v", sel)
	}
}

func TestGrowPathAbandonsCycles(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	g.MustAddEdge(a, b, "f")
	g.MustAddEdge(b, a, "g")
	r := NewRanker(g, nil, 10)
	sel := r.TopK(a, 5)
	if len(sel) != 1 {
		t.Fatalf("TopK = %+v", sel)
	}
	if !sel[0].Path.IsSimple() {
		t.Error("grown path is not simple")
	}
	if sel[0].Path.Len() > 1 {
		t.Errorf("cycle should stop growth: %+v", sel[0].Path)
	}
}

func TestConcurrentTopK(t *testing.T) {
	g, vs := chainGraph()
	r := NewRanker(g, nil, 4)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 100; i++ {
				r.TopK(vs["root"], 3)
				r.TopK(vs["hub"], 3)
			}
			done <- true
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestInvalidateSingleVertex(t *testing.T) {
	g, vs := chainGraph()
	r := NewRanker(g, nil, 4)
	r.TopK(vs["root"], 3)
	r.TopK(vs["hub"], 3)
	if r.CacheSize() != 2 {
		t.Fatalf("CacheSize = %d", r.CacheSize())
	}
	r.Invalidate(vs["root"])
	if r.CacheSize() != 1 {
		t.Errorf("Invalidate removed wrong count: %d", r.CacheSize())
	}
	// Recomputation picks up new edges.
	g.MustAddEdge(vs["root"], vs["x1"], "direct")
	sel := r.TopK(vs["root"], 10)
	found := false
	for _, s := range sel {
		if s.Path.LabelString() == "direct" {
			found = true
		}
	}
	if !found {
		t.Errorf("new edge not selected after invalidate: %+v", sel)
	}
}

// CacheSize reports how many vertices have cached selections.
func (r *Ranker) CacheSize() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ecache)
}

// Reset clears the ecache.
func (r *Ranker) Reset() {
	r.mu.Lock()
	r.ecache = make(map[graph.VID][]Selected)
	r.mu.Unlock()
}
