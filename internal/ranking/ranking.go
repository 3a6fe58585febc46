// Package ranking implements the ranking function h_r of Section IV:
// given a vertex v and a bound k, it selects the top-k descendants of v —
// the vertex's important properties — together with one path for each.
// Path growth is guided by the LSTM language model M_r (one path per
// outgoing edge, extended while the model prefers continuing over <eos>),
// and the collected paths are ranked by Path Resource Allocation (PRA):
//
//	R(ρ) = Π_{i=0}^{l-1} 1 / |ch(v_i)|
//
// Results are memoized in an ecache shared by all recursive ParaMatch
// calls, as in Fig. 4 of the paper.
package ranking

import (
	"sort"
	"sync"

	"her/internal/feq"
	"her/internal/graph"
	"her/internal/lstm"
)

// Selected is one chosen property: a top-k descendant of the source
// vertex together with the path h_r picked for it and that path's PRA
// score.
type Selected struct {
	Desc graph.VID
	Path graph.Path
	PRA  float64
}

// PRA computes the path-resource-allocation score of p in g: resource
// flows from the start vertex and divides equally among children at every
// intermediate vertex. R ∈ (0, 1]; a zero-length path scores 1.
func PRA(g *graph.Graph, p graph.Path) float64 {
	score := 1.0
	for i := 0; i+1 < len(p.Vertices); i++ {
		ch := g.OutDegree(p.Vertices[i])
		if ch == 0 {
			return 0 // not a real path
		}
		score /= float64(ch)
	}
	return score
}

// Ranker computes and caches top-k selections for one graph. If LM is
// nil, path growth falls back to a deterministic PRA-greedy rule: a path
// extends only while its end vertex has exactly one outgoing edge. The
// ranker is safe for concurrent use.
type Ranker struct {
	G      *graph.Graph
	LM     *lstm.Model
	MaxLen int // maximum path length in edges; 0 means 4 (the paper's cap)

	mu     sync.RWMutex
	ecache map[graph.VID][]Selected
}

// NewRanker creates a ranker over g guided by lm (which may be nil).
func NewRanker(g *graph.Graph, lm *lstm.Model, maxLen int) *Ranker {
	if maxLen <= 0 {
		maxLen = 4
	}
	return &Ranker{G: g, LM: lm, MaxLen: maxLen, ecache: make(map[graph.VID][]Selected)}
}

// TopK returns the top-k selected descendants of v (paper notation V_v^k),
// at most one per outgoing edge of v, ranked by PRA. Results for a vertex
// are computed once and cached regardless of k, with the cached list cut
// to k on each call; the cache stores the full ranked list.
func (r *Ranker) TopK(v graph.VID, k int) []Selected {
	if k <= 0 {
		return nil
	}
	r.mu.RLock()
	sel, ok := r.ecache[v]
	r.mu.RUnlock()
	if !ok {
		sel = r.selectAll(v)
		r.mu.Lock()
		r.ecache[v] = sel
		r.mu.Unlock()
	}
	if len(sel) > k {
		sel = sel[:k]
	}
	return sel
}

// Invalidate drops the cached selection of one vertex (used by
// incremental graph updates: the vertex's out-edges changed).
func (r *Ranker) Invalidate(v graph.VID) {
	r.mu.Lock()
	delete(r.ecache, v)
	r.mu.Unlock()
}

// selectAll grows one path per outgoing edge of v and ranks them by PRA.
// When several paths end at the same descendant, the higher-PRA one wins.
func (r *Ranker) selectAll(v graph.VID) []Selected {
	out := r.G.Out(v)
	if len(out) == 0 {
		return nil
	}
	best := make(map[graph.VID]Selected, len(out))
	for _, e := range out {
		p := r.growPath(v, e)
		s := Selected{Desc: p.End(), Path: p, PRA: PRA(r.G, p)}
		if prev, ok := best[s.Desc]; !ok || s.PRA > prev.PRA {
			best[s.Desc] = s
		}
	}
	sel := make([]Selected, 0, len(best))
	for _, s := range best {
		sel = append(sel, s)
	}
	sort.Slice(sel, func(a, b int) bool {
		if !feq.Eq(sel[a].PRA, sel[b].PRA) {
			return sel[a].PRA > sel[b].PRA
		}
		return sel[a].Desc < sel[b].Desc
	})
	return sel
}

// growPath extends a path starting with edge e0 from v, one hop at a
// time. With a language model: feed the consumed edge label, obtain the
// next-token distribution, and among the outgoing edges of the current
// end (that keep the path simple) pick the most probable; stop when <eos>
// outranks every available edge, when no edge is available, or at MaxLen.
// Without a model: extend only while the end vertex has exactly one
// outgoing edge (the unambiguous-continuation PRA-greedy rule).
func (r *Ranker) growPath(v graph.VID, e0 graph.Edge) graph.Path {
	p := graph.SingleVertexPath(v).Extend(e0)
	if r.LM == nil {
		for p.Len() < r.MaxLen {
			out := r.G.Out(p.End())
			if len(out) != 1 || p.Contains(out[0].To) {
				break
			}
			p = p.Extend(out[0])
		}
		return p
	}
	state := r.LM.Step(r.LM.Start(), e0.Label)
	for p.Len() < r.MaxLen {
		out := r.G.Out(p.End())
		probs := r.LM.Probs(state)
		bestP := -1.0
		var bestE graph.Edge
		found := false
		for _, e := range out {
			if p.Contains(e.To) {
				continue // keep the path simple (cycles are abandoned)
			}
			pe := probs[r.LM.Vocab.ID(e.Label)]
			if pe > bestP || (feq.Eq(pe, bestP) && found && e.To < bestE.To) {
				bestP, bestE, found = pe, e, true
			}
		}
		if !found || probs[lstm.EOS] > bestP {
			break
		}
		p = p.Extend(bestE)
		state = r.LM.Step(state, bestE.Label)
	}
	return p
}

// RejectPassThrough returns the default training-path filter for g: it
// drops descendants that are pass-through vertices (exactly one outgoing
// edge), since a path stopping there is not a meaningful property — the
// resource flows on undivided, and the label is typically an internal
// "machine code" node.
func RejectPassThrough(g *graph.Graph) func(graph.VID) bool {
	return func(v graph.VID) bool { return g.OutDegree(v) == 1 }
}

// TrainingPaths prepares the training corpus for M_r as the paper
// prescribes: for each start vertex, find the reachable descendants
// (excluding those the reject filter drops — the paper removes
// "machine code" labels; RejectPassThrough is the default analogue for
// generated graphs), and for each descendant keep the simple path with
// the maximum PRA value, up to maxLen edges. The returned sequences are
// edge-label sentences.
func TrainingPaths(g *graph.Graph, starts []graph.VID, maxLen int, reject func(end graph.VID) bool) [][]string {
	if maxLen <= 0 {
		maxLen = 4
	}
	var corpus [][]string
	for _, v := range starts {
		best := make(map[graph.VID]graph.Path)
		bestScore := make(map[graph.VID]float64)
		g.SimplePaths(v, maxLen, func(p graph.Path) bool {
			end := p.End()
			if reject != nil && reject(end) {
				return true
			}
			s := PRA(g, p)
			if s > bestScore[end] {
				bestScore[end] = s
				best[end] = p
			}
			return true
		})
		// Deterministic order: by descendant id.
		ends := make([]graph.VID, 0, len(best))
		for e := range best {
			ends = append(ends, e)
		}
		sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
		for _, e := range ends {
			labels := make([]string, len(best[e].EdgeLabels))
			copy(labels, best[e].EdgeLabels)
			corpus = append(corpus, labels)
		}
	}
	return corpus
}
