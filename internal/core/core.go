// Package core implements the paper's primary contribution: parametric
// simulation (Section III) and the quadratic-time ParaMatch algorithm
// (Section V, Fig. 4), plus the all-match algorithms VParaMatch and
// AllParaMatch (Section VI, Figs. 5 and 8) and schema-match extraction
// (appendix D).
//
// Parametric simulation takes score functions (h_v, h_ρ, h_r) and
// thresholds (σ, δ, k) as parameters. A pair (u0, v0) of vertices across
// two graphs matches iff there is a relation Π(u0, v0) containing (u0, v0)
// such that every (u, v) ∈ Π satisfies h_v(u, v) ≥ σ and, when u is not a
// leaf, some partial injective lineage set S(u,v) ⊆ V_u^k × V_v^k has
// aggregate h_ρ score ≥ δ with all its pairs in Π.
package core

import (
	"fmt"
	"slices"
	"sort"

	"her/internal/feq"
	"her/internal/graph"
	"her/internal/ranking"
)

// VertexScorer is M_v: it scores the semantic closeness of two vertex
// labels in [0, 1]. Implementations must be safe for concurrent use.
type VertexScorer func(a, b string) float64

// PathScorer is M_ρ: it scores the closeness of two edge-label sequences
// in [0, 1]. Implementations must be safe for concurrent use.
type PathScorer func(a, b []string) float64

// Pair is a candidate match: U is a vertex of G_D (or G1), V of G (G2).
type Pair struct {
	U graph.VID
	V graph.VID
}

// SortPairs sorts pairs by (U, V) in place and returns the slice. Match
// sets are semantically order-free, but anything collected from a map
// must be sorted before it is exposed, serialized, or used to drive
// further work — otherwise map iteration order leaks into output and
// breaks run-to-run reproducibility (herlint's mapiter contract).
func SortPairs(pairs []Pair) []Pair {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].U != pairs[j].U {
			return pairs[i].U < pairs[j].U
		}
		return pairs[i].V < pairs[j].V
	})
	return pairs
}

// Params bundles the parameters of parametric simulation.
type Params struct {
	Mv    VertexScorer
	Mrho  PathScorer
	Sigma float64 // σ: vertex-closeness threshold
	Delta float64 // δ: aggregate association threshold
	K     int     // k: number of important properties
}

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if p.Mv == nil || p.Mrho == nil {
		return fmt.Errorf("core: Mv and Mrho must be set")
	}
	if p.Sigma < 0 || p.Sigma > 1 {
		return fmt.Errorf("core: sigma %f out of [0,1]", p.Sigma)
	}
	if p.Delta < 0 {
		return fmt.Errorf("core: delta %f must be non-negative", p.Delta)
	}
	if p.K <= 0 {
		return fmt.Errorf("core: k must be positive, got %d", p.K)
	}
	return nil
}

// Counters reports work done by a Matcher, for tests and benchmarks.
type Counters struct {
	Calls     int // ParaMatch invocations (including reruns)
	CacheHits int // candidate validities answered from cache
	Cleanups  int // cleanup-stage invocations
	Rechecks  int // dependant pairs re-run by cleanup
}

// Matcher runs parametric simulation between two graphs. It owns the
// cache and ecache hash maps of Fig. 4 and is NOT safe for concurrent
// use; the BSP engine creates one Matcher per worker.
//
// Fig. 4's cache is two tables: verdict holds the current validity of
// every decided pair, and witness the lineage set W of a valid pair
// whose W is non-empty, at exact length. A pair has a witness entry only
// while its verdict is true (checkState).
type Matcher struct {
	GD *graph.Graph // G_D (or G1)
	G  *graph.Graph // G (or G2)
	RD *ranking.Ranker
	RG *ranking.Ranker
	P  Params

	verdict    map[Pair]bool
	witness    map[Pair][]Pair
	dependents map[Pair][]Pair // p → pairs whose W contains p; no empty entry
	assumed    map[Pair]bool   // border-node assumptions seeded by the BSP engine

	rerunQueue []Pair
	draining   bool

	// met mirrors the stats counters into an obs.Registry and adds
	// phase latency histograms; the zero value is disabled.
	met coreMetrics

	// border connects the matcher to the owners of the pairs it does not
	// decide; set by SetBorder.
	border Border

	stats Counters
}

// NewMatcher creates a matcher over (gd, g) with rankers rd, rg and
// parameters p.
func NewMatcher(gd, g *graph.Graph, rd, rg *ranking.Ranker, p Params) (*Matcher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if gd == nil || g == nil || rd == nil || rg == nil {
		return nil, fmt.Errorf("core: graphs and rankers must be non-nil")
	}
	m := &Matcher{GD: gd, G: g, RD: rd, RG: rg, P: p}
	m.resetState()
	return m, nil
}

func (m *Matcher) resetState() {
	m.verdict = make(map[Pair]bool)
	m.witness = make(map[Pair][]Pair)
	m.dependents = make(map[Pair][]Pair)
	m.assumed = make(map[Pair]bool)
	m.rerunQueue = nil
}

// Border connects a matcher to the owners of the pairs it does not
// decide (the parallel engines: one matcher per worker, each deciding
// the pairs whose G-side vertex its fragment owns). Any field may be nil.
type Border struct {
	// Delegate returns true for a pair the matcher must not decide
	// itself; the matcher then assumes it valid until an Invalidate
	// from its owner rectifies it.
	Delegate func(Pair) bool
	// OnInvalid observes pairs whose cached state becomes false. A
	// false verdict is final, so each pair is observed at most once.
	OnInvalid func(Pair)
}

// SetBorder installs b.
func (m *Matcher) SetBorder(b Border) { m.border = b }

// Reset clears all cached match state (not the rankers' ecache).
func (m *Matcher) Reset() {
	m.resetState()
	m.stats = Counters{}
}

// Stats returns the work counters.
func (m *Matcher) Stats() Counters { return m.stats }

// Hv computes h_v(u, v) = M_v(L_D(u), L(v)).
func (m *Matcher) Hv(u, v graph.VID) float64 {
	return m.P.Mv(m.GD.Label(u), m.G.Label(v))
}

// Hrho computes h_ρ(ρ1, ρ2) = M_ρ(L(ρ1), L(ρ2)) / (len(ρ1) + len(ρ2)).
func (m *Matcher) Hrho(p1, p2 graph.Path) float64 {
	l := p1.Len() + p2.Len()
	if l == 0 {
		return 0
	}
	return m.P.Mrho(p1.EdgeLabels, p2.EdgeLabels) / float64(l)
}

// Cached returns the cached validity of p, if any.
func (m *Matcher) Cached(p Pair) (valid bool, ok bool) {
	valid, ok = m.verdict[p]
	return valid, ok
}

// Assume seeds p as an assumed-valid pair (the BSP engine's optimistic
// border initialization). Assumed pairs answer true from the cache until
// invalidated.
func (m *Matcher) Assume(p Pair) {
	m.assumed[p] = true
	if _, ok := m.verdict[p]; !ok {
		m.verdict[p] = true
	}
}

// IsAssumed reports whether p is an (un-invalidated) assumption.
func (m *Matcher) IsAssumed(p Pair) bool { return m.assumed[p] }

// Invalidate marks p invalid and rectifies its dependants — the IncPSim
// refinement step applied when a message reports p invalid elsewhere.
func (m *Matcher) Invalidate(p Pair) {
	if valid, ok := m.verdict[p]; ok && !valid {
		return // already known invalid
	}
	m.fail(p)
}

// ForgetVertices drops every cached decision whose G-side vertex the
// predicate selects, together with (transitively) every pair whose
// lineage depended on a dropped pair — the IncPSim maintenance step for
// updates to graph G (Section VI-B, remark 2). Dropped pairs are simply
// re-evaluated on the next query; unlike Invalidate, forgetting erases
// both valid and invalid decisions, since an added edge can flip either
// way.
func (m *Matcher) ForgetVertices(affected func(v graph.VID) bool) {
	// The initial sweep is bounded by the cache; the worklist re-grows
	// past it only through dependency fan-out.
	queue := make([]Pair, 0, len(m.verdict))
	for p := range m.verdict {
		if affected(p.V) {
			queue = append(queue, p)
		}
	}
	// Deterministic cleanup order: the final state is order-independent,
	// but sorted worklists keep run-to-run behavior (and stats such as
	// cleanup counts under interleaved queries) reproducible.
	SortPairs(queue)
	seen := make(map[Pair]bool, len(queue))
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		if _, ok := m.verdict[p]; !ok {
			continue
		}
		queue = append(queue, SortPairs(slices.Clone(m.dependents[p]))...)
		m.unregister(p)
		delete(m.verdict, p)
		delete(m.assumed, p)
	}
}

// Match is ParaMatch (Fig. 4): it decides whether (u, v) makes a match by
// parametric simulation, reusing and extending the cache across calls.
func (m *Matcher) Match(u, v graph.VID) bool {
	p := Pair{U: u, V: v}
	if valid, ok := m.verdict[p]; ok {
		m.stats.CacheHits++
		m.met.cacheHits.Inc()
		return valid
	}
	return m.timedMatch(p)
}

func (m *Matcher) setInvalid(p Pair) {
	m.unregister(p)
	m.verdict[p] = false
	delete(m.assumed, p)
	if m.border.OnInvalid != nil {
		m.border.OnInvalid(p)
	}
}

// setValid records p as valid with lineage set w, which it copies at
// exact length (w is the caller's scratch).
func (m *Matcher) setValid(p Pair, w []Pair) {
	m.unregister(p)
	m.verdict[p] = true
	if len(w) > 0 {
		m.witness[p] = append([]Pair(nil), w...)
	}
	for _, q := range w {
		m.dependents[q] = append(m.dependents[q], p)
	}
}

// unregister removes p's dependency registrations from its old W, and
// the W itself. A dependents entry that empties is deleted.
func (m *Matcher) unregister(p Pair) {
	for _, q := range m.witness[p] {
		deps := m.dependents[q]
		i := slices.Index(deps, p)
		last := len(deps) - 1
		deps[i] = deps[last]
		if last == 0 {
			delete(m.dependents, q)
		} else {
			m.dependents[q] = deps[:last]
		}
	}
	delete(m.witness, p)
}

// match implements the three stages of Fig. 4 for one pair.
func (m *Matcher) match(p Pair) bool {
	if m.border.Delegate != nil && m.border.Delegate(p) {
		m.Assume(p)
		return true
	}
	m.stats.Calls++
	m.met.calls.Inc()
	u, v := p.U, p.V

	// Initial stage (lines 1-11).
	if m.Hv(u, v) < m.P.Sigma {
		m.setInvalid(p)
		return false
	}
	if m.GD.IsLeaf(u) || m.P.Delta <= 0 {
		// A leaf needs no lineage set, and at δ = 0 the empty S reaches δ.
		m.setValid(p, nil)
		return true
	}
	// Optimistic entry so interdependent candidates (strongly connected
	// components across both graphs) can self-support coinductively. p
	// is undecided here, so it has no W to unregister.
	m.verdict[p] = true

	vuk := m.RD.TopK(u, m.P.K) // ecache-backed V_u^k
	vvk := m.RG.TopK(v, m.P.K) // ecache-backed V_v^k

	// Build the candidate list l_{u'} for each selected descendant u',
	// sorted by descending h_ρ of the selected paths (line 11).
	lists := make([][]scored, len(vuk))
	for j, su := range vuk {
		lists[j] = m.candidateList(su, vvk)
	}

	// Matching stage (lines 12-27). MaxSco is an upper bound on the
	// achievable aggregate score: the head of each remaining list plus
	// the already-achieved contributions.
	maxSco := 0.0
	for _, l := range lists {
		if len(l) > 0 {
			maxSco += l[0].score
		}
	}
	if maxSco < m.P.Delta {
		m.setInvalid(p)
		return false
	}

	// skipped records that an injectivity skip demoted a list head: from
	// then on greedy's bound no longer covers every injective S, so its
	// failure is decided by exactLineage instead.
	skipped := false
	sum := 0.0
	// One lineage pair per property list until Δ is reached. setValid
	// copies it, so up to the default k (20) it lives in this frame.
	var buf [20]Pair
	w := buf[:0]

	for j := range lists {
		l := lists[j]
		for idx := 0; idx < len(l); idx++ {
			cand := l[idx]
			next := 0.0
			if idx+1 < len(l) {
				next = l[idx+1].score
			}
			if takenV(w, cand.v) {
				// Taken by an earlier property; demote this list's head.
				skipped = true
				maxSco += next - cand.score
				if maxSco < m.P.Delta {
					return m.settle(p, lists, skipped)
				}
				continue
			}
			cp := Pair{U: cand.u, V: cand.v}
			if m.decide(cp) {
				sum += cand.score
				w = append(w, cp)
				if sum >= m.P.Delta {
					m.setValid(p, w)
					return true
				}
				break // property u'_j settled; move on (line 24)
			}
			// Candidate failed: replace head contribution (line 25).
			maxSco += next - cand.score
			if maxSco < m.P.Delta {
				return m.settle(p, lists, skipped)
			}
		}
	}
	return m.settle(p, lists, skipped)
}

// decide returns the verdict of q, from the cache or by evaluating it.
func (m *Matcher) decide(q Pair) bool {
	if valid, found := m.verdict[q]; found {
		m.stats.CacheHits++
		m.met.cacheHits.Inc()
		return valid
	}
	return m.match(q)
}

// settle is greedy's failure exit for p. Without an injectivity skip,
// greedy's bound covers every lineage set and p fails. After one, a
// property that lost its vertex may have pushed greedy off an injective
// S that another choice reaches, so p is decided by the best assignment.
func (m *Matcher) settle(p Pair, lists [][]scored, skipped bool) bool {
	if skipped {
		if w, ok := m.exactLineage(lists); ok {
			m.setValid(p, w)
			return true
		}
	}
	return m.fail(p)
}

// exactLineage decides the existential S of DESIGN §3 over the
// candidate lists: it validates every candidate through the cache, then
// solves the maximum-weight injective assignment of properties to G-side
// vertices over the valid ones. It returns that S, without its
// zero-score pairs, and whether its score reaches δ.
func (m *Matcher) exactLineage(lists [][]scored) ([]Pair, bool) {
	var cols []graph.VID // the G-side vertices, one column each
	for _, l := range lists {
		for _, c := range l {
			m.decide(Pair{U: c.u, V: c.v})
			if !slices.Contains(cols, c.v) {
				cols = append(cols, c.v)
			}
		}
	}
	// Read the verdicts only now: evaluating a later candidate can
	// refute an earlier one.
	w := make([][]float64, len(lists))
	for i, l := range lists {
		w[i] = make([]float64, len(cols))
		for j := range w[i] {
			w[i][j] = -1
		}
		for _, c := range l {
			if m.verdict[Pair{U: c.u, V: c.v}] {
				w[i][slices.Index(cols, c.v)] = c.score
			}
		}
	}
	var s []Pair
	sum := 0.0
	for i, j := range maxAssignment(w) {
		if j >= 0 && w[i][j] > 0 {
			s = append(s, Pair{U: lists[i][0].u, V: cols[j]})
			sum += w[i][j]
		}
	}
	return s, sum >= m.P.Delta
}

// takenV reports whether an earlier property's lineage pair in w already
// took v: the injectivity of the lineage set. w holds at most k pairs.
func takenV(w []Pair, v graph.VID) bool {
	for _, q := range w {
		if q.V == v {
			return true
		}
	}
	return false
}

// fail runs the cleanup stage (lines 28-32): mark p invalid, then re-run
// every pair whose W contains p. The step is monotone — a verdict moves
// only from true to false, and a false is final — so these lineage
// dependants are the only pairs a refutation can change, and each pair
// is re-run at most once per member of its candidate lists that turns
// false. Cascades are processed through an iterative worklist so deep
// refutation chains cannot overflow the stack.
func (m *Matcher) fail(p Pair) bool {
	m.stats.Cleanups++
	m.met.cleanups.Inc()
	m.setInvalid(p)
	n := len(m.rerunQueue)
	m.rerunQueue = append(m.rerunQueue, m.dependents[p]...)
	SortPairs(m.rerunQueue[n:])
	m.drainReruns()
	return false
}

// drainReruns processes the rerun worklist. Only the outermost call
// drains; nested fail events just enqueue more work.
func (m *Matcher) drainReruns() {
	if m.draining {
		return
	}
	m.draining = true
	defer func() { m.draining = false }()
	for len(m.rerunQueue) > 0 {
		q := m.rerunQueue[len(m.rerunQueue)-1]
		m.rerunQueue = m.rerunQueue[:len(m.rerunQueue)-1]
		if !m.verdict[q] {
			continue // undecided, or refuted, which is final
		}
		if m.assumed[q] {
			// Delegated pairs are decided by their owner; the local
			// assumption stands until an invalidation message arrives.
			continue
		}
		m.unregister(q)
		delete(m.verdict, q)
		m.stats.Rechecks++
		m.match(q) // a false conclusion inside re-enqueues via fail
	}
}

// scored is one candidate v' for a selected descendant u', with the h_ρ
// association score of their selected paths.
type scored struct {
	u, v  graph.VID
	score float64
}

// candidateList builds l_{u'}: candidates v' ∈ V_v^k with
// h_v(u', v') ≥ σ, sorted by descending h_ρ (ties by v' id).
func (m *Matcher) candidateList(su ranking.Selected, vvk []ranking.Selected) []scored {
	l := make([]scored, 0, len(vvk)) // survivors of the σ filter are a subset of vvk
	for _, sv := range vvk {
		if m.Hv(su.Desc, sv.Desc) < m.P.Sigma {
			continue
		}
		l = append(l, scored{
			u: su.Desc, v: sv.Desc,
			score: m.Hrho(su.Path, sv.Path),
		})
	}
	// Insertion sort: lists are at most k long.
	for i := 1; i < len(l); i++ {
		for j := i; j > 0 && (l[j].score > l[j-1].score ||
			(feq.Eq(l[j].score, l[j-1].score) && l[j].v < l[j-1].v)); j-- {
			l[j], l[j-1] = l[j-1], l[j]
		}
	}
	return l
}
