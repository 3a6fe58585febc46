package testkit

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"her/internal/bsp"
	"her/internal/core"
	"her/internal/graph"
)

// EngineResult is one implementation's match set over a workload.
type EngineResult struct {
	Name    string
	Matches []core.Pair // sorted by (U, V)
}

// sources resolves the workload's query vertices (nil means all of G_D).
func (w *Workload) sources() []graph.VID {
	if w.Sources != nil {
		return w.Sources
	}
	all := make([]graph.VID, w.GD.NumVertices())
	for i := range all {
		all[i] = graph.VID(i)
	}
	return all
}

// CandidatePairs enumerates the candidate pool every engine draws from:
// for each source u, every v of G with h_v(u, v) ≥ σ.
func (w *Workload) CandidatePairs() ([]core.Pair, error) {
	m, err := w.NewMatcher()
	if err != nil {
		return nil, err
	}
	var pairs []core.Pair
	for _, u := range w.sources() {
		for _, v := range m.CandidatesFor(u, nil) {
			pairs = append(pairs, core.Pair{U: u, V: v})
		}
	}
	return pairs, nil
}

// SeqParaMatch decides every candidate pair through one shared-cache
// sequential matcher — ParaMatch as Fig. 4 runs it, with the cache (and
// its cleanup stage) carried across queries — and reads the final cache
// state, since a later cleanup may rectify an earlier answer.
func (w *Workload) SeqParaMatch() ([]core.Pair, error) {
	pairs, err := w.CandidatePairs()
	if err != nil {
		return nil, err
	}
	return w.sharedParaMatch(pairs)
}

// ReversedParaMatch is SeqParaMatch asking the candidate pairs in
// reverse order: with one cache shared across queries, any dependence of
// the verdicts on the order of refutations shows up as a difference.
func (w *Workload) ReversedParaMatch() ([]core.Pair, error) {
	pairs, err := w.CandidatePairs()
	if err != nil {
		return nil, err
	}
	slices.Reverse(pairs)
	return w.sharedParaMatch(pairs)
}

// sharedParaMatch decides pairs in order through one matcher and reads
// the verdicts from its final cache.
func (w *Workload) sharedParaMatch(pairs []core.Pair) ([]core.Pair, error) {
	m, err := w.NewMatcher()
	if err != nil {
		return nil, err
	}
	for _, p := range pairs {
		m.Match(p.U, p.V)
	}
	var matches []core.Pair
	for _, p := range pairs {
		if valid, ok := m.Cached(p); ok && valid {
			matches = append(matches, p)
		}
	}
	return SortPairs(matches), nil
}

// FreshParaMatch decides every candidate pair with a cold matcher per
// pair: the order-free per-pair verdict. Any divergence from the
// shared-cache engines is an order dependence in cache/cleanup handling.
func (w *Workload) FreshParaMatch() ([]core.Pair, error) {
	pairs, err := w.CandidatePairs()
	if err != nil {
		return nil, err
	}
	var matches []core.Pair
	for _, p := range pairs {
		m, err := w.NewMatcher()
		if err != nil {
			return nil, err
		}
		if m.Match(p.U, p.V) {
			matches = append(matches, p)
		}
	}
	return SortPairs(matches), nil
}

// Reference is the maximum match Π of the definition among the
// workload's candidate pairs: core.ReferenceMatch's greatest fixpoint,
// restricted to the source vertices.
func (w *Workload) Reference() ([]core.Pair, error) {
	m, err := w.NewMatcher()
	if err != nil {
		return nil, err
	}
	ref := core.ReferenceMatch(m)
	if w.Sources == nil {
		return ref, nil
	}
	out := ref[:0]
	for _, p := range ref {
		if slices.Contains(w.Sources, p.U) {
			out = append(out, p)
		}
	}
	return out, nil
}

// VPairUnion computes Π as the union of VParaMatch (Fig. 5) over the
// sources, one fresh matcher per source vertex.
func (w *Workload) VPairUnion() ([]core.Pair, error) {
	var matches []core.Pair
	for _, u := range w.sources() {
		m, err := w.NewMatcher()
		if err != nil {
			return nil, err
		}
		matches = append(matches, m.VPair(u, nil)...)
	}
	return SortPairs(matches), nil
}

// APair computes Π with AllParaMatch (Fig. 8) on a fresh matcher.
func (w *Workload) APair() ([]core.Pair, error) {
	m, err := w.NewMatcher()
	if err != nil {
		return nil, err
	}
	return m.APair(w.Sources, nil), nil
}

// Parallel computes Π with the BSP engine (async selects the barrier-free
// adaptive asynchronous mode) on a fresh engine.
func (w *Workload) Parallel(workers int, async bool) ([]core.Pair, error) {
	eng, err := w.NewEngine()
	if err != nil {
		return nil, err
	}
	var matches []core.Pair
	if async {
		matches, _, err = eng.RunAsync(w.Sources, nil, bsp.Config{Workers: workers})
	} else {
		matches, _, err = eng.Run(w.Sources, nil, bsp.Config{Workers: workers})
	}
	if err != nil {
		return nil, err
	}
	return matches, nil
}

// RunAll computes the workload's match set through every implementation:
// fresh-per-pair ParaMatch, shared-cache ParaMatch, VPair union, APair,
// the parallel engine in sync and async mode at each worker count, and
// the sharded serving engine at each shard count.
func (w *Workload) RunAll(workerCounts []int) ([]EngineResult, error) {
	var out []EngineResult
	add := func(name string, matches []core.Pair, err error) error {
		if err != nil {
			return fmt.Errorf("%s on %s: %w", name, w.Name, err)
		}
		out = append(out, EngineResult{Name: name, Matches: matches})
		return nil
	}
	m, err := w.FreshParaMatch()
	if e := add("paramatch-fresh", m, err); e != nil {
		return nil, e
	}
	m, err = w.SeqParaMatch()
	if e := add("paramatch-seq", m, err); e != nil {
		return nil, e
	}
	m, err = w.VPairUnion()
	if e := add("vpair", m, err); e != nil {
		return nil, e
	}
	m, err = w.APair()
	if e := add("apair", m, err); e != nil {
		return nil, e
	}
	for _, n := range workerCounts {
		m, err = w.Parallel(n, false)
		if e := add(fmt.Sprintf("bsp-sync-%d", n), m, err); e != nil {
			return nil, e
		}
		m, err = w.Parallel(n, true)
		if e := add(fmt.Sprintf("bsp-async-%d", n), m, err); e != nil {
			return nil, e
		}
		m, err = w.Sharded(n)
		if e := add(fmt.Sprintf("shard-%d", n), m, err); e != nil {
			return nil, e
		}
	}
	return out, nil
}

// SortPairs sorts (and returns) pairs by (U, V).
func SortPairs(pairs []core.Pair) []core.Pair {
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].U != pairs[b].U {
			return pairs[a].U < pairs[b].U
		}
		return pairs[a].V < pairs[b].V
	})
	return pairs
}

// EqualPairs reports whether two sorted pair slices are identical.
func EqualPairs(a, b []core.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DiffPairs renders a readable set difference between two sorted match
// sets, for failure messages.
func DiffPairs(wantName string, want []core.Pair, gotName string, got []core.Pair) string {
	inWant := make(map[core.Pair]bool, len(want))
	for _, p := range want {
		inWant[p] = true
	}
	inGot := make(map[core.Pair]bool, len(got))
	for _, p := range got {
		inGot[p] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s has %d matches, %s has %d", wantName, len(want), gotName, len(got))
	for _, p := range want {
		if !inGot[p] {
			fmt.Fprintf(&b, "\n  only in %s: (%d, %d)", wantName, p.U, p.V)
		}
	}
	for _, p := range got {
		if !inWant[p] {
			fmt.Fprintf(&b, "\n  only in %s: (%d, %d)", gotName, p.U, p.V)
		}
	}
	return b.String()
}

// ContainsAll reports whether every pair of sub appears in the sorted
// set, returning the first missing pair otherwise.
func ContainsAll(set, sub []core.Pair) (core.Pair, bool) {
	in := make(map[core.Pair]bool, len(set))
	for _, p := range set {
		in[p] = true
	}
	for _, p := range sub {
		if !in[p] {
			return p, false
		}
	}
	return core.Pair{}, true
}
