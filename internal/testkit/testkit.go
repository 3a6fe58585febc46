// Package testkit is the differential-correctness harness of the
// repository: a deterministic, seed-driven workload generator plus
// runners that compute the same match set Π through every implementation
// the paper proves equivalent — sequential ParaMatch (Fig. 4), VParaMatch
// (Fig. 5), AllParaMatch (Fig. 8) and the BSP/asynchronous parallel
// engines (Section VI-B, Theorem 3) — so tests can assert they agree on
// arbitrary seeded inputs rather than a handful of hand-built fixtures.
//
// Three workload families are generated:
//
//   - Planted workloads (GenWorkload): a random relational schema with
//     foreign keys and nulls, a random database over it, the canonical
//     graph G_D via rdb2rdf, and a target graph G containing exact
//     replicas of a subset of tuples (the planted ground truth) plus
//     near-twin distractors and random noise. Paper invariants — the
//     f_D round trip and guaranteed recovery of planted pairs — are
//     checkable on these.
//
//   - Adversarial graph pairs (GenGraphWorkload): small dense random
//     graphs over tiny label pools, rich in cycles and cross-fragment
//     dependencies, which stress the cache/cleanup interplay of
//     ParaMatch and the border-assumption refinement of the parallel
//     engines.
//
//   - Widened graph pairs (GenWidenedWorkloads): larger random pairs
//     whose candidate lists compete for the same G-side vertices, where
//     every engine must return exactly core.ReferenceMatch's maximum
//     match (Workload.Reference), not only agree with the others.
//
// All generation is driven by a single int64 seed through math/rand, so
// any failure reproduces from its seed alone.
package testkit

import (
	"strings"

	"her/internal/bsp"
	"her/internal/core"
	"her/internal/graph"
	"her/internal/ranking"
	"her/internal/rdb2rdf"
	"her/internal/relational"
	"her/internal/text"
)

// Workload is one generated differential-test input: a pair of graphs,
// the simulation parameters, and the query sources. For planted
// workloads the relational side (DB, Mapping) and the planted
// ground-truth pairs are populated; adversarial graph pairs leave them
// nil.
type Workload struct {
	Seed int64
	Name string // short human-readable description, for failure messages

	DB      *relational.Database // nil for graph-only workloads
	Mapping *rdb2rdf.Mapping     // nil for graph-only workloads
	GD      *graph.Graph
	G       *graph.Graph

	Params core.Params
	MaxLen int // ranker path-length cap

	// Sources are the G_D query vertices (APair sources); nil means
	// every vertex of G_D.
	Sources []graph.VID

	// Planted are tuple↔vertex pairs the generator guarantees to be
	// matches (exact canonical replicas with δ ≤ 0.5, σ-compatible
	// labels and k at least the tuple fan-out), so recovery can be
	// asserted, not just cross-checked.
	Planted []core.Pair
}

// NewMatcher builds a fresh sequential matcher (fresh rankers, cold
// caches) over the workload.
func (w *Workload) NewMatcher() (*core.Matcher, error) {
	return core.NewMatcher(w.GD, w.G,
		ranking.NewRanker(w.GD, nil, w.MaxLen),
		ranking.NewRanker(w.G, nil, w.MaxLen), w.Params)
}

// NewEngine builds a fresh parallel engine over the workload.
func (w *Workload) NewEngine() (*bsp.Engine, error) {
	return bsp.NewEngine(w.GD, w.G,
		ranking.NewRanker(w.GD, nil, w.MaxLen),
		ranking.NewRanker(w.G, nil, w.MaxLen), w.Params)
}

// ExactMv is the exact-label vertex scorer: 1 iff the labels are equal.
func ExactMv(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// ExactMrho is the exact path scorer: 1 iff the edge-label sequences are
// identical.
func ExactMrho(a, b []string) float64 {
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

// LevMv is a graded vertex scorer: normalized Levenshtein similarity.
// Pure and deterministic, so every implementation sees identical scores.
func LevMv(a, b string) float64 { return text.LevenshteinSim(a, b) }

// JaccardMrho is a graded path scorer: 1 for identical sequences,
// otherwise the Jaccard similarity of the label sets.
func JaccardMrho(a, b []string) float64 {
	if ExactMrho(a, b) == 1 {
		return 1
	}
	return text.JaccardTokens(strings.Join(a, " "), strings.Join(b, " "))
}
