// Package her implements HER (Heterogeneous Entity Resolution), the
// system of "Linking Entities across Relations and Graphs" (ICDE 2022):
// it links tuples of a relational database D to vertices of a graph G
// that refer to the same real-world entity, via parametric simulation.
//
// A System is assembled from a database and a graph (Fig. 2): the
// RDB2RDF module converts D to a canonical graph G_D; the Learn module
// trains the parameter functions (M_v, M_ρ, M_r) and selects the
// thresholds (σ, δ, k); and three query modes answer requests:
//
//   - SPair: does tuple t match vertex v?
//   - VPair: all vertices of G matching tuple t.
//   - APair: all matches across D and G, sequentially or in parallel on
//     the BSP engine.
//
// Matches are explainable: Explain returns the witness relation Π, the
// lineage set and the schema matches Γ of a confirmed pair.
package her

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"her/internal/bsp"
	"her/internal/core"
	"her/internal/dataset"
	"her/internal/embed"
	"her/internal/graph"
	"her/internal/index"
	"her/internal/learn"
	"her/internal/lstm"
	"her/internal/obs"
	"her/internal/ranking"
	"her/internal/rdb2rdf"
	"her/internal/relational"
	"her/internal/shard"
	"her/internal/view"
)

// Public aliases so downstream users can name the library's types
// without importing internal packages.
type (
	// VertexID identifies a vertex of G_D or G.
	VertexID = graph.VID
	// Pair is a candidate or confirmed match (U in G_D, V in G).
	Pair = core.Pair
	// TupleRef identifies a tuple of the database.
	TupleRef = rdb2rdf.TupleRef
	// Annotation is a ground-truth labeled pair.
	Annotation = learn.Annotation
	// Feedback is a user-annotated pair from the interaction loop.
	Feedback = learn.Feedback
	// Thresholds bundles (σ, δ, k).
	Thresholds = learn.Thresholds
	// PathPair is an annotated edge-label-sequence pair for training M_ρ.
	PathPair = dataset.PathPair
	// SchemaMatch maps an attribute to the G path encoding it.
	SchemaMatch = core.SchemaMatch
	// ParallelStats reports a parallel APair run: the work division
	// over an edge-cut partition of G (PerWorkerPairs, PerWorkerCalls),
	// the messages (Requests, and Invalidations — at most one per
	// refuted pair and subscriber) and the supersteps.
	ParallelStats = bsp.Stats
	// Counters reports matcher work.
	Counters = core.Counters
	// MetricsRegistry is the observability registry of internal/obs:
	// named counters, gauges and latency histograms with Prometheus
	// text exposition. Install one via Options.Metrics.
	MetricsRegistry = obs.Registry
	// Span is a traced region of work (obs span tracing).
	Span = obs.Span
	// SpanNode is the immutable exported form of a finished span tree.
	SpanNode = obs.SpanNode
	// FlightRecorder retains the slowest and all errored request traces
	// per operation in bounded memory; see internal/obs.
	FlightRecorder = obs.FlightRecorder
	// Trace is one retained request trace: id, op, error and span tree.
	Trace = obs.Trace
)

// NewMetrics creates an empty metrics registry to pass in
// Options.Metrics and to serve at GET /metrics.
func NewMetrics() *MetricsRegistry { return obs.NewRegistry() }

// StartSpan opens a root tracing span; see internal/obs.
func StartSpan(name string) *Span { return obs.StartSpan(name) }

// NewFlightRecorder creates a flight recorder retaining, per operation,
// the slowPerOp slowest successful traces and a ring of the errsPerOp
// most recent errored ones (0 picks the defaults of 16 and 64).
func NewFlightRecorder(slowPerOp, errsPerOp int) *FlightRecorder {
	return obs.NewFlightRecorder(slowPerOp, errsPerOp)
}

// WithSpan installs a span on a context for propagation through the
// serving stack; a nil span leaves the context unchanged.
func WithSpan(ctx context.Context, sp *Span) context.Context { return obs.WithSpan(ctx, sp) }

// SpanFrom returns the span installed on ctx, or nil.
func SpanFrom(ctx context.Context) *Span { return obs.SpanFrom(ctx) }

// System is one HER instance over a database D and a graph G.
type System struct {
	opts Options // guarded by mu — SetThresholds and LoadModels mutate it while queries read it

	DB      *relational.Database
	GD      *graph.Graph     // the direct view's graph (direct.gd)
	Mapping *rdb2rdf.Mapping // the direct view's mapping; nil when built with NewFromGraphs
	G       *graph.Graph

	sc      *scorers        // guarded by mu — swapped whole by TrainPathModel, Refine and LoadModels
	lm      *lstm.Model     // guarded by mu — swapped whole on retrain/load
	rankerG *ranking.Ranker // guarded by mu — rebuilt with lm

	mu sync.Mutex      // serializes matching and mutation
	ix *index.Inverted // guarded by mu — G's blocking index, shared by all views; rebuilt by AddGraphEdge

	// hosted is the table of graphs over D the system links against G:
	// the direct view first, then the named views in sorted order — the
	// fixed order every write path walks. Guarded by mu.
	hosted []*ViewHandle
	// direct is hosted[0], the view "" resolves to. It is set once at
	// construction, so the top-level query methods (and the lock-free
	// Generation) reach it without the lock.
	direct *ViewHandle
	// labels is G's label column as of its last AddGraphVertex, which
	// GraphLabel reads without the lock. Labels are append-only
	// (graph.Graph.Labels), so a published column stays exact at its
	// length; each write publishes a new header under mu.
	labels atomic.Pointer[[]string]
}

// New builds a System from a relational database and a graph. The
// direct view is the RDB2RDF canonical mapping, hosted like every other
// view: its rules are view.Direct(db), compiled by view.Compile, and
// AddTuple extends it by view.ExtendTuple, append-only forever.
func New(db *relational.Database, g *graph.Graph, opts Options) (*System, error) {
	if db == nil || g == nil {
		return nil, fmt.Errorf("her: database and graph must be non-nil")
	}
	def := view.Direct(db)
	gd, mapping, err := view.Compile(def, db)
	if err != nil {
		return nil, err
	}
	s, err := NewFromGraphs(gd, g, opts)
	if err != nil {
		return nil, err
	}
	s.DB, s.Mapping = db, mapping
	s.direct.def, s.direct.mapping, s.direct.rules = def, mapping, def.RuleCount()
	s.direct.publishLocked()
	return s, nil
}

// NewFromGraphs builds a System directly over a pre-converted canonical
// graph G_D and a graph G (no tuple-level API in this mode).
func NewFromGraphs(gd, g *graph.Graph, opts Options) (*System, error) {
	if gd == nil || g == nil {
		return nil, fmt.Errorf("her: graphs must be non-nil")
	}
	o := opts.Normalize()
	s := &System{
		opts:    o,
		GD:      gd,
		G:       g,
		sc:      newScorers(embed.NewEncoder(o.EmbeddingDim), nil),
		rankerG: ranking.NewRanker(g, nil, o.MaxPathLen),
		ix:      index.Blocking(g, minSharedTokens),
	}
	s.direct = &ViewHandle{
		sys:       s,
		name:      DirectViewName,
		errp:      "her: ",
		gd:        gd,
		rankerD:   ranking.NewRanker(gd, nil, o.MaxPathLen),
		overrides: make(map[core.Pair]bool),
		deltas:    new(shard.DeltaLog),
	}
	s.hosted = []*ViewHandle{s.direct}
	s.direct.publishLocked()
	s.publishLabelsLocked()
	if err := s.resetMatcherLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Options returns the normalized options in effect, under the system
// lock — SetThresholds and LoadModels mutate them.
func (s *System) Options() Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts
}

// paramsLocked assembles the core parameters from the current scorers
// and thresholds. Callers hold s.mu (the thresholds live in s.opts).
func (s *System) paramsLocked() core.Params {
	return core.Params{
		Mv:    s.sc.enc.MvScore,
		Mrho:  s.sc.Mrho,
		Sigma: s.opts.Sigma,
		Delta: s.opts.Delta,
		K:     s.opts.K,
	}
}

// resetMatcherLocked rebuilds every hosted view's matcher around the
// current scorers, rankers and thresholds. Every matcher reset is a
// semantic change (new scorers, thresholds or feedback) that can flip
// verdicts anywhere: each view records it as a reset delta, which
// poisons incremental maintenance and forces external engines into a
// full rebuild with total cache invalidation. Callers hold s.mu.
func (s *System) resetMatcherLocked() error {
	for _, h := range s.hosted {
		if err := h.rebuildMatcherLocked(); err != nil {
			return err
		}
		h.recordLocked(shard.Delta{Kind: shard.DeltaReset})
	}
	return nil
}

// installLMLocked swaps in a new path language model: the G-side ranker
// and every hosted view's G_D-side ranker are rebuilt around it. The
// matchers still hold the old rankers until the matcher reset every
// caller follows up with under the same lock acquisition. Callers hold
// s.mu.
func (s *System) installLMLocked(lm *lstm.Model) {
	s.lm = lm
	s.rankerG = ranking.NewRanker(s.G, lm, s.opts.MaxPathLen)
	for _, h := range s.hosted {
		h.rankerD = ranking.NewRanker(h.gd, lm, s.opts.MaxPathLen)
	}
}

// Generation reports the direct view's mutation generation. It changes
// whenever a match verdict could: incremental updates (AddTuple,
// AddGraphVertex, AddGraphEdge), feedback (Refine), retraining and
// threshold changes all bump it. Safe for concurrent use.
func (s *System) Generation() uint64 { return s.direct.Generation() }

// Metrics returns the registry the system was built with (nil when
// instrumentation is disabled).
func (s *System) Metrics() *MetricsRegistry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts.Metrics
}

// ResetMatchState drops all cached match decisions (e.g. after the
// underlying scorers changed).
func (s *System) ResetMatchState() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.resetMatcherLocked()
}

// Thresholds returns the current (σ, δ, k), under the system lock —
// SetThresholds installs new ones concurrently.
func (s *System) Thresholds() Thresholds {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Thresholds{Sigma: s.opts.Sigma, Delta: s.opts.Delta, K: s.opts.K}
}

// SetThresholds installs new thresholds and resets cached decisions.
func (s *System) SetThresholds(th Thresholds) error {
	if err := checkThresholds(th); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opts.Sigma, s.opts.Delta, s.opts.K = th.Sigma, th.Delta, th.K
	return s.resetMatcherLocked()
}

// checkThresholds is the rule every installed (σ, δ, k) obeys: σ in
// [0, 1], δ ≥ 0, k ≥ 1.
func checkThresholds(th Thresholds) error {
	if th.Sigma < 0 || th.Sigma > 1 || th.Delta < 0 || th.K <= 0 {
		return fmt.Errorf("her: invalid thresholds %+v", th)
	}
	return nil
}

// GraphValid reports whether v is a vertex of G, under the system lock —
// safe against a concurrent AddGraphVertex growing the vertex table.
func (s *System) GraphValid(v VertexID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.G.Valid(v)
}

// publishLabelsLocked publishes G's label column for GraphLabel.
// Callers hold s.mu (construction and AddGraphVertex do).
func (s *System) publishLabelsLocked() {
	labels := s.G.Labels()
	s.labels.Store(&labels)
}

// GraphLabel returns the label of G vertex v ("" when v is not a vertex
// of G). The serving path renders labels while incremental updates
// append to G: a vertex in the published label column is read from it
// without the system lock, any other under the lock.
func (s *System) GraphLabel(v VertexID) string {
	if labels := *s.labels.Load(); v >= 0 && int(v) < len(labels) {
		return labels[v]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.G.Valid(v) {
		return ""
	}
	return s.G.Label(v)
}

// The tuple- and G_D-addressed queries below are the direct view's
// (viewapi.go): System.X(...) is View("").X(...).

// TupleOf reports which tuple a G_D vertex canonicalizes (the inverse
// of TupleVertex).
func (s *System) TupleOf(u VertexID) (TupleRef, bool) { return s.direct.TupleOf(u) }

// GDLabel returns the label of G_D vertex u ("" when u is not a vertex
// of G_D).
func (s *System) GDLabel(u VertexID) string { return s.direct.GDLabel(u) }

// TupleVertex resolves a tuple to its canonical-graph vertex via f_D —
// the resolution every tuple-addressed query runs.
func (s *System) TupleVertex(rel string, tupleID int) (VertexID, error) {
	return s.direct.TupleVertex(rel, tupleID)
}

// SPair checks whether tuple (rel, tupleID) and vertex v refer to the
// same entity (mode SPair of Fig. 2).
func (s *System) SPair(rel string, tupleID int, v VertexID) (bool, error) {
	return s.direct.SPair(rel, tupleID, v)
}

// SPairVertices is SPair addressed by vertex ids.
func (s *System) SPairVertices(u, v VertexID) bool { return s.direct.spairVertices(u, v) }

// VPair finds all vertices of G matching tuple (rel, tupleID).
func (s *System) VPair(rel string, tupleID int) ([]Pair, error) {
	return s.direct.VPair(rel, tupleID)
}

// VPairVertex is VPair addressed by the tuple's canonical vertex.
func (s *System) VPairVertex(u VertexID) []Pair { return s.direct.vpairVertex(u) }

// APair computes all matches across D and G sequentially.
func (s *System) APair() []Pair { return s.direct.APair() }

// APairOf computes all matches for an explicit set of G_D source
// vertices — the entry point for data formats without a tuple mapping,
// such as JSON documents converted with NewFromJSON.
func (s *System) APairOf(sources []VertexID) []Pair {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.direct.apairLocked(sources)
}

// APairParallel computes all matches with the BSP engine on n workers;
// see ViewHandle.APairParallel.
func (s *System) APairParallel(workers int) ([]Pair, ParallelStats, error) {
	return s.direct.APairParallel(workers)
}

// APairParallelAsync computes all matches with the asynchronous engine;
// see ViewHandle.APairParallelAsync.
func (s *System) APairParallelAsync(workers int) ([]Pair, ParallelStats, error) {
	return s.direct.APairParallelAsync(workers)
}

// ApplyOverrides reconciles an externally computed match set with the
// user-verified overrides — the hook engines outside the System's own
// matcher (internal/shard's scatter-gather) run their merged results
// through. scope restricts confirmed additions to one G_D vertex
// (VPair); pass NoVertex for APair-style results. The input slice is
// reused, matching the internal call sites.
func (s *System) ApplyOverrides(matches []Pair, scope VertexID) []Pair {
	return s.direct.applyOverrides(matches, scope)
}

// SourceVertices returns the G_D source vertices APair ranges over: the
// tuple vertices when a relational mapping exists, nil (= every vertex)
// otherwise.
func (s *System) SourceVertices() []VertexID { return s.direct.SourceVertices() }

// Explain returns the explanation of a confirmed match (running the
// match first if needed).
func (s *System) Explain(u, v VertexID) (*Explanation, error) { return s.direct.Explain(u, v) }

// Candidates exposes the blocking candidate generator: the G vertices
// considered for a G_D vertex before the σ filter. Baselines reuse it so
// efficiency comparisons share the same blocking. It runs under the
// system lock: it reads the live G_D and the index AddGraphEdge
// rebuilds.
func (s *System) Candidates(u VertexID) []VertexID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.direct.candidatesLocked(u)
}

// RankerD exposes the G_D-side ranking function h_r (for harnesses that
// assemble custom matchers over this system's learned parameters).
func (s *System) RankerD() *ranking.Ranker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.direct.rankerD
}

// RankerG exposes the G-side ranking function h_r.
func (s *System) RankerG() *ranking.Ranker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rankerG
}

// CoreParams exposes the assembled parametric-simulation parameters.
func (s *System) CoreParams() core.Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paramsLocked()
}

// Stats reports the sequential matcher's work counters.
func (s *System) Stats() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.direct.matcher.Stats()
}

// Explanation explains why a pair matches.
type Explanation struct {
	Witness       []Pair        // the match relation Π(u, v)
	Lineage       []Pair        // the lineage set S(u, v)
	SchemaMatches []SchemaMatch // Γ(u, v): attribute → path

	view *ViewHandle // the view whose vertex ids Witness and Lineage use
}

// Render writes a human-readable explanation, resolving vertex ids to
// labels through the graphs of the view that produced it (the direct
// view for an Explanation not obtained from Explain) — the paper's
// "showing why two vertices match based on matching vertex pairs and
// the accumulated score". Labels are read under the system lock.
func (e *Explanation) Render(sys *System) string {
	vh := e.view
	if vh == nil {
		vh = sys.direct
	}
	var b strings.Builder
	fmt.Fprintf(&b, "witness Pi: %d pairs\nlineage S:\n", len(e.Witness))
	for _, p := range e.Lineage {
		fmt.Fprintf(&b, "  (%q, %q)\n", vh.GDLabel(p.U), sys.GraphLabel(p.V))
	}
	b.WriteString("schema matches Gamma:\n")
	for _, sm := range e.SchemaMatches {
		fmt.Fprintf(&b, "  %s -> %s\n", sm.Attr, sm.Rho.LabelString())
	}
	return b.String()
}

// Predictor returns a learn.Predictor over the current system state,
// including overrides — the function the evaluation harness scores.
func (s *System) Predictor() learn.Predictor {
	return func(p core.Pair) bool { return s.SPairVertices(p.U, p.V) }
}
