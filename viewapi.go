package her

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"her/internal/bsp"
	"her/internal/core"
	"her/internal/graph"
	"her/internal/ranking"
	"her/internal/rdb2rdf"
	"her/internal/shard"
	"her/internal/view"
)

// This file is the hosted-graph state and its one query method set.
// Every graph over D the System links against G is a hosted view: its
// own G_D-side graph, tuple↔vertex mapping, ranker, matcher, overrides,
// generation counter and delta log, maintained by one loop per write
// path over System.hosted. Every view, the reserved
// "direct" first entry of that table included, is compiled from its
// rules by view.Compile (direct's rules are view.Direct) and extended by
// view.ExtendTuple; rdb2rdf.Map is only the reference
// internal/testkit.DirectViewDiff compares that extractor against.
//
// Maintenance rides the delta machinery per view: AddTuple extends each
// view's graph by the new tuple's fresh region and records a DeltaTuple
// in that view's log; G mutations fan out as graph deltas; and a change
// append-only extraction cannot express — a new tuple resolving a
// reference that dangled when a rule view was extracted — recompiles
// that view and records a DeltaReset, which forces its serving engines
// into the full rebuild they need. direct is append-only forever: its
// dangling references stay dangling.

// ViewDef re-exports the view definition type for the builder API.
type ViewDef = view.Def

// DirectViewName is the reserved name of the built-in direct view.
const DirectViewName = view.DirectName

// NewViewDef starts a view definition (builder API); see internal/view.
func NewViewDef(name string) *ViewDef { return view.NewDef(name) }

// ParseViews parses view definitions in the rule language.
func ParseViews(src []byte) ([]*ViewDef, error) { return view.Parse(src) }

// ViewInfo describes one hosted view for /stats and the CLI.
type ViewInfo struct {
	Name       string `json:"name"`
	Rules      int    `json:"rules"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	Tuples     int    `json:"tuples"`
	Generation uint64 `json:"generation"`
}

// ViewHandle is one hosted view: the state of one graph over D and the
// queries addressed at it. All fields are guarded by System.mu except
// the immutable identity (sys, name, errp, def, rules, deltas) and the
// two atomics — generation, which serving engines read, and resolved,
// which TupleVertex reads — written under System.mu and read without it.
type ViewHandle struct {
	sys   *System
	name  string
	errp  string    // error prefix naming the view ("her: " for direct)
	def   *view.Def // extraction rules; nil without a relational database (NewFromGraphs)
	rules int       // rule count of the definition the graph denotes

	gd      *graph.Graph
	mapping *rdb2rdf.Mapping // nil without a relational database (NewFromGraphs)
	rankerD *ranking.Ranker
	matcher *core.Matcher
	// overrides holds the user-verified pairs (Section IV refinement) in
	// this view's vertex space. Feedback addresses the direct view, so
	// it stays empty on every other one.
	overrides map[core.Pair]bool

	// generation counts semantic mutations: incremental updates to D or
	// G, feedback, retraining, threshold changes — anything that can
	// change a match verdict. Each bump records exactly one typed delta
	// in deltas, so external engines (internal/shard) can tell
	// incremental updates — maintainable in place, with vertex-scoped
	// cache invalidation — from resets that force a full rebuild.
	generation atomic.Uint64
	deltas     *shard.DeltaLog

	// recompiles counts the rule view's recompiles since it was
	// installed: each renumbers the view's vertices.
	recompiles uint64
	// resolved is what a tuple resolution reads without the lock: every
	// write that changes the mapping publishes it (publishLocked), after
	// the write's generation bump.
	resolved atomic.Pointer[resolution]
}

// resolution is a published snapshot of a view's tuple→vertex index and
// the recompile count it belongs to. A reader that finds the tuple here
// finds the write that mapped it already counted in the generation, so
// a serving engine it asks next serves a state that has the vertex.
type resolution struct {
	tuples     rdb2rdf.TupleIndex // nil without a tuple mapping
	recompiles uint64
}

// publishLocked publishes the view's resolution: a snapshot of its
// tuple index (one header per relation; the columns are shared) and its
// recompile count. Callers hold s.mu and have bumped the generation for
// the write being published.
func (h *ViewHandle) publishLocked() {
	r := &resolution{recompiles: h.recompiles}
	if h.mapping != nil {
		r.tuples = h.mapping.Tuples()
	}
	h.resolved.Store(r)
}

// recordLocked stamps d with the view's next generation, records it in
// the delta log, and only then publishes the generation bump — so any
// engine that observes the new generation is guaranteed to find its
// delta in the log. Callers hold s.mu (all mutation paths do), which
// serializes the stamp-record-bump sequence.
func (h *ViewHandle) recordLocked(d shard.Delta) {
	d.Gen = h.generation.Load() + 1
	h.deltas.Record(d)
	h.generation.Add(1)
}

// candidatesLocked is the view's candidate generator: the System's
// blocking index over G, queried with u's neighborhood document in the
// view's own graph. It reads both live, so callers hold s.mu.
func (h *ViewHandle) candidatesLocked(u graph.VID) []graph.VID {
	return h.sys.ix.Candidates(h.gd, u, nil)
}

// rebuildMatcherLocked builds a fresh matcher (no cached decisions)
// around the current scorers, rankers and thresholds.
func (h *ViewHandle) rebuildMatcherLocked() error {
	s := h.sys
	m, err := core.NewMatcher(h.gd, s.G, h.rankerD, s.rankerG, s.paramsLocked())
	if err != nil {
		return err
	}
	m.SetMetrics(s.opts.Metrics)
	h.matcher = m
	return nil
}

// compileLocked extracts a rule view from scratch and rebuilds its
// ranker and matcher around the new graph.
func (h *ViewHandle) compileLocked() error {
	s := h.sys
	gd, mapping, err := view.Compile(h.def, s.DB)
	if err != nil {
		return err
	}
	h.gd, h.mapping = gd, mapping
	h.rankerD = ranking.NewRanker(gd, s.lm, s.opts.MaxPathLen)
	return h.rebuildMatcherLocked()
}

// extendTupleLocked maintains the view after tuple (rel, id) was
// appended to the database, through view.ExtendTuple for every view. A
// rule view recompiles instead — a DeltaReset — when the new tuple
// resolves a reference that dangled at extraction time, or when the
// extension fails. direct never recompiles: sys.GD, sys.Mapping and the
// feedback overrides live in its vertex space, so it stays append-only
// and its dangling references stay dangling. Callers hold s.mu.
func (h *ViewHandle) extendTupleLocked(rel string, id int) error {
	s := h.sys
	base := h.gd.NumVertices()
	extended := false
	if h == s.direct || !h.mapping.ResolvesDangling(s.DB, rel, id) {
		err := view.ExtendTuple(h.gd, h.mapping, h.def, s.DB, rel, id)
		if err != nil && h == s.direct {
			return err
		}
		// Extension is best-effort for a rule view; a full recompile is
		// always sound.
		extended = err == nil
	}
	if !extended {
		if err := h.compileLocked(); err != nil {
			return err
		}
		h.recompiles++
		h.recordLocked(shard.Delta{Kind: shard.DeltaReset})
		h.publishLocked()
		return nil
	}
	// The new tuple extends G_D and the source set: unscoped APair
	// results are stale now, while VPair and explicit-source results
	// survive (the fresh region has no incoming edges from old
	// vertices). The delta carries the exact new region — vertices in id
	// order, edges grouped by source in insertion order (only the new
	// vertices gained out-edges) — so an engine mirror replaying it is
	// byte-identical to this G_D.
	d := shard.Delta{Kind: shard.DeltaTuple, GDBase: base}
	for v := base; v < h.gd.NumVertices(); v++ {
		d.GDLabels = append(d.GDLabels, h.gd.Label(graph.VID(v)))
		for _, e := range h.gd.Out(graph.VID(v)) {
			d.GDEdges = append(d.GDEdges, shard.GDEdge{From: graph.VID(v), To: e.To, Label: e.Label})
		}
	}
	h.recordLocked(d)
	h.publishLocked()
	return nil
}

// AddViewDef compiles def against the System's database and installs it
// as a named view. The name "direct" is reserved for the built-in
// canonical mapping.
func (s *System) AddViewDef(def *ViewDef) error {
	if def == nil {
		return fmt.Errorf("her: nil view definition")
	}
	if s.DB == nil {
		return fmt.Errorf("her: views need a relational database (built with NewFromGraphs)")
	}
	if def.Name == DirectViewName {
		return fmt.Errorf("her: view name %q is reserved for the canonical mapping", DirectViewName)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.hosted {
		if o.name == def.Name {
			return fmt.Errorf("her: view %q already exists", def.Name)
		}
	}
	h := &ViewHandle{
		sys:    s,
		name:   def.Name,
		errp:   fmt.Sprintf("her: view %s: ", def.Name),
		def:    def,
		rules:  def.RuleCount(),
		deltas: new(shard.DeltaLog),
	}
	if err := h.compileLocked(); err != nil {
		return err
	}
	h.publishLocked()
	s.hosted = append(s.hosted, h)
	named := s.hosted[1:] // direct stays first; the rest sort by name
	sort.Slice(named, func(i, j int) bool { return named[i].name < named[j].name })
	return nil
}

// LoadViewFile parses a view definition file and installs every view in
// it — the loading path behind hercli/herserve's -views flag.
func (s *System) LoadViewFile(r io.Reader) error {
	defs, err := view.ParseReader(r)
	if err != nil {
		return err
	}
	for _, d := range defs {
		if err := s.AddViewDef(d); err != nil {
			return err
		}
	}
	return nil
}

// ViewNames lists the hosted views: "direct" first, then the named
// views in sorted order.
func (s *System) ViewNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.hosted))
	for i, h := range s.hosted {
		out[i] = h.name
	}
	return out
}

// View resolves a view by name; "" names the direct view. The returned
// handle addresses queries at the view's graph and mapping.
func (s *System) View(name string) (*ViewHandle, error) {
	if name == "" {
		return s.direct, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.hosted {
		if h.name == name {
			return h, nil
		}
	}
	return nil, fmt.Errorf("her: unknown view %q", name)
}

// Name returns the view's name.
func (h *ViewHandle) Name() string { return h.name }

// Generation reports the view's mutation generation. Safe for
// concurrent use.
func (h *ViewHandle) Generation() uint64 { return h.generation.Load() }

// Info snapshots the view's shape for /stats and the CLI.
func (h *ViewHandle) Info() ViewInfo {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	info := ViewInfo{
		Name:       h.name,
		Rules:      h.rules,
		Vertices:   h.gd.NumVertices(),
		Edges:      h.gd.NumEdges(),
		Generation: h.Generation(),
	}
	if h.mapping != nil {
		info.Tuples = h.mapping.NumTupleVertices()
	}
	return info
}

// TupleOf reports which tuple a view-graph vertex materializes (the
// inverse of TupleVertex), under the system lock — safe against
// concurrent AddTuple.
func (h *ViewHandle) TupleOf(u VertexID) (TupleRef, bool) {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	if h.mapping == nil {
		return TupleRef{}, false
	}
	return h.mapping.TupleOf(u)
}

// TupleVertex resolves a tuple to its vertex in this view's graph.
func (h *ViewHandle) TupleVertex(rel string, tupleID int) (VertexID, error) {
	u, _, err := h.Resolve(rel, tupleID)
	return u, err
}

// Resolve is TupleVertex that also returns the view's recompile count
// the vertex belongs to. A rule view's recompile renumbers its
// vertices, so a caller that resolves, then asks a serving engine about
// the vertex, holds an answer about the tuple only while Recompiles
// still returns that count; the direct view never recompiles.
//
// A tuple the published resolution maps is answered from it without
// the system lock; any other — an unknown tuple, or no mapping — takes
// the locked read, which reports the error.
func (h *ViewHandle) Resolve(rel string, tupleID int) (VertexID, uint64, error) {
	r := h.resolved.Load()
	if u, ok := r.tuples.VertexOf(rel, tupleID); ok {
		return u, r.recompiles, nil
	}
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	if h.mapping == nil {
		return NoVertex, 0, fmt.Errorf("%sno tuple mapping (built with NewFromGraphs)", h.errp)
	}
	u, ok := h.mapping.VertexOf(rel, tupleID)
	if !ok {
		return NoVertex, 0, fmt.Errorf("%sunknown tuple %s/%d", h.errp, rel, tupleID)
	}
	return u, h.recompiles, nil
}

// Recompiles reports how many times the view was recompiled since it
// was installed, as last published (see Resolve). Safe for concurrent
// use.
func (h *ViewHandle) Recompiles() uint64 { return h.resolved.Load().recompiles }

// GDLabel returns the label of vertex u in this view's graph ("" when u
// is not a vertex of it), under the system lock — AddTuple extends the
// graph while serving.
func (h *ViewHandle) GDLabel(u VertexID) string {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	if !h.gd.Valid(u) {
		return ""
	}
	return h.gd.Label(u)
}

// SPair checks whether the tuple and vertex v refer to the same entity,
// through this view's extraction.
func (h *ViewHandle) SPair(rel string, tupleID int, v VertexID) (bool, error) {
	u, err := h.TupleVertex(rel, tupleID)
	if err != nil {
		return false, err
	}
	return h.spairVertices(u, v), nil
}

func (h *ViewHandle) spairVertices(u, v VertexID) bool {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	if verdict, ok := h.overrides[core.Pair{U: u, V: v}]; ok {
		return verdict
	}
	return h.matcher.Match(u, v)
}

// VPair finds all vertices of G matching the tuple through this view.
func (h *ViewHandle) VPair(rel string, tupleID int) ([]Pair, error) {
	u, err := h.TupleVertex(rel, tupleID)
	if err != nil {
		return nil, err
	}
	return h.vpairVertex(u), nil
}

// vpairVertex is VPair addressed by the tuple's vertex.
func (h *ViewHandle) vpairVertex(u VertexID) []Pair {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	return h.applyOverridesLocked(h.matcher.VPair(u, h.candidatesLocked), u)
}

// SourceVertices returns the source vertices the view's APair ranges
// over: its tuple vertices in relation order, nil (= every vertex)
// without a tuple mapping.
func (h *ViewHandle) SourceVertices() []VertexID {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	return h.sourcesLocked()
}

func (h *ViewHandle) sourcesLocked() []graph.VID {
	if h.mapping == nil {
		return nil
	}
	out := make([]graph.VID, 0, h.mapping.NumTupleVertices())
	for _, relName := range h.sys.DB.RelationNames() {
		out = append(out, h.mapping.TupleVertices(relName)...)
	}
	return out
}

// APair computes all matches across the view and G sequentially.
func (h *ViewHandle) APair() []Pair {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	return h.apairLocked(h.sourcesLocked())
}

func (h *ViewHandle) apairLocked(sources []graph.VID) []Pair {
	return h.applyOverridesLocked(h.matcher.APair(sources, h.candidatesLocked), graph.NoVertex)
}

// APairParallel computes all matches with the BSP engine on n workers.
// Like APair it holds the system lock for the whole run: the workers
// read the live graphs and rankers, which AddTuple, AddGraphVertex and
// AddGraphEdge extend under that lock, and never take it themselves.
// A run that still exchanges messages at the engine's superstep bound
// (1000) has no fixpoint: it returns no matches and an error wrapping
// bsp.ErrNotConverged, never the partial union.
func (h *ViewHandle) APairParallel(workers int) ([]Pair, ParallelStats, error) {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	eng, err := h.parallelEngineLocked()
	if err != nil {
		return nil, ParallelStats{}, err
	}
	return h.parallelResultLocked(eng.Run(h.sourcesLocked(), h.candidatesLocked, bsp.Config{Workers: workers}))
}

// APairParallelAsync computes all matches with the asynchronous engine
// (Section VI-B remark 1): no superstep barriers; workers exchange
// messages as they arrive until quiescence. It holds the system lock
// like APairParallel.
func (h *ViewHandle) APairParallelAsync(workers int) ([]Pair, ParallelStats, error) {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	eng, err := h.parallelEngineLocked()
	if err != nil {
		return nil, ParallelStats{}, err
	}
	return h.parallelResultLocked(eng.RunAsync(h.sourcesLocked(), h.candidatesLocked, bsp.Config{Workers: workers}))
}

// parallelEngineLocked builds a BSP engine over the view's live graphs,
// rankers, thresholds and metrics registry. Callers hold s.mu until the
// run is over.
func (h *ViewHandle) parallelEngineLocked() (*bsp.Engine, error) {
	s := h.sys
	eng, err := bsp.NewEngine(h.gd, s.G, h.rankerD, s.rankerG, s.paramsLocked())
	if err != nil {
		return nil, err
	}
	eng.Metrics = s.opts.Metrics
	return eng, nil
}

// parallelResultLocked finishes a parallel run: its matches pass through
// the view's overrides. Callers hold s.mu.
func (h *ViewHandle) parallelResultLocked(matches []Pair, stats ParallelStats, err error) ([]Pair, ParallelStats, error) {
	if err != nil {
		return nil, stats, err
	}
	return h.applyOverridesLocked(matches, graph.NoVertex), stats, nil
}

// applyOverridesLocked reconciles algorithmic matches with user-verified
// verdicts: refuted pairs are removed; confirmed pairs for the scoped
// vertex (or any vertex when scope is NoVertex) are added. Callers hold
// s.mu (the overrides map mutates under it).
func (h *ViewHandle) applyOverridesLocked(matches []Pair, scope graph.VID) []Pair {
	if len(h.overrides) == 0 {
		return matches
	}
	out := matches[:0]
	have := make(map[core.Pair]bool, len(matches))
	for _, p := range matches {
		if verdict, ok := h.overrides[p]; ok && !verdict {
			continue
		}
		out = append(out, p)
		have[p] = true
	}
	// Collect the confirmed additions and sort them: overrides is a map,
	// and letting its iteration order reach the returned match list
	// would make VPair/APair responses differ run to run.
	added := make([]Pair, 0, len(h.overrides))
	for p, verdict := range h.overrides {
		if verdict && !have[p] && (scope == graph.NoVertex || p.U == scope) {
			added = append(added, p)
		}
	}
	return append(out, core.SortPairs(added)...)
}

func (h *ViewHandle) applyOverrides(matches []Pair, scope VertexID) []Pair {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	return h.applyOverridesLocked(matches, scope)
}

// Explain explains a confirmed match of this view (running the match
// first if needed).
func (h *ViewHandle) Explain(u, v VertexID) (*Explanation, error) {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	if !h.matcher.Match(u, v) {
		return nil, fmt.Errorf("%s(%d, %d) is not a match", h.errp, u, v)
	}
	sm, err := h.matcher.SchemaMatches(u, v)
	if err != nil {
		return nil, err
	}
	return &Explanation{
		Witness:       h.matcher.Witness(u, v),
		Lineage:       h.matcher.Lineage(u, v),
		SchemaMatches: sm,
		view:          h,
	}, nil
}

// CanonicalDump serializes the view in the vertex-id-independent form
// of view.CanonicalDump — the equality the differentials compare, since
// append-only maintenance and a fresh extraction interleave vertex ids
// differently while denoting the same graph. It works on every view
// with a tuple mapping, direct included; it errors without one
// (NewFromGraphs).
func (h *ViewHandle) CanonicalDump() (string, error) {
	h.sys.mu.Lock()
	defer h.sys.mu.Unlock()
	if h.mapping == nil {
		return "", fmt.Errorf("%sno tuple mapping (built with NewFromGraphs)", h.errp)
	}
	return view.CanonicalDump(h.gd, h.mapping, h.sys.DB), nil
}

// WriteTSV serializes the view's graph (cloned under the system lock,
// written without it) — hercli extract and GET /extract use this.
func (h *ViewHandle) WriteTSV(w io.Writer) error {
	h.sys.mu.Lock()
	g := h.gd.Clone()
	h.sys.mu.Unlock()
	return g.WriteTSV(w)
}
