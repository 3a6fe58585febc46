package testkit

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"her/internal/core"
	"her/internal/graph"
	"her/internal/index"
	"her/internal/ranking"
	"her/internal/shard"
)

// MutSeq is a live mutable workload that mirrors her.System's delta
// emission protocol: a pair of graphs under a lock, a generation
// counter, and a typed delta log that external sharded engines replay
// for in-place maintenance. It exists so the delta path can be
// differentially tested (and fuzzed) without dragging the full System —
// relational database, language model, feedback store — into every
// mutation interleaving.
//
// The emission contract matches System.recordDelta exactly: under the
// lock, the delta is stamped with generation+1, recorded, and only then
// is the generation bump published, so an engine that observes a
// generation always finds its delta in the log. EngineConfig's Source
// reads the generation under the same lock, anchoring replay to the
// exact generation of the copies.
type MutSeq struct {
	mu        sync.Mutex
	GD        *graph.Graph
	G         *graph.Graph
	Params    core.Params
	MaxLen    int
	MinShared int // engine blocking threshold (0 = blocking off)

	gen    atomic.Uint64
	deltas *shard.DeltaLog
}

// NewMutSeq clones the workload's graphs into a fresh mutable sequence
// at generation 0. minShared sets the engine-side blocking threshold.
func NewMutSeq(w *Workload, minShared int) *MutSeq {
	return &MutSeq{
		GD:        w.GD.Clone(),
		G:         w.G.Clone(),
		Params:    w.Params,
		MaxLen:    w.MaxLen,
		MinShared: minShared,
		deltas:    new(shard.DeltaLog),
	}
}

// record mirrors System.recordDelta: stamp, record, then publish.
// Callers hold m.mu.
func (m *MutSeq) record(d shard.Delta) {
	d.Gen = m.gen.Load() + 1
	m.deltas.Record(d)
	m.gen.Add(1)
}

// Generation reports the current mutation generation.
func (m *MutSeq) Generation() uint64 { return m.gen.Load() }

// AddGraphVertex appends a vertex to G, mirroring System.AddGraphVertex.
func (m *MutSeq) AddGraphVertex(label string) graph.VID {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.G.AddVertex(label)
	m.record(shard.Delta{Kind: shard.DeltaGraphVertex, V: v, Label: label})
	return v
}

// AddGraphEdge adds an edge to G, mirroring System.AddGraphEdge.
func (m *MutSeq) AddGraphEdge(from, to graph.VID, label string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.G.AddEdge(from, to, label); err != nil {
		return err
	}
	m.record(shard.Delta{Kind: shard.DeltaGraphEdge, From: from, To: to, Label: label})
	return nil
}

// AddTupleRegion appends a fresh region to G_D, mirroring
// System.AddTuple's canonical-graph extension: len(labels) new vertices
// (ids base..base+len-1 in order) and edges whose sources are all NEW
// vertices — old vertices never gain out-edges, only the new region may
// point back at old targets (FK references). The delta is built by
// scanning the new vertices' out-lists, exactly as incremental.go does,
// so engine replay is byte-identical to the live graph.
func (m *MutSeq) AddTupleRegion(labels []string, edges []shard.GDEdge) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	base := m.GD.NumVertices()
	for _, l := range labels {
		m.GD.AddVertex(l)
	}
	for _, e := range edges {
		if int(e.From) < base {
			return fmt.Errorf("testkit: tuple-region edge from old vertex %d (base %d)", e.From, base)
		}
		if err := m.GD.AddEdge(e.From, e.To, e.Label); err != nil {
			return err
		}
	}
	d := shard.Delta{Kind: shard.DeltaTuple, GDBase: base}
	for v := base; v < m.GD.NumVertices(); v++ {
		d.GDLabels = append(d.GDLabels, m.GD.Label(graph.VID(v)))
		for _, e := range m.GD.Out(graph.VID(v)) {
			d.GDEdges = append(d.GDEdges, shard.GDEdge{From: graph.VID(v), To: e.To, Label: e.Label})
		}
	}
	m.record(d)
	return nil
}

// Reset records a poison delta, mirroring System.resetMatcherLocked
// (feedback, retraining, threshold changes): incremental maintenance is
// impossible and engines must fully rebuild.
func (m *MutSeq) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.record(shard.Delta{Kind: shard.DeltaReset})
}

// EngineConfig assembles a sharded engine config over the live
// sequence, shaped like System.ShardConfig: Source copies the graphs
// and reads the generation under the mutation lock, Generation exposes
// the counter, Deltas exposes the log.
func (m *MutSeq) EngineConfig(shards int) shard.Config {
	return shard.Config{
		Source: func() shard.Inputs {
			m.mu.Lock()
			defer m.mu.Unlock()
			return shard.Inputs{
				GD:              m.GD.Copy(),
				G:               m.G.Copy(),
				Params:          m.Params,
				MaxPathLen:      m.MaxLen,
				MinSharedTokens: m.MinShared,
				Gen:             m.gen.Load(),
			}
		},
		Shards:     shards,
		Generation: m.gen.Load,
		Deltas:     m.deltas.Since,
	}
}

// NewEngine builds a delta-maintained sharded engine over the sequence.
func (m *MutSeq) NewEngine(shards int) (*shard.Engine, error) {
	return shard.NewEngine(m.EngineConfig(shards))
}

// seqGen builds the candidate generator a fresh sequential run uses:
// the System's blocking rule (index.Blocking) when MinShared > 0, nil
// (exhaustive candidates) otherwise — matching the engine's
// owned-vertices pool with blocking off.
func (m *MutSeq) seqGen() core.CandidateGen {
	if m.MinShared <= 0 {
		return nil
	}
	ix := index.Blocking(m.G, m.MinShared)
	return func(u graph.VID) []graph.VID { return ix.Candidates(m.GD, u, nil) }
}

// newMatcher builds a cold sequential matcher over the live graphs.
func (m *MutSeq) newMatcher() (*core.Matcher, error) {
	return core.NewMatcher(m.GD, m.G,
		ranking.NewRanker(m.GD, nil, m.MaxLen),
		ranking.NewRanker(m.G, nil, m.MaxLen), m.Params)
}

// SeqVPair is the from-scratch oracle for VPair: a cold matcher over
// the current graphs, candidates from the same blocking rule as the
// engine. Callers must not mutate concurrently.
func (m *MutSeq) SeqVPair(u graph.VID) ([]core.Pair, error) {
	mt, err := m.newMatcher()
	if err != nil {
		return nil, err
	}
	return SortPairs(mt.VPair(u, m.seqGen())), nil
}

// SeqAPair is the from-scratch oracle for APair over the given sources
// (nil = every G_D vertex).
func (m *MutSeq) SeqAPair(sources []graph.VID) ([]core.Pair, error) {
	mt, err := m.newMatcher()
	if err != nil {
		return nil, err
	}
	return SortPairs(mt.APair(sources, m.seqGen())), nil
}

// MutStep is one decoded mutation of a fuzz/random sequence.
type MutStep struct {
	Op    int // 0 = AddGraphVertex, 1 = AddGraphEdge, 2 = AddTupleRegion
	A, B  int // op-dependent vertex selectors (reduced modulo live sizes)
	Label string
}

// mutLabels is the tiny label pool mutations draw from: collisions with
// generator labels are what make blocking indexes and candidate sets
// actually move under mutation.
var mutLabels = []string{"main", "dim", "color 1", "key", "ref", "zz"}

// Apply executes the step against the sequence. Vertex selectors are
// reduced modulo the live graph sizes, so any (Op, A, B) triple is
// valid — the fuzz decoder never has to reject inputs.
func (m *MutSeq) Apply(s MutStep) error {
	label := s.Label
	if label == "" {
		label = mutLabels[abs(s.A+s.B)%len(mutLabels)]
	}
	switch s.Op % 3 {
	case 0:
		m.AddGraphVertex(label)
		return nil
	case 1:
		n := m.G.NumVertices()
		if n == 0 {
			m.AddGraphVertex(label)
			return nil
		}
		from := graph.VID(abs(s.A) % n)
		to := graph.VID(abs(s.B) % n)
		return m.AddGraphEdge(from, to, label)
	default:
		// A tuple-shaped region: one relation vertex with a couple of
		// attribute leaves, plus an FK-style edge back into old G_D when
		// it has any vertices.
		old := m.GD.NumVertices()
		base := graph.VID(old)
		labels := []string{label, label + " v"}
		edges := []shard.GDEdge{{From: base, To: base + 1, Label: "key"}}
		if old > 0 {
			edges = append(edges, shard.GDEdge{
				From: base, To: graph.VID(abs(s.B) % old), Label: "ref",
			})
		}
		return m.AddTupleRegion(labels, edges)
	}
}

// RandomSteps derives a deterministic mutation sequence from a seed.
func RandomSteps(seed int64, n int) []MutStep {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]MutStep, n)
	for i := range steps {
		steps[i] = MutStep{Op: rng.Intn(3), A: rng.Intn(1 << 16), B: rng.Intn(1 << 16)}
	}
	return steps
}

// DecodeSteps decodes a fuzzer byte string into mutation steps, three
// bytes per step. Every input decodes to a valid sequence.
func DecodeSteps(data []byte) []MutStep {
	var steps []MutStep
	for i := 0; i+2 < len(data); i += 3 {
		steps = append(steps, MutStep{
			Op: int(data[i]), A: int(data[i+1]), B: int(data[i+2]),
		})
	}
	return steps
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
