package her

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"her/internal/core"
	"her/internal/embed"
	"her/internal/lstm"
	"her/internal/nn"
)

// modelFile is the gob envelope for a System's learned state: the
// trained M_ρ metric network, the M_r path language model, the selected
// thresholds, the options they were trained under, and the refinement
// state (verified pairs and fine-tuned label-pair verdicts). The graphs
// and database are NOT persisted — they are the inputs; SaveModels
// answers "train once, serve many" for the learned parameters.
//
// The refinement maps are persisted as sorted slices, not maps: gob
// writes map entries in Go's randomized iteration order, so a map field
// would make two saves of identical state byte-different — breaking
// artifact diffing, content-addressed storage, and the reproducibility
// contract herlint enforces elsewhere. Version 2 switched to slices.
type modelFile struct {
	Version   int
	Options   Options
	HasMetric bool
	Metric    nn.Snapshot
	HasLM     bool
	LM        lstm.Snapshot
	Overrides []overrideEntry
	MvTable   []mvEntry
}

// overrideEntry is one user-verified pair verdict, ordered by (U, V).
type overrideEntry struct {
	Pair    core.Pair
	Verdict bool
}

// mvEntry is one fine-tuned label-pair similarity, ordered by (A, B).
type mvEntry struct {
	A, B  string
	Score float64
}

const modelFileVersion = 2

// SaveModels serializes the learned parameters to w. Output is
// byte-deterministic: saving the same state twice yields identical
// bytes.
func (s *System) SaveModels(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := modelFile{
		Version: modelFileVersion,
		Options: s.opts,
	}
	// The metrics registry is runtime state, not a learned parameter.
	f.Options.Metrics = nil
	for k, v := range s.direct.overrides {
		f.Overrides = append(f.Overrides, overrideEntry{Pair: k, Verdict: v})
	}
	sort.Slice(f.Overrides, func(i, j int) bool {
		a, b := f.Overrides[i].Pair, f.Overrides[j].Pair
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	s.sc.mu.RLock()
	for k, v := range s.sc.mvTable {
		f.MvTable = append(f.MvTable, mvEntry{A: k[0], B: k[1], Score: v})
	}
	s.sc.mu.RUnlock()
	sort.Slice(f.MvTable, func(i, j int) bool {
		if f.MvTable[i].A != f.MvTable[j].A {
			return f.MvTable[i].A < f.MvTable[j].A
		}
		return f.MvTable[i].B < f.MvTable[j].B
	})
	if s.sc.metric != nil {
		f.HasMetric = true
		f.Metric = s.sc.metric.Snapshot()
	}
	if s.lm != nil {
		f.HasLM = true
		f.LM = s.lm.Snapshot()
	}
	return gob.NewEncoder(w).Encode(f)
}

// LoadModels restores learned parameters previously written with
// SaveModels into this System (which must be built over the same —
// or compatibly shaped — database and graph), then resets cached match
// decisions.
func (s *System) LoadModels(r io.Reader) error {
	var f modelFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("her: decoding models: %w", err)
	}
	if f.Version != modelFileVersion {
		return fmt.Errorf("her: unsupported model file version %d", f.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	met := s.opts.Metrics // registry stays with the live System, not the file
	s.opts = f.Options.Normalize()
	s.opts.Metrics = met
	if s.sc.enc.Dim() != s.opts.EmbeddingDim {
		// The metric network's features are tied to the embedding
		// dimension it was trained with; rebuild the scorers around a
		// matching encoder.
		s.sc = newScorers(embed.NewEncoder(s.opts.EmbeddingDim))
	}
	if f.HasMetric {
		m, err := nn.FromSnapshot(f.Metric)
		if err != nil {
			return err
		}
		if m.InputSize() != 4*s.opts.EmbeddingDim {
			return fmt.Errorf("her: metric input %d does not fit embedding dim %d",
				m.InputSize(), s.opts.EmbeddingDim)
		}
		s.sc.metric = m
	} else {
		s.sc.metric = nil
	}
	if f.HasLM {
		lm, err := lstm.FromSnapshot(f.LM)
		if err != nil {
			return err
		}
		s.installLMLocked(lm)
	}
	s.direct.overrides = make(map[core.Pair]bool, len(f.Overrides))
	for _, e := range f.Overrides {
		s.direct.overrides[e.Pair] = e.Verdict
	}
	s.sc.mu.Lock()
	s.sc.mvTable = make(map[[2]string]float64, len(f.MvTable))
	for _, e := range f.MvTable {
		s.sc.mvTable[[2]string{e.A, e.B}] = e.Score
	}
	s.sc.mu.Unlock()
	s.sc.invalidateRho()
	return s.resetMatcherLocked()
}
