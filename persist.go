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
// state (the verified pairs; feedback fine-tunes M_ρ itself, so its
// weights carry the rest). The graphs and database are NOT persisted —
// they are the inputs; SaveModels answers "train once, serve many" for
// the learned parameters.
//
// The verified pairs are persisted as a sorted slice, not a map: gob
// writes map entries in Go's randomized iteration order, so a map field
// would make two saves of identical state byte-different — breaking
// artifact diffing, content-addressed storage, and the reproducibility
// contract herlint enforces elsewhere. Version 3 dropped the M_v
// label-pair table that nothing wrote; older files are rejected.
type modelFile struct {
	Version   int
	Options   Options
	HasMetric bool
	Metric    nn.Snapshot
	HasLM     bool
	LM        lstm.Snapshot
	Overrides []overrideEntry
}

// overrideEntry is one user-verified pair verdict, ordered by (U, V).
type overrideEntry struct {
	Pair    core.Pair
	Verdict bool
}

const modelFileVersion = 3

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
// or compatibly shaped — database and graph) as new scorers and, when
// the file carries one, a new path language model, then resets cached
// match decisions. A file that does not decode leaves the System as it
// was.
func (s *System) LoadModels(r io.Reader) error {
	var f modelFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("her: decoding models: %w", err)
	}
	if f.Version != modelFileVersion {
		return fmt.Errorf("her: unsupported model file version %d", f.Version)
	}
	// Normalize fills the options the file does not set, but σ = 0 and
	// δ = 0 are thresholds SetThresholds accepts, not unset ones: the
	// saved (σ, δ, k) are restored as they were.
	th := Thresholds{Sigma: f.Options.Sigma, Delta: f.Options.Delta, K: f.Options.K}
	if err := checkThresholds(th); err != nil {
		return err
	}
	opts := f.Options.Normalize()
	opts.Sigma, opts.Delta, opts.K = th.Sigma, th.Delta, th.K
	var (
		metric *nn.MLP
		lm     *lstm.Model
		err    error
	)
	if f.HasMetric {
		if metric, err = nn.FromSnapshot(f.Metric); err != nil {
			return err
		}
		if metric.InputSize() != 4*opts.EmbeddingDim {
			return fmt.Errorf("her: metric input %d does not fit embedding dim %d",
				metric.InputSize(), opts.EmbeddingDim)
		}
	}
	if f.HasLM {
		if lm, err = lstm.FromSnapshot(f.LM); err != nil {
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	opts.Metrics = s.opts.Metrics // registry stays with the live System, not the file
	s.opts = opts
	enc := s.sc.enc
	if enc.Dim() != opts.EmbeddingDim {
		// The metric network's features are tied to the embedding
		// dimension it was trained with.
		enc = embed.NewEncoder(opts.EmbeddingDim)
	}
	s.sc = newScorers(enc, metric)
	if lm != nil {
		s.installLMLocked(lm)
	}
	s.direct.overrides = make(map[core.Pair]bool, len(f.Overrides))
	for _, e := range f.Overrides {
		s.direct.overrides[e.Pair] = e.Verdict
	}
	return s.resetMatcherLocked()
}
