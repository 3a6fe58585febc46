package her

import (
	"encoding/binary"
	"sync"

	"her/internal/embed"
	"her/internal/nn"
)

// scorers is one trained model's M_v and M_ρ score functions (Section
// IV): the embedding encoder and the metric network, fixed when the
// value is built. TrainPathModel, Refine and LoadModels each build a new
// value and publish it whole under System.mu, so a request scores with
// one model throughout; nothing changes a published value but the M_ρ
// memo's fills. M_v is the encoder's MvScore, bound directly.
type scorers struct {
	enc    *embed.Encoder
	metric *nn.MLP // nil until TrainPathModel runs; falls back to lexical. Read-only.

	rhoLock sync.RWMutex
	rhoMemo map[string]float64 // guarded by rhoLock
}

func newScorers(enc *embed.Encoder, metric *nn.MLP) *scorers {
	return &scorers{enc: enc, metric: metric, rhoMemo: make(map[string]float64)}
}

// pathFeatures builds the metric network's input for a pair of edge-label
// sequences: [x1, x2, |x1-x2|, x1⊙x2], the standard sentence-pair
// encoding over the sequence embeddings.
func (s *scorers) pathFeatures(a, b []string) []float64 {
	x1 := s.enc.EmbedSequence(a)
	x2 := s.enc.EmbedSequence(b)
	return embed.Concat(x1, x2, embed.AbsDiff(x1, x2), embed.Hadamard(x1, x2))
}

// samples labels the metric features of annotated path pairs.
func (s *scorers) samples(pairs []PathPair) []nn.Sample {
	out := make([]nn.Sample, 0, len(pairs))
	for _, p := range pairs {
		y := 0.0
		if p.Match {
			y = 1
		}
		out = append(out, nn.Sample{X: s.pathFeatures(p.A, p.B), Y: y})
	}
	return out
}

// Mrho is the path model M_ρ: the trained metric network over sequence
// embeddings, or — before training — the non-negative cosine of the
// sequence embeddings. Scores are memoized per label-sequence pair.
func (s *scorers) Mrho(a, b []string) float64 {
	var buf [64]byte
	key := rhoKey(buf[:0], a, b)
	s.rhoLock.RLock()
	v, ok := s.rhoMemo[string(key)]
	s.rhoLock.RUnlock()
	if ok {
		return v
	}

	if s.metric != nil {
		v = s.metric.Score(s.pathFeatures(a, b))
	} else if c := embed.Cosine(s.enc.EmbedSequence(a), s.enc.EmbedSequence(b)); c > 0 {
		v = c
	}
	s.rhoLock.Lock()
	s.rhoMemo[string(key)] = v
	s.rhoLock.Unlock()
	return v
}

// rhoKey appends the memo key of the sequence pair (a, b) to dst: each
// sequence's length, then each label's byte length and bytes. Labels
// are arbitrary strings, so no separator byte could keep two pairs
// apart; the lengths do.
func rhoKey(dst []byte, a, b []string) []byte {
	for _, seq := range [2][]string{a, b} {
		dst = binary.AppendUvarint(dst, uint64(len(seq)))
		for _, l := range seq {
			dst = binary.AppendUvarint(dst, uint64(len(l)))
			dst = append(dst, l...)
		}
	}
	return dst
}

// scorersNow returns the published scorers, read under s.mu; the caller
// then scores with that one model however long it runs.
func (s *System) scorersNow() *scorers {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sc
}

// MvScore exposes the raw M_v score for diagnostics and examples.
func (s *System) MvScore(a, b string) float64 { return s.scorersNow().enc.MvScore(a, b) }
