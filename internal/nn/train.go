package nn

import (
	"math"
	"math/rand"
)

// Sample is one supervised example for binary classification: a feature
// vector and a label in {0, 1}.
type Sample struct {
	X []float64
	Y float64
}

// TrainConfig controls supervised training.
type TrainConfig struct {
	Epochs    int
	LearnRate float64
	BatchSize int
	Seed      int64
}

// DefaultTrainConfig returns sensible defaults for the small models used
// in this repository.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, LearnRate: 0.01, BatchSize: 16, Seed: 1}
}

// TrainBCE fits the network to the samples with sigmoid + binary cross
// entropy. The network's output size must be 1. It returns the mean loss
// of the final epoch. Mini-batches follow a shuffle seeded by cfg.Seed;
// each batch's gradients are summed in sample order, then one Adam step
// applies their mean. The activations, deltas and gradients are
// allocated once per call and reused by every sample and batch.
func (m *MLP) TrainBCE(samples []Sample, cfg TrainConfig) float64 {
	if len(samples) == 0 {
		return 0
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = 0.01
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	acts, delta, g := m.newActs(), m.newActs(), m.newGrads()
	dOut := delta[len(delta)-1]
	var lastLoss float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			g.clear()
			for _, si := range idx[start:end] {
				s := samples[si]
				z := m.forward(s.X, acts)[0]
				p := 1 / (1 + math.Exp(-z))
				epochLoss += bceLoss(p, s.Y)
				// d(BCE∘sigmoid)/dz = p - y.
				dOut[0] = p - s.Y
				m.backward(acts, delta, g)
			}
			m.step(g, cfg.LearnRate, end-start)
		}
		lastLoss = epochLoss / float64(len(samples))
	}
	return lastLoss
}

func bceLoss(p, y float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	} else if p > 1-eps {
		p = 1 - eps
	}
	return -(y*math.Log(p) + (1-y)*math.Log(1-p))
}

// Triplet is a ranking example: the score of Pos should exceed the score
// of Neg by at least the margin. Both are feature vectors of pair
// encodings sharing an implicit anchor, matching the paper's use of
// triplet loss (Schroff et al.) for robust fine-tuning.
type Triplet struct {
	Pos []float64
	Neg []float64
}

// TrainTriplet fine-tunes the network with a margin ranking loss over
// pre-sigmoid scores: L = max(0, margin - z(pos) + z(neg)). Returns the
// mean loss of the final epoch. Batching and buffers are as in TrainBCE;
// a batch's Adam step averages over its triplets with a positive loss
// and is skipped when there are none.
func (m *MLP) TrainTriplet(triplets []Triplet, margin float64, cfg TrainConfig) float64 {
	if len(triplets) == 0 {
		return 0
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = 0.01
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(triplets))
	for i := range idx {
		idx[i] = i
	}
	actsP, actsN, delta, g := m.newActs(), m.newActs(), m.newActs(), m.newGrads()
	dOut := delta[len(delta)-1]
	var lastLoss float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			g.clear()
			active := 0
			for _, ti := range idx[start:end] {
				tr := triplets[ti]
				zp := m.forward(tr.Pos, actsP)[0]
				zn := m.forward(tr.Neg, actsN)[0]
				loss := margin - zp + zn
				if loss <= 0 {
					continue
				}
				active++
				epochLoss += loss
				dOut[0] = -1
				m.backward(actsP, delta, g)
				dOut[0] = 1
				m.backward(actsN, delta, g)
			}
			if active > 0 {
				m.step(g, cfg.LearnRate, active)
			}
		}
		lastLoss = epochLoss / float64(len(triplets))
	}
	return lastLoss
}

// Accuracy evaluates 0.5-thresholded classification accuracy on samples.
func (m *MLP) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		p := m.Score(s.X)
		if (p >= 0.5) == (s.Y >= 0.5) {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
