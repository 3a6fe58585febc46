package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference trainer: the straightforward per-sample forward and
// backward passes (fresh buffers per sample, one running sum per unit,
// the input gradient computed and every delta applied) that the blocked
// forward and the leaner backward must reproduce bit for bit. Adam is
// shared: step is the code under test for both.

func refForward(m *MLP, x []float64) [][]float64 {
	acts := make([][]float64, len(m.sizes))
	acts[0] = x
	for l := 0; l < len(m.W); l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		a := make([]float64, out)
		w := m.W[l]
		for j := 0; j < out; j++ {
			s := m.B[l][j]
			row := w[j*in : (j+1)*in]
			xin := acts[l]
			for i := range row {
				s += row[i] * xin[i]
			}
			if l < len(m.W)-1 {
				s = m.hidden.apply(s)
			}
			a[j] = s
		}
		acts[l+1] = a
	}
	return acts
}

func refBackward(m *MLP, acts [][]float64, gradOut []float64, g *grads) []float64 {
	delta := gradOut
	for l := len(m.W) - 1; l >= 0; l-- {
		in, out := m.sizes[l], m.sizes[l+1]
		w := m.W[l]
		xin := acts[l]
		for j := 0; j < out; j++ {
			d := delta[j]
			g.dB[l][j] += d
			row := g.dW[l][j*in : (j+1)*in]
			for i := 0; i < in; i++ {
				row[i] += d * xin[i]
			}
		}
		prev := make([]float64, in)
		for j := 0; j < out; j++ {
			d := delta[j]
			row := w[j*in : (j+1)*in]
			for i := 0; i < in; i++ {
				prev[i] += d * row[i]
			}
		}
		if l == 0 {
			return prev // the gradient w.r.t. the input
		}
		for i := 0; i < in; i++ {
			prev[i] *= m.hidden.deriv(acts[l][i])
		}
		delta = prev
	}
	return nil
}

func refBatches(n int, cfg TrainConfig, batch func(idx []int)) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += cfg.BatchSize {
			batch(idx[start:min(start+cfg.BatchSize, len(idx))])
		}
	}
}

// refTrainBCE is TrainBCE for a cfg with every field set.
func refTrainBCE(m *MLP, samples []Sample, cfg TrainConfig) float64 {
	var epochLoss, lastLoss float64
	seen := 0
	refBatches(len(samples), cfg, func(idx []int) {
		g := m.newGrads()
		for _, si := range idx {
			s := samples[si]
			acts := refForward(m, s.X)
			p := 1 / (1 + math.Exp(-acts[len(acts)-1][0]))
			epochLoss += bceLoss(p, s.Y)
			refBackward(m, acts, []float64{p - s.Y}, g)
		}
		m.step(g, cfg.LearnRate, len(idx))
		if seen += len(idx); seen == len(samples) {
			lastLoss, epochLoss, seen = epochLoss/float64(len(samples)), 0, 0
		}
	})
	return lastLoss
}

// refTrainTriplet is TrainTriplet for a cfg with every field set.
func refTrainTriplet(m *MLP, triplets []Triplet, margin float64, cfg TrainConfig) float64 {
	var epochLoss, lastLoss float64
	seen := 0
	refBatches(len(triplets), cfg, func(idx []int) {
		g := m.newGrads()
		active := 0
		for _, ti := range idx {
			tr := triplets[ti]
			actsP, actsN := refForward(m, tr.Pos), refForward(m, tr.Neg)
			loss := margin - actsP[len(actsP)-1][0] + actsN[len(actsN)-1][0]
			if loss > 0 {
				active++
				epochLoss += loss
				refBackward(m, actsP, []float64{-1}, g)
				refBackward(m, actsN, []float64{1}, g)
			}
		}
		if active > 0 {
			m.step(g, cfg.LearnRate, active)
		}
		if seen += len(idx); seen == len(triplets) {
			lastLoss, epochLoss, seen = epochLoss/float64(len(triplets)), 0, 0
		}
	})
	return lastLoss
}

// sameBits reports the first parameter where a and b differ in any bit
// (so +0 and -0 differ), or "" when they are identical.
func sameBits(a, b *MLP) string {
	for l := range a.W {
		for i := range a.W[l] {
			if math.Float64bits(a.W[l][i]) != math.Float64bits(b.W[l][i]) {
				return fmt.Sprintf("W[%d][%d]: %v != %v", l, i, a.W[l][i], b.W[l][i])
			}
		}
		for i := range a.B[l] {
			if math.Float64bits(a.B[l][i]) != math.Float64bits(b.B[l][i]) {
				return fmt.Sprintf("B[%d][%d]: %v != %v", l, i, a.B[l][i], b.B[l][i])
			}
		}
	}
	return ""
}

// randInput draws a feature vector in which about a third of the entries
// are exact zeros, as in sparse hashed embeddings.
func randInput(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(3) > 0 {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// TestTrainMatchesReference trains each shape with TrainBCE and then
// TrainTriplet (continuing the same Adam state, as feedback fine-tuning
// does) on a model and on its twin under the reference trainer, and
// requires every weight, bias, returned loss and output to agree bit for
// bit. The hidden widths are not all multiples of block; the sample
// counts leave a ragged last batch.
func TestTrainMatchesReference(t *testing.T) {
	shapes := [][]int{{6, 1, 1}, {7, 3, 1}, {9, 5, 1}, {40, 64, 1}, {11, 6, 5, 1}}
	for _, act := range []Activation{ReLU, Tanh, Sigmoid} {
		for si, sizes := range shapes {
			t.Run(fmt.Sprintf("%d/%v", act, sizes), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(10*si) + int64(act)))
				in := sizes[0]
				samples := make([]Sample, 45)
				for i := range samples {
					samples[i] = Sample{X: randInput(rng, in), Y: float64(rng.Intn(2))}
				}
				triplets := make([]Triplet, 29)
				for i := range triplets {
					triplets[i] = Triplet{Pos: randInput(rng, in), Neg: randInput(rng, in)}
				}
				got, want := MustMLP(sizes, act, 3), MustMLP(sizes, act, 3)
				cfg := TrainConfig{Epochs: 4, LearnRate: 0.05, BatchSize: 8, Seed: 5}
				if g, w := got.TrainBCE(samples, cfg), refTrainBCE(want, samples, cfg); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("TrainBCE loss %v, reference %v", g, w)
				}
				if d := sameBits(got, want); d != "" {
					t.Fatalf("after TrainBCE: %s", d)
				}
				cfg.BatchSize = 6
				if g, w := got.TrainTriplet(triplets, 0.5, cfg), refTrainTriplet(want, triplets, 0.5, cfg); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("TrainTriplet loss %v, reference %v", g, w)
				}
				if d := sameBits(got, want); d != "" {
					t.Fatalf("after TrainTriplet: %s", d)
				}
				for _, s := range samples[:10] {
					acts := refForward(want, s.X)
					ref := acts[len(acts)-1]
					out := got.Apply(s.X)
					for k := range ref {
						if math.Float64bits(out[k]) != math.Float64bits(ref[k]) {
							t.Fatalf("Apply[%d] = %v, reference %v", k, out[k], ref[k])
						}
					}
					if sc, ref := got.Score(s.X), 1/(1+math.Exp(-ref[0])); math.Float64bits(sc) != math.Float64bits(ref) {
						t.Fatalf("Score = %v, reference %v", sc, ref)
					}
				}
			})
		}
	}
}
