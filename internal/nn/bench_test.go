package nn

import (
	"math/rand"
	"testing"
)

// benchInputs draws n feature vectors of M_ρ's input width (4 × the
// default 128-dimensional embedding).
func benchInputs(n int) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, n)
	for k := range xs {
		xs[k] = randInput(rng, 512)
	}
	return xs
}

// BenchmarkTrainBCE is one epoch of M_ρ's training over 64 samples: the
// [512, 64, 1] ReLU network TrainPathModel builds, at its batch size 8
// and learning rate. One op is 64 forward and backward passes and 8 Adam
// steps.
func BenchmarkTrainBCE(b *testing.B) {
	xs := benchInputs(64)
	samples := make([]Sample, len(xs))
	for i, x := range xs {
		samples[i] = Sample{X: x, Y: float64(i % 2)}
	}
	m := MustMLP([]int{512, 64, 1}, ReLU, 7)
	cfg := TrainConfig{Epochs: 1, LearnRate: 0.005, BatchSize: 8, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainBCE(samples, cfg)
	}
}

var sinkScore float64

// BenchmarkScore is one M_ρ inference on the [512, 64, 1] network.
func BenchmarkScore(b *testing.B) {
	x := benchInputs(1)[0]
	m := MustMLP([]int{512, 64, 1}, ReLU, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkScore = m.Score(x)
	}
}
