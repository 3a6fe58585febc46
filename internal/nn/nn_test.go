package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewMLPValidation(t *testing.T) {
	if _, err := NewMLP([]int{4}, ReLU, 1); err == nil {
		t.Error("single layer should fail")
	}
	if _, err := NewMLP([]int{4, 0, 1}, ReLU, 1); err == nil {
		t.Error("zero-size layer should fail")
	}
	m := MustMLP([]int{4, 8, 1}, ReLU, 1)
	if m.InputSize() != 4 || m.OutputSize() != 1 {
		t.Errorf("sizes = %d,%d", m.InputSize(), m.OutputSize())
	}
}

func TestDeterministicInit(t *testing.T) {
	a := MustMLP([]int{3, 5, 1}, Tanh, 7)
	b := MustMLP([]int{3, 5, 1}, Tanh, 7)
	x := []float64{0.1, -0.4, 0.9}
	ya, yb := a.Apply(x), b.Apply(x)
	if ya[0] != yb[0] {
		t.Error("same seed should give identical networks")
	}
	c := MustMLP([]int{3, 5, 1}, Tanh, 8)
	if c.Apply(x)[0] == ya[0] {
		t.Error("different seeds should differ")
	}
}

func TestActivations(t *testing.T) {
	if ReLU.apply(-1) != 0 || ReLU.apply(2) != 2 {
		t.Error("ReLU wrong")
	}
	if math.Abs(Tanh.apply(0)) > 1e-12 {
		t.Error("Tanh(0) != 0")
	}
	if math.Abs(Sigmoid.apply(0)-0.5) > 1e-12 {
		t.Error("Sigmoid(0) != 0.5")
	}
	if ReLU.deriv(0) != 0 || ReLU.deriv(1) != 1 {
		t.Error("ReLU deriv wrong")
	}
	if math.Abs(Sigmoid.deriv(0.5)-0.25) > 1e-12 {
		t.Error("Sigmoid deriv wrong")
	}
	y := Tanh.apply(0.3)
	if math.Abs(Tanh.deriv(y)-(1-y*y)) > 1e-12 {
		t.Error("Tanh deriv wrong")
	}
}

// TestGradientCheck verifies backprop against numerical differentiation.
func TestGradientCheck(t *testing.T) {
	m := MustMLP([]int{3, 4, 1}, Tanh, 3)
	x := []float64{0.2, -0.5, 0.8}
	y := 1.0
	loss := func() float64 {
		z := m.Apply(x)[0]
		p := 1 / (1 + math.Exp(-z))
		return bceLoss(p, y)
	}
	g, acts, delta := m.newGrads(), m.newActs(), m.newActs()
	z := m.forward(x, acts)[0]
	p := 1 / (1 + math.Exp(-z))
	delta[len(delta)-1][0] = p - y
	m.backward(acts, delta, g)

	const eps = 1e-6
	for l := range m.W {
		for i := 0; i < len(m.W[l]); i += 3 { // sample a few weights
			old := m.W[l][i]
			m.W[l][i] = old + eps
			lp := loss()
			m.W[l][i] = old - eps
			lm := loss()
			m.W[l][i] = old
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-g.dW[l][i]) > 1e-4 {
				t.Errorf("layer %d weight %d: numerical %g vs analytic %g", l, i, num, g.dW[l][i])
			}
		}
		for i := range m.B[l] {
			old := m.B[l][i]
			m.B[l][i] = old + eps
			lp := loss()
			m.B[l][i] = old - eps
			lm := loss()
			m.B[l][i] = old
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-g.dB[l][i]) > 1e-4 {
				t.Errorf("layer %d bias %d: numerical %g vs analytic %g", l, i, num, g.dB[l][i])
			}
		}
	}
}

func TestTrainBCELearnsXOR(t *testing.T) {
	var samples []Sample
	data := [][3]float64{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}}
	for _, d := range data {
		samples = append(samples, Sample{X: []float64{d[0], d[1]}, Y: d[2]})
	}
	m := MustMLP([]int{2, 8, 1}, Tanh, 5)
	cfg := TrainConfig{Epochs: 800, LearnRate: 0.05, BatchSize: 4, Seed: 2}
	m.TrainBCE(samples, cfg)
	if acc := m.Accuracy(samples); acc != 1 {
		t.Errorf("XOR accuracy = %f, want 1", acc)
	}
}

func TestTrainBCESeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var samples []Sample
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := 0.0
		if x[0]+x[1] > 0 {
			y = 1
		}
		samples = append(samples, Sample{X: x, Y: y})
	}
	m := MustMLP([]int{2, 6, 1}, ReLU, 11)
	m.TrainBCE(samples, TrainConfig{Epochs: 60, LearnRate: 0.02, BatchSize: 16, Seed: 3})
	if acc := m.Accuracy(samples); acc < 0.95 {
		t.Errorf("linear accuracy = %f, want ≥ 0.95", acc)
	}
}

func TestTrainTripletSeparates(t *testing.T) {
	// Positives cluster near (1,1), negatives near (-1,-1); ranking loss
	// should push scores apart.
	rng := rand.New(rand.NewSource(4))
	var triplets []Triplet
	mk := func(cx, cy float64) []float64 {
		return []float64{cx + rng.NormFloat64()*0.1, cy + rng.NormFloat64()*0.1}
	}
	for i := 0; i < 100; i++ {
		triplets = append(triplets, Triplet{Pos: mk(1, 1), Neg: mk(-1, -1)})
	}
	m := MustMLP([]int{2, 6, 1}, Tanh, 6)
	m.TrainTriplet(triplets, 1.0, TrainConfig{Epochs: 80, LearnRate: 0.02, BatchSize: 16, Seed: 5})
	pos := m.Score([]float64{1, 1})
	neg := m.Score([]float64{-1, -1})
	if pos <= neg+0.2 {
		t.Errorf("triplet training failed: pos=%f neg=%f", pos, neg)
	}
}

func TestTrainEmptyInputs(t *testing.T) {
	m := MustMLP([]int{2, 3, 1}, ReLU, 1)
	if l := m.TrainBCE(nil, DefaultTrainConfig()); l != 0 {
		t.Error("empty BCE training should return 0")
	}
	if l := m.TrainTriplet(nil, 1, DefaultTrainConfig()); l != 0 {
		t.Error("empty triplet training should return 0")
	}
	if m.Accuracy(nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestScoreRange(t *testing.T) {
	m := MustMLP([]int{3, 4, 1}, ReLU, 2)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		x := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		s := m.Score(x)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("Score out of range: %f", s)
		}
	}
}

func TestConcurrentInference(t *testing.T) {
	m := MustMLP([]int{4, 8, 1}, ReLU, 3)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 100; i++ {
				m.Score([]float64{0.1, 0.2, 0.3, 0.4})
			}
			done <- true
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := MustMLP([]int{3, 4, 1}, Tanh, 5)
	x := []float64{0.3, -0.2, 0.9}
	want := m.Score(x)
	s := m.Snapshot()
	m2, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Score(x); got != want {
		t.Errorf("restored score %f != %f", got, want)
	}
	// Mutating the snapshot must not affect the restored model.
	s.W[0][0] += 100
	if got := m2.Score(x); got != want {
		t.Error("snapshot aliases model weights")
	}
	// Shape mismatches fail.
	bad := m.Snapshot()
	bad.W[0] = bad.W[0][:1]
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := FromSnapshot(Snapshot{Sizes: []int{2}}); err == nil {
		t.Error("degenerate sizes accepted")
	}
}

// TestCloneContinuesTraining: fine-tuning a Clone lands on exactly the
// weights fine-tuning the original in place does — the copy carries
// the Adam moments and step count — and leaves the original untouched.
func TestCloneContinuesTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vec := func(c float64) []float64 {
		return []float64{c + rng.NormFloat64()*0.3, -c + rng.NormFloat64()*0.3, rng.NormFloat64()}
	}
	var samples []Sample
	var triplets []Triplet
	for i := 0; i < 40; i++ {
		samples = append(samples, Sample{X: vec(1), Y: 1}, Sample{X: vec(-1), Y: 0})
		triplets = append(triplets, Triplet{Pos: vec(-1), Neg: vec(1)})
	}
	m := MustMLP([]int{3, 8, 1}, ReLU, 7)
	m.TrainBCE(samples, TrainConfig{Epochs: 10, LearnRate: 0.01, BatchSize: 8, Seed: 1})
	before := m.Snapshot()

	fine := TrainConfig{Epochs: 5, LearnRate: 0.001, BatchSize: 8, Seed: 2}
	c := m.Clone()
	c.TrainTriplet(triplets, 0.5, fine)
	if !sameWeights(m.Snapshot(), before) {
		t.Fatal("training a clone changed the original")
	}
	if sameWeights(c.Snapshot(), before) {
		t.Fatal("setup: fine-tuning moved no weight")
	}
	m.TrainTriplet(triplets, 0.5, fine)
	if !sameWeights(c.Snapshot(), m.Snapshot()) {
		t.Error("fine-tuned clone differs from the original fine-tuned in place")
	}
}

// sameWeights reports whether two snapshots hold bit-identical
// parameters.
func sameWeights(a, b Snapshot) bool {
	for l := range a.W {
		for i := range a.W[l] {
			if a.W[l][i] != b.W[l][i] {
				return false
			}
		}
		for i := range a.B[l] {
			if a.B[l][i] != b.B[l][i] {
				return false
			}
		}
	}
	return true
}
