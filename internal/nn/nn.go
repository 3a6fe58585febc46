// Package nn is the from-scratch neural-network substrate used by the
// metric-learning model inside M_ρ (the paper's "3-layer neural network")
// and by the DeepMatcher-style baseline. It provides fully connected
// multi-layer perceptrons with manual backpropagation, binary cross
// entropy and triplet/ranking losses, and an Adam optimizer. Everything is
// float64 and stdlib-only.
//
// Training is single-threaded and deterministic: a seed, a config and
// the samples fix the weights bit for bit, and saved models depend on
// that. The passes are arranged for speed (forward computes units in
// blocks, backward skips zero deltas, buffers live for one Train call)
// without reordering any floating-point sum; the package tests hold
// them bit-identical to a plain per-sample reference trainer.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects the hidden-layer nonlinearity of an MLP.
type Activation int

const (
	// ReLU is max(0, x).
	ReLU Activation = iota
	// Tanh is the hyperbolic tangent.
	Tanh
	// Sigmoid is the logistic function.
	Sigmoid
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Tanh:
		return math.Tanh(x)
	default:
		return 1 / (1 + math.Exp(-x))
	}
}

// derivative given the activated output y (not the pre-activation).
func (a Activation) deriv(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	default:
		return y * (1 - y)
	}
}

// MLP is a fully connected network whose final layer is linear; Score
// applies a sigmoid on top so outputs live in [0, 1]. Inference (Apply,
// Score, Snapshot) is safe for concurrent use; training is not, and
// takes no lock. A network other goroutines can score is read-only:
// train a private one, or fine-tune a Clone, and publish it when done.
// Each Apply and each Train call allocates its own buffers, so the MLP
// holds no scratch state.
type MLP struct {
	sizes  []int
	hidden Activation
	// W[l] has sizes[l+1] rows × sizes[l] cols, flattened row-major.
	W [][]float64
	B [][]float64

	opt *adam
}

// NewMLP builds an MLP with the given layer sizes, e.g. [256, 64, 1] for
// the paper's metric network shape (scaled). Weights use Xavier-style
// initialization from the given seed, so construction is deterministic.
func NewMLP(sizes []int, hidden Activation, seed int64) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least input and output sizes, got %v", sizes)
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: layer sizes must be positive, got %v", sizes)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{sizes: sizes, hidden: hidden}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		scale := math.Sqrt(2.0 / float64(in+out))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m, nil
}

// MustMLP is NewMLP that panics on error.
func MustMLP(sizes []int, hidden Activation, seed int64) *MLP {
	m, err := NewMLP(sizes, hidden, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Clone returns a deep copy of the network, Adam state included, so
// training the copy continues exactly as training m would have.
func (m *MLP) Clone() *MLP {
	c := &MLP{sizes: append([]int(nil), m.sizes...), hidden: m.hidden, W: cloneRows(m.W), B: cloneRows(m.B)}
	if a := m.opt; a != nil {
		c.opt = &adam{mW: cloneRows(a.mW), vW: cloneRows(a.vW), mB: cloneRows(a.mB), vB: cloneRows(a.vB), t: a.t}
	}
	return c
}

// cloneRows deep-copies a per-layer parameter table.
func cloneRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// InputSize returns the expected input dimension.
func (m *MLP) InputSize() int { return m.sizes[0] }

// OutputSize returns the output dimension.
func (m *MLP) OutputSize() int { return m.sizes[len(m.sizes)-1] }

// newActs returns one buffer per layer output for forward to fill, in
// a single allocation; acts[0], the input, is set by forward.
func (m *MLP) newActs() [][]float64 {
	n := 0
	for _, s := range m.sizes[1:] {
		n += s
	}
	buf := make([]float64, n)
	acts := make([][]float64, len(m.sizes))
	for l, s := range m.sizes[1:] {
		acts[l+1], buf = buf[:s:s], buf[s:]
	}
	return acts
}

// forward sets acts[0] to x, writes the activations of every later
// layer into acts (from newActs) and returns the output layer, which is
// linear. Training and inference share it.
//
// Units are computed four at a time per pass over the layer's input:
// the four sums are independent, so their adds overlap instead of each
// waiting on the one before (eight measured slower on amd64). Every unit's
// sum still runs bias first, then the inputs in index order, so the
// outputs are bit-identical to one unit at a time.
func (m *MLP) forward(x []float64, acts [][]float64) []float64 {
	acts[0] = x
	for l, w := range m.W {
		xin, out, b := acts[l][:m.sizes[l]], acts[l+1], m.B[l]
		in := len(xin)
		j := 0
		for ; j+4 <= len(out); j += 4 {
			r0 := w[j*in:][:in]
			r1 := w[(j+1)*in:][:in]
			r2 := w[(j+2)*in:][:in]
			r3 := w[(j+3)*in:][:in]
			s0, s1, s2, s3 := b[j], b[j+1], b[j+2], b[j+3]
			for i, xi := range xin {
				s0 += r0[i] * xi
				s1 += r1[i] * xi
				s2 += r2[i] * xi
				s3 += r3[i] * xi
			}
			out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
		}
		for ; j < len(out); j++ {
			row := w[j*in:][:in]
			s := b[j]
			for i, xi := range xin {
				s += row[i] * xi
			}
			out[j] = s
		}
		if l < len(m.W)-1 {
			for j, s := range out {
				out[j] = m.hidden.apply(s)
			}
		}
	}
	return acts[len(acts)-1]
}

// Apply runs the network on x and returns the linear output layer.
func (m *MLP) Apply(x []float64) []float64 {
	return m.forward(x, m.newActs())
}

// Score runs the network and squashes the first output with a sigmoid,
// yielding a similarity score in [0, 1].
func (m *MLP) Score(x []float64) float64 {
	out := m.Apply(x)
	return 1 / (1 + math.Exp(-out[0]))
}

// grads holds per-layer parameter gradients.
type grads struct {
	dW [][]float64
	dB [][]float64
}

func (m *MLP) newGrads() *grads {
	g := &grads{}
	for l := range m.W {
		g.dW = append(g.dW, make([]float64, len(m.W[l])))
		g.dB = append(g.dB, make([]float64, len(m.B[l])))
	}
	return g
}

// clear zeroes every gradient for the next batch.
func (g *grads) clear() {
	for l := range g.dW {
		clear(g.dW[l])
		clear(g.dB[l])
	}
}

// backward adds one sample's parameter gradients to g, given its forward
// activations acts and, in delta[len(delta)-1], the gradient of the loss
// w.r.t. the linear output; delta (from newActs) is scratch for the
// gradients w.r.t. the hidden pre-activations. The gradient w.r.t. the
// input is not computed: no caller chains models.
//
// A unit whose delta is ±0 is skipped, which changes no bit: for finite
// activations it would add ±0 to accumulators that start at +0, and a
// sum that starts at +0 is never -0, so adding ±0 leaves it as it is.
// With ReLU that skips every inactive unit, about half the hidden layer.
func (m *MLP) backward(acts, delta [][]float64, g *grads) {
	for l := len(m.W) - 1; l >= 0; l-- {
		xin, d := acts[l][:m.sizes[l]], delta[l+1]
		in := len(xin)
		dW, dB := g.dW[l], g.dB[l]
		for j, dj := range d {
			if dj == 0 {
				continue
			}
			dB[j] += dj
			row := dW[j*in:][:in]
			for i, xi := range xin {
				row[i] += dj * xi
			}
		}
		if l == 0 {
			return
		}
		prev, w := delta[l][:in], m.W[l]
		clear(prev)
		for j, dj := range d {
			if dj == 0 {
				continue
			}
			row := w[j*in:][:in]
			for i, wi := range row {
				prev[i] += dj * wi
			}
		}
		// Through the hidden activation of layer l.
		for i, y := range xin {
			prev[i] *= m.hidden.deriv(y)
		}
	}
}

// step applies accumulated gradients with Adam, scaled by 1/batch.
func (m *MLP) step(g *grads, lr float64, batch int) {
	if m.opt == nil {
		m.opt = newAdam(m)
	}
	m.opt.step(m, g, lr, 1.0/float64(batch))
}

// adam implements the Adam optimizer state.
type adam struct {
	mW, vW [][]float64
	mB, vB [][]float64
	t      int
}

func newAdam(m *MLP) *adam {
	a := &adam{}
	for l := range m.W {
		a.mW = append(a.mW, make([]float64, len(m.W[l])))
		a.vW = append(a.vW, make([]float64, len(m.W[l])))
		a.mB = append(a.mB, make([]float64, len(m.B[l])))
		a.vB = append(a.vB, make([]float64, len(m.B[l])))
	}
	return a
}

func (a *adam) step(m *MLP, g *grads, lr, inv float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	a.t++
	bc1 := 1 - math.Pow(beta1, float64(a.t))
	bc2 := 1 - math.Pow(beta2, float64(a.t))
	upd := func(p, gr, mo, ve []float64) {
		for i := range p {
			gi := gr[i] * inv
			mo[i] = beta1*mo[i] + (1-beta1)*gi
			ve[i] = beta2*ve[i] + (1-beta2)*gi*gi
			mhat := mo[i] / bc1
			vhat := ve[i] / bc2
			p[i] -= lr * mhat / (math.Sqrt(vhat) + eps)
		}
	}
	for l := range m.W {
		upd(m.W[l], g.dW[l], a.mW[l], a.vW[l])
		upd(m.B[l], g.dB[l], a.mB[l], a.vB[l])
	}
}

// Snapshot is the serializable state of an MLP.
type Snapshot struct {
	Sizes  []int
	Hidden Activation
	W      [][]float64
	B      [][]float64
}

// Snapshot captures the network's parameters (optimizer state is not
// persisted; training can resume with a fresh optimizer).
func (m *MLP) Snapshot() Snapshot {
	return Snapshot{Sizes: append([]int{}, m.sizes...), Hidden: m.hidden, W: cloneRows(m.W), B: cloneRows(m.B)}
}

// FromSnapshot reconstructs an MLP from a snapshot.
func FromSnapshot(s Snapshot) (*MLP, error) {
	m, err := NewMLP(s.Sizes, s.Hidden, 0)
	if err != nil {
		return nil, err
	}
	if len(s.W) != len(m.W) || len(s.B) != len(m.B) {
		return nil, fmt.Errorf("nn: snapshot layer count mismatch")
	}
	for l := range m.W {
		if len(s.W[l]) != len(m.W[l]) || len(s.B[l]) != len(m.B[l]) {
			return nil, fmt.Errorf("nn: snapshot layer %d shape mismatch", l)
		}
		copy(m.W[l], s.W[l])
		copy(m.B[l], s.B[l])
	}
	return m, nil
}
