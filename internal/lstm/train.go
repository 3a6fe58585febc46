package lstm

import (
	"math"
	"math/rand"
)

// TrainConfig controls BPTT training of the path language model.
type TrainConfig struct {
	Epochs    int
	LearnRate float64
	Clip      float64 // max gradient L2 norm per sequence; 0 disables
	Seed      int64
}

// DefaultTrainConfig returns defaults adequate for the small path corpora
// used in this repository.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 20, LearnRate: 0.05, Clip: 5, Seed: 1}
}

// gradSet mirrors the model's parameters.
type gradSet struct {
	emb, wx, wh, b, wOut, bOut []float64
}

func (m *Model) newGrads() *gradSet {
	return &gradSet{
		emb:  make([]float64, len(m.emb)),
		wx:   make([]float64, len(m.wx)),
		wh:   make([]float64, len(m.wh)),
		b:    make([]float64, len(m.b)),
		wOut: make([]float64, len(m.wOut)),
		bOut: make([]float64, len(m.bOut)),
	}
}

// Train fits the model on edge-label sequences with next-token prediction
// (each sequence is additionally terminated with <eos>). Returns the mean
// per-token cross entropy of the final epoch.
func (m *Model) Train(seqs [][]string, cfg TrainConfig) float64 {
	if len(seqs) == 0 {
		return 0
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = 0.05
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(seqs))
	for i := range idx {
		idx[i] = i
	}
	var lastLoss float64
	var lastTokens int
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		lastLoss, lastTokens = 0, 0
		for _, si := range idx {
			tokens := make([]int, len(seqs[si]))
			for i, l := range seqs[si] {
				tokens[i] = m.Vocab.ID(l)
			}
			if len(tokens) == 0 {
				continue
			}
			loss, n := m.trainSequence(tokens, cfg)
			lastLoss += loss
			lastTokens += n
		}
	}
	if lastTokens == 0 {
		return 0
	}
	return lastLoss / float64(lastTokens)
}

// trainSequence runs one forward+BPTT pass and applies SGD.
func (m *Model) trainSequence(tokens []int, cfg TrainConfig) (float64, int) {
	H := m.hidden
	E := m.embDim
	V := m.Vocab.Size()
	n := len(tokens)

	// Forward with caches. states[j] is the state after consuming
	// tokens[0..j-1]; caches[j] describes step j (consuming tokens[j]).
	states := make([]State, n+1)
	states[0] = m.Start()
	caches := make([]stepCache, n)
	for j := 0; j < n; j++ {
		states[j+1] = m.step(states[j], tokens[j], &caches[j])
	}

	g := m.newGrads()
	var totalLoss float64
	dhNext := make([]float64, H)
	dcNext := make([]float64, H)

	for j := n - 1; j >= 0; j-- {
		// Target after consuming tokens[j]: the next token, or EOS.
		target := EOS
		if j+1 < n {
			target = tokens[j+1]
		}
		probs := m.Probs(states[j+1])
		totalLoss += -math.Log(math.Max(probs[target], 1e-12))

		// Output layer gradient.
		h := states[j+1].H
		dh := make([]float64, H)
		copy(dh, dhNext)
		for v := 0; v < V; v++ {
			d := probs[v]
			if v == target {
				d -= 1
			}
			g.bOut[v] += d
			row := m.wOut[v*H : (v+1)*H]
			grow := g.wOut[v*H : (v+1)*H]
			for k := 0; k < H; k++ {
				grow[k] += d * h[k]
				dh[k] += d * row[k]
			}
		}

		// Backprop through the LSTM cell.
		c := caches[j]
		dc := make([]float64, H)
		copy(dc, dcNext)
		dzi := make([]float64, H)
		dzf := make([]float64, H)
		dzg := make([]float64, H)
		dzo := make([]float64, H)
		for k := 0; k < H; k++ {
			do := dh[k] * c.tanhC[k]
			dtc := dh[k] * c.o[k]
			dc[k] += dtc * (1 - c.tanhC[k]*c.tanhC[k])
			di := dc[k] * c.g[k]
			df := dc[k] * c.cPrev[k]
			dg := dc[k] * c.i[k]
			dzi[k] = di * c.i[k] * (1 - c.i[k])
			dzf[k] = df * c.f[k] * (1 - c.f[k])
			dzg[k] = dg * (1 - c.g[k]*c.g[k])
			dzo[k] = do * c.o[k] * (1 - c.o[k])
		}
		// Next (earlier) step's dc: through the forget gate.
		for k := 0; k < H; k++ {
			dcNext[k] = dc[k] * c.f[k]
		}
		// Parameter grads and input grads.
		hPrev := states[j].H
		dhPrev := make([]float64, H)
		dx := make([]float64, E)
		gates := [][]float64{dzi, dzf, dzg, dzo}
		for gi, dz := range gates {
			for k := 0; k < H; k++ {
				d := dz[k]
				if d == 0 {
					continue
				}
				g.b[gi*H+k] += d
				rowX := m.wx[(gi*H+k)*E : (gi*H+k+1)*E]
				growX := g.wx[(gi*H+k)*E : (gi*H+k+1)*E]
				for i := 0; i < E; i++ {
					growX[i] += d * c.x[i]
					dx[i] += d * rowX[i]
				}
				rowH := m.wh[(gi*H+k)*H : (gi*H+k+1)*H]
				growH := g.wh[(gi*H+k)*H : (gi*H+k+1)*H]
				for i := 0; i < H; i++ {
					growH[i] += d * hPrev[i]
					dhPrev[i] += d * rowH[i]
				}
			}
		}
		gemb := g.emb[c.token*E : (c.token+1)*E]
		for i := 0; i < E; i++ {
			gemb[i] += dx[i]
		}
		dhNext = dhPrev
	}

	m.applySGD(g, cfg)
	return totalLoss, n
}

func (m *Model) applySGD(g *gradSet, cfg TrainConfig) {
	if cfg.Clip > 0 {
		var norm float64
		for _, gr := range [][]float64{g.emb, g.wx, g.wh, g.b, g.wOut, g.bOut} {
			for _, v := range gr {
				norm += v * v
			}
		}
		norm = math.Sqrt(norm)
		if norm > cfg.Clip {
			scale := cfg.Clip / norm
			for _, gr := range [][]float64{g.emb, g.wx, g.wh, g.b, g.wOut, g.bOut} {
				for i := range gr {
					gr[i] *= scale
				}
			}
		}
	}
	lr := cfg.LearnRate
	apply := func(p, gr []float64) {
		for i := range p {
			p[i] -= lr * gr[i]
		}
	}
	apply(m.emb, g.emb)
	apply(m.wx, g.wx)
	apply(m.wh, g.wh)
	apply(m.b, g.b)
	apply(m.wOut, g.wOut)
	apply(m.bOut, g.bOut)
}
