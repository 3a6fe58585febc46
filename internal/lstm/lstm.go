// Package lstm implements the path language model M_r of Section IV: a
// single-layer LSTM over edge-label tokens, trained with truncated BPTT on
// next-label prediction, used by the ranking function h_r to grow paths
// one edge at a time until the model emits the end-of-sentence token.
package lstm

import (
	"fmt"
	"math"
	"math/rand"
)

// EOS is the end-of-sentence token id ("<eos>" in the paper); emitting it
// terminates path growth.
const EOS = 0

// UNK is the unknown-token id, used for edge labels unseen in training.
const UNK = 1

const numSpecial = 2

// Vocab maps edge-label strings to dense token ids. Ids 0 and 1 are
// reserved for EOS and UNK.
type Vocab struct {
	ids    map[string]int
	tokens []string
}

// NewVocab builds a vocabulary over the given edge labels (duplicates
// are fine).
func NewVocab(labels []string) *Vocab {
	v := &Vocab{ids: make(map[string]int), tokens: []string{"<eos>", "<unk>"}}
	for _, l := range labels {
		if _, ok := v.ids[l]; !ok {
			v.ids[l] = len(v.tokens)
			v.tokens = append(v.tokens, l)
		}
	}
	return v
}

// Size returns the vocabulary size including the special tokens.
func (v *Vocab) Size() int { return len(v.tokens) }

// ID returns the token id of label l, or UNK.
func (v *Vocab) ID(l string) int {
	if id, ok := v.ids[l]; ok {
		return id
	}
	return UNK
}

// Token returns the label of token id.
func (v *Vocab) Token(id int) string { return v.tokens[id] }

// Model is the LSTM language model. Inference (Start/Step/Probs) is
// read-only with respect to parameters and safe for concurrent use after
// training completes.
type Model struct {
	Vocab  *Vocab
	embDim int
	hidden int

	emb  []float64 // vocab × embDim
	wx   []float64 // 4H × embDim (gate order: i, f, g, o)
	wh   []float64 // 4H × H
	b    []float64 // 4H
	wOut []float64 // vocab × H
	bOut []float64 // vocab
}

// New creates an untrained model. Construction is deterministic per seed.
func New(v *Vocab, embDim, hidden int, seed int64) *Model {
	if embDim <= 0 {
		embDim = 16
	}
	if hidden <= 0 {
		hidden = 32
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Vocab: v, embDim: embDim, hidden: hidden}
	init := func(n int, scale float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		return w
	}
	V, E, H := v.Size(), embDim, hidden
	m.emb = init(V*E, 0.1)
	m.wx = init(4*H*E, math.Sqrt(1.0/float64(E)))
	m.wh = init(4*H*H, math.Sqrt(1.0/float64(H)))
	m.b = make([]float64, 4*H)
	// Forget-gate bias starts at 1, the standard trick.
	for i := H; i < 2*H; i++ {
		m.b[i] = 1
	}
	m.wOut = init(V*H, math.Sqrt(1.0/float64(H)))
	m.bOut = make([]float64, V)
	return m
}

// State is the recurrent state (h, c) after consuming a prefix.
type State struct {
	H []float64
	C []float64
}

// Start returns the zero state.
func (m *Model) Start() State {
	return State{H: make([]float64, m.hidden), C: make([]float64, m.hidden)}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// stepCache stores intermediates of one step for BPTT.
type stepCache struct {
	token int
	x     []float64 // embedding input
	i, f, g, o,
	cPrev, c, tanhC, h []float64
}

// step advances the state on token id, optionally recording a cache.
func (m *Model) step(s State, token int, rec *stepCache) State {
	H, E := m.hidden, m.embDim
	x := m.emb[token*E : (token+1)*E]
	gi := make([]float64, H)
	gf := make([]float64, H)
	gg := make([]float64, H)
	go_ := make([]float64, H)
	for j := 0; j < H; j++ {
		zi := m.b[j]
		zf := m.b[H+j]
		zg := m.b[2*H+j]
		zo := m.b[3*H+j]
		rowI := m.wx[j*E : (j+1)*E]
		rowF := m.wx[(H+j)*E : (H+j+1)*E]
		rowG := m.wx[(2*H+j)*E : (2*H+j+1)*E]
		rowO := m.wx[(3*H+j)*E : (3*H+j+1)*E]
		for i := 0; i < E; i++ {
			zi += rowI[i] * x[i]
			zf += rowF[i] * x[i]
			zg += rowG[i] * x[i]
			zo += rowO[i] * x[i]
		}
		hrowI := m.wh[j*H : (j+1)*H]
		hrowF := m.wh[(H+j)*H : (H+j+1)*H]
		hrowG := m.wh[(2*H+j)*H : (2*H+j+1)*H]
		hrowO := m.wh[(3*H+j)*H : (3*H+j+1)*H]
		for i := 0; i < H; i++ {
			zi += hrowI[i] * s.H[i]
			zf += hrowF[i] * s.H[i]
			zg += hrowG[i] * s.H[i]
			zo += hrowO[i] * s.H[i]
		}
		gi[j] = sigmoid(zi)
		gf[j] = sigmoid(zf)
		gg[j] = math.Tanh(zg)
		go_[j] = sigmoid(zo)
	}
	c := make([]float64, H)
	tanhC := make([]float64, H)
	h := make([]float64, H)
	for j := 0; j < H; j++ {
		c[j] = gf[j]*s.C[j] + gi[j]*gg[j]
		tanhC[j] = math.Tanh(c[j])
		h[j] = go_[j] * tanhC[j]
	}
	if rec != nil {
		rec.token = token
		rec.x = x
		rec.i, rec.f, rec.g, rec.o = gi, gf, gg, go_
		rec.cPrev = s.C
		rec.c, rec.tanhC, rec.h = c, tanhC, h
	}
	return State{H: h, C: c}
}

// Step consumes one edge label and returns the new state.
func (m *Model) Step(s State, label string) State {
	return m.step(s, m.Vocab.ID(label), nil)
}

// Probs returns the softmax next-token distribution from state s.
// Index 0 is the probability of <eos>.
func (m *Model) Probs(s State) []float64 {
	V, H := m.Vocab.Size(), m.hidden
	logits := make([]float64, V)
	maxL := math.Inf(-1)
	for v := 0; v < V; v++ {
		z := m.bOut[v]
		row := m.wOut[v*H : (v+1)*H]
		for j := 0; j < H; j++ {
			z += row[j] * s.H[j]
		}
		logits[v] = z
		if z > maxL {
			maxL = z
		}
	}
	var sum float64
	for v := range logits {
		logits[v] = math.Exp(logits[v] - maxL)
		sum += logits[v]
	}
	for v := range logits {
		logits[v] /= sum
	}
	return logits
}

// Snapshot is the serializable state of a path language model.
type Snapshot struct {
	Tokens []string // vocabulary including the special tokens
	EmbDim int
	Hidden int
	Emb    []float64
	Wx     []float64
	Wh     []float64
	B      []float64
	WOut   []float64
	BOut   []float64
}

// Snapshot captures the model's parameters and vocabulary.
func (m *Model) Snapshot() Snapshot {
	return Snapshot{
		Tokens: append([]string{}, m.Vocab.tokens...),
		EmbDim: m.embDim,
		Hidden: m.hidden,
		Emb:    append([]float64{}, m.emb...),
		Wx:     append([]float64{}, m.wx...),
		Wh:     append([]float64{}, m.wh...),
		B:      append([]float64{}, m.b...),
		WOut:   append([]float64{}, m.wOut...),
		BOut:   append([]float64{}, m.bOut...),
	}
}

// FromSnapshot reconstructs a model from a snapshot.
func FromSnapshot(s Snapshot) (*Model, error) {
	if len(s.Tokens) < numSpecial {
		return nil, fmt.Errorf("lstm: snapshot vocabulary too small")
	}
	v := &Vocab{ids: make(map[string]int), tokens: append([]string{}, s.Tokens...)}
	for i, tok := range s.Tokens {
		if i >= numSpecial {
			v.ids[tok] = i
		}
	}
	m := New(v, s.EmbDim, s.Hidden, 0)
	for name, pair := range map[string][2][]float64{
		"emb":  {m.emb, s.Emb},
		"wx":   {m.wx, s.Wx},
		"wh":   {m.wh, s.Wh},
		"b":    {m.b, s.B},
		"wOut": {m.wOut, s.WOut},
		"bOut": {m.bOut, s.BOut},
	} {
		if len(pair[0]) != len(pair[1]) {
			return nil, fmt.Errorf("lstm: snapshot %s shape mismatch", name)
		}
		copy(pair[0], pair[1])
	}
	return m, nil
}
