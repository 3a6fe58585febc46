// Package embed provides the deterministic sentence-embedding substrate
// that stands in for the paper's Sentence-BERT / BERT encoders (DESIGN.md
// substitution 1). Labels are embedded by signed feature hashing of word
// unigrams and character 3-grams into a fixed-dimension space; the cosine
// of two embeddings then reflects lexical/sub-lexical closeness, and the
// trained metric network of M_ρ supplies the learned, non-lexical part of
// semantic similarity, as BERT fine-tuning does in the paper.
package embed

import (
	"hash/fnv"
	"slices"
	"strings"
	"sync"

	"her/internal/text"
)

// Encoder embeds label strings into unit vectors of dimension Dim and
// scores label pairs with MvScore. It is safe for concurrent use.
//
// Every label is tokenized once, the first time the encoder sees it: one
// table maps it to its embedding, its raw token count and its sorted,
// de-duplicated token set, so a later Embed or MvScore of the label is a
// table lookup and MvScore's containment test a merge of two sorted sets.
// The table grows with the distinct labels seen and is never evicted.
type Encoder struct {
	dim        int
	gramWeight float64

	mu     sync.RWMutex
	labels map[string]*label
}

// label is the encoder's per-label entry, immutable once built.
type label struct {
	vec []float64 // unit-norm embedding, zero for a label with no tokens
	n   int       // raw token count, duplicates included
	set []string  // sorted, de-duplicated tokens
}

// NewEncoder creates an encoder of the given output dimension. The paper's
// default sentence encoder corresponds to dimension 128 here; Table VII
// sweeps {100, 200, 300}.
func NewEncoder(dim int) *Encoder {
	if dim <= 0 {
		dim = 128
	}
	return &Encoder{dim: dim, gramWeight: 0.9, labels: make(map[string]*label)}
}

// Dim returns the embedding dimension.
func (e *Encoder) Dim() int { return e.dim }

// hashSigned maps a term into (slot, ±1) pairs under the given seed.
func hashSigned(term string, seed uint32, dim int) (int, float64) {
	h := fnv.New32a()
	var b [4]byte
	b[0] = byte(seed)
	b[1] = byte(seed >> 8)
	b[2] = byte(seed >> 16)
	b[3] = byte(seed >> 24)
	h.Write(b[:])
	h.Write([]byte(term))
	v := h.Sum32()
	slot := int(v % uint32(dim))
	sign := 1.0
	if (v>>16)&1 == 1 {
		sign = -1.0
	}
	return slot, sign
}

// Embed returns the unit-norm embedding x_s of label s. The zero vector is
// returned for labels with no tokens.
func (e *Encoder) Embed(s string) []float64 { return e.label(s).vec }

// label returns s's table entry, building it on first sight. Two
// goroutines that miss on the same label both build it; the entries are
// equal and the last write wins.
func (e *Encoder) label(s string) *label {
	e.mu.RLock()
	l, ok := e.labels[s]
	e.mu.RUnlock()
	if ok {
		return l
	}
	tokens := text.Tokenize(s)
	l = &label{vec: e.embed(tokens), n: len(tokens), set: tokenSet(tokens)}
	e.mu.Lock()
	e.labels[s] = l
	e.mu.Unlock()
	return l
}

// tokenSet returns the sorted, de-duplicated tokens.
func tokenSet(tokens []string) []string {
	set := slices.Clone(tokens)
	slices.Sort(set)
	return slices.Compact(set)
}

// embed projects a label's tokens: word unigrams, and the character
// 3-grams of their space-joined form. Those are text.NGrams(s, 3) of the
// label s they came from, without tokenizing s again. Re-tokenizing the
// joined form is not the same: "Aϒ" is one token, "aϒ", but ϒ has no
// lower case, so Tokenize splits "aϒ" at the camelCase boundary.
func (e *Encoder) embed(tokens []string) []float64 {
	v := make([]float64, e.dim)
	if len(tokens) == 0 {
		return v
	}
	// Word unigrams: three hash projections per token, full weight.
	for _, tok := range tokens {
		for seed := uint32(0); seed < 3; seed++ {
			slot, sign := hashSigned(tok, seed, e.dim)
			v[slot] += sign
		}
	}
	// Character 3-grams: sub-lexical signal so that e.g. "brandCountry"
	// and "country" share mass; weighted down.
	runes := []rune("##" + strings.Join(tokens, " ") + "##")
	for i := 0; i+3 <= len(runes); i++ {
		slot, sign := hashSigned(string(runes[i:i+3]), 7, e.dim)
		v[slot] += sign * e.gramWeight
	}
	return Normalize(v)
}

// EmbedSequence embeds a sequence of labels (e.g. edge labels on a path)
// by position-weighted averaging, approximating the sequential encoding
// the paper's BERT gives path strings. Earlier labels get slightly more
// weight, matching the intuition that the first predicate dominates the
// association's meaning.
func (e *Encoder) EmbedSequence(labels []string) []float64 {
	v := make([]float64, e.dim)
	if len(labels) == 0 {
		return v
	}
	for i, l := range labels {
		w := 1.0 / float64(i+1)
		lv := e.Embed(l)
		for j := range v {
			v[j] += w * lv[j]
		}
	}
	return Normalize(v)
}

// MvScore computes the paper's vertex score
// M_v(a, b) = (|cos(x_a, x_b)| + cos(x_a, x_b)) / 2 ∈ [0, 1], with a
// containment boost: when every token of the shorter label occurs in the
// longer one, the labels almost surely denote the same value formatted
// differently (the paper's "Dame Basketball Shoes D7" vs "Dame
// Basketball Shoes"), so the score is at least 0.9.
func (e *Encoder) MvScore(a, b string) float64 {
	if a == b && a != "" {
		return 1
	}
	la, lb := e.label(a), e.label(b)
	c := Cosine(la.vec, lb.vec)
	if c < 0 {
		c = 0
	}
	if c < 0.9 && contained(la, lb) {
		return 0.9
	}
	return c
}

// contained reports whether the token set of the shorter label (by raw
// token count, a on a tie) is a non-empty subset of the longer one's: a
// merge of the two sorted sets.
func contained(a, b *label) bool {
	if a.n == 0 || b.n == 0 {
		return false
	}
	short, long := a.set, b.set
	if b.n < a.n {
		short, long = b.set, a.set
	}
	j := 0
	for _, t := range short {
		for j < len(long) && long[j] < t {
			j++
		}
		if j == len(long) || long[j] != t {
			return false
		}
		j++
	}
	return true
}
