package lstm

import (
	"math"
	"testing"
)

func TestVocab(t *testing.T) {
	v := NewVocab([]string{"a", "b", "a", "c"})
	if v.Size() != 5 { // eos, unk, a, b, c
		t.Fatalf("Size = %d", v.Size())
	}
	if v.ID("a") == v.ID("b") {
		t.Error("distinct labels share an id")
	}
	if v.ID("zzz") != UNK {
		t.Error("unseen label should be UNK")
	}
	if v.Token(EOS) != "<eos>" {
		t.Errorf("Token(EOS) = %q", v.Token(EOS))
	}
	if v.Token(v.ID("c")) != "c" {
		t.Error("Token/ID round trip broken")
	}
}

func TestProbsIsDistribution(t *testing.T) {
	v := NewVocab([]string{"x", "y", "z"})
	m := New(v, 8, 12, 3)
	s := m.Start()
	s = m.Step(s, "x")
	p := m.Probs(s)
	if len(p) != v.Size() {
		t.Fatalf("probs len = %d", len(p))
	}
	var sum float64
	for _, pi := range p {
		if pi < 0 || pi > 1 || math.IsNaN(pi) {
			t.Fatalf("bad probability %f", pi)
		}
		sum += pi
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %f", sum)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	v := NewVocab([]string{"x", "y"})
	a := New(v, 4, 6, 9)
	b := New(v, 4, 6, 9)
	pa := a.NextProbs([]string{"x"})
	pb := b.NextProbs([]string{"x"})
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed should give identical models")
		}
	}
}

func TestTrainLearnsBigram(t *testing.T) {
	// Grammar: "a" is always followed by "b", then the sequence ends;
	// "c" is always followed by "d" then "e".
	var seqs [][]string
	for i := 0; i < 30; i++ {
		seqs = append(seqs, []string{"a", "b"})
		seqs = append(seqs, []string{"c", "d", "e"})
	}
	v := NewVocab([]string{"a", "b", "c", "d", "e"})
	m := New(v, 8, 16, 5)
	epochs := 40
	if testing.Short() {
		// Short tier: enough epochs to verify training moves the loss,
		// not enough to pin the learned grammar below.
		epochs = 6
	}
	before := m.Perplexity(seqs)
	loss := m.Train(seqs, TrainConfig{Epochs: epochs, LearnRate: 0.05, Clip: 5, Seed: 2})
	after := m.Perplexity(seqs)
	if after >= before {
		t.Errorf("training did not reduce perplexity: %f → %f (loss %f)", before, after, loss)
	}
	if testing.Short() {
		return
	}
	// After "a", "b" should be the most likely continuation.
	p := m.NextProbs([]string{"a"})
	argmax := 0
	for i := range p {
		if p[i] > p[argmax] {
			argmax = i
		}
	}
	if v.Token(argmax) != "b" {
		t.Errorf("after 'a' model prefers %q with p=%f (p(b)=%f)", v.Token(argmax), p[argmax], p[v.ID("b")])
	}
	// After "a b", EOS should dominate continuation tokens.
	p2 := m.NextProbs([]string{"a", "b"})
	if p2[EOS] < p2[v.ID("c")] || p2[EOS] < p2[v.ID("a")] {
		t.Errorf("after 'a b' EOS p=%f should beat continuations", p2[EOS])
	}
}

func TestTrainEmpty(t *testing.T) {
	v := NewVocab([]string{"a"})
	m := New(v, 4, 4, 1)
	if l := m.Train(nil, DefaultTrainConfig()); l != 0 {
		t.Errorf("empty training loss = %f", l)
	}
	if l := m.Train([][]string{{}}, DefaultTrainConfig()); l != 0 {
		t.Errorf("empty-sequence training loss = %f", l)
	}
	if p := m.Perplexity(nil); p != 1 {
		t.Errorf("empty perplexity = %f", p)
	}
}

func TestStepUnknownLabel(t *testing.T) {
	v := NewVocab([]string{"a"})
	m := New(v, 4, 4, 1)
	s := m.Start()
	s2 := m.Step(s, "never-seen")
	if len(s2.H) != 4 {
		t.Error("step on unknown label should still advance")
	}
}

func TestConcurrentInference(t *testing.T) {
	v := NewVocab([]string{"a", "b"})
	m := New(v, 4, 8, 2)
	m.Train([][]string{{"a", "b"}}, TrainConfig{Epochs: 2, LearnRate: 0.05, Seed: 1})
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 50; i++ {
				m.NextProbs([]string{"a"})
			}
			done <- true
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	v := NewVocab([]string{"a", "b", "c"})
	m := New(v, 6, 10, 4)
	m.Train([][]string{{"a", "b"}, {"c"}}, TrainConfig{Epochs: 5, LearnRate: 0.05, Seed: 1})
	want := m.NextProbs([]string{"a"})
	s := m.Snapshot()
	m2, err := FromSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.NextProbs([]string{"a"})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored probs differ at %d: %f vs %f", i, got[i], want[i])
		}
	}
	if m2.Vocab.ID("b") != m.Vocab.ID("b") {
		t.Error("vocabulary ids not preserved")
	}
	// Corrupt shapes fail.
	bad := m.Snapshot()
	bad.Wx = bad.Wx[:3]
	if _, err := FromSnapshot(bad); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := FromSnapshot(Snapshot{Tokens: []string{"only"}}); err == nil {
		t.Error("tiny vocabulary accepted")
	}
}

// NextProbs consumes a full prefix of edge labels from the zero state and
// returns the next-token distribution, the tests' probe of a model.
func (m *Model) NextProbs(prefix []string) []float64 {
	s := m.Start()
	for _, l := range prefix {
		s = m.Step(s, l)
	}
	return m.Probs(s)
}

// Perplexity evaluates exp(mean cross entropy) of the model on sequences.
func (m *Model) Perplexity(seqs [][]string) float64 {
	var loss float64
	var count int
	for _, seq := range seqs {
		s := m.Start()
		tokens := make([]int, len(seq))
		for i, l := range seq {
			tokens[i] = m.Vocab.ID(l)
		}
		for j := 0; j < len(tokens); j++ {
			s = m.step(s, tokens[j], nil)
			target := EOS
			if j+1 < len(tokens) {
				target = tokens[j+1]
			}
			probs := m.Probs(s)
			loss += -math.Log(math.Max(probs[target], 1e-12))
			count++
		}
	}
	if count == 0 {
		return 1
	}
	return math.Exp(loss / float64(count))
}
