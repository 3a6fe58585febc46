package embed

import (
	"math"
	"testing"
	"testing/quick"

	"her/internal/graph"
)

func TestVectorOps(t *testing.T) {
	a := []float64{3, 4}
	if Norm(a) != 5 {
		t.Errorf("Norm = %f", Norm(a))
	}
	b := []float64{1, 0}
	if Dot(a, b) != 3 {
		t.Errorf("Dot = %f", Dot(a, b))
	}
	Normalize(a)
	if math.Abs(Norm(a)-1) > 1e-12 {
		t.Errorf("normalized norm = %f", Norm(a))
	}
	z := []float64{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero vector should normalize to itself")
	}
	if Cosine(z, a) != 0 {
		t.Error("cosine with zero vector should be 0")
	}
	if c := Cosine([]float64{1, 0}, []float64{1, 0}); math.Abs(c-1) > 1e-12 {
		t.Errorf("cosine identical = %f", c)
	}
	if c := Cosine([]float64{1, 0}, []float64{-1, 0}); math.Abs(c+1) > 1e-12 {
		t.Errorf("cosine opposite = %f", c)
	}
	cc := Concat([]float64{1}, []float64{2, 3})
	if len(cc) != 3 || cc[2] != 3 {
		t.Errorf("Concat = %v", cc)
	}
	ad := AbsDiff([]float64{1, -2}, []float64{3, 2})
	if ad[0] != 2 || ad[1] != 4 {
		t.Errorf("AbsDiff = %v", ad)
	}
	hp := Hadamard([]float64{2, 3}, []float64{4, 5})
	if hp[0] != 8 || hp[1] != 15 {
		t.Errorf("Hadamard = %v", hp)
	}
	dst := []float64{1, 1}
	Add(dst, []float64{2, 3})
	if dst[0] != 3 || dst[1] != 4 {
		t.Errorf("Add = %v", dst)
	}
	Scale(dst, 2)
	if dst[0] != 6 {
		t.Errorf("Scale = %v", dst)
	}
}

func TestEmbedDeterministicAndUnit(t *testing.T) {
	e := NewEncoder(64)
	v1 := e.Embed("Dame Basketball Shoes D7")
	v2 := e.Embed("Dame Basketball Shoes D7")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("embedding not deterministic")
		}
	}
	if math.Abs(Norm(v1)-1) > 1e-9 {
		t.Errorf("embedding not unit norm: %f", Norm(v1))
	}
	if Norm(e.Embed("")) != 0 {
		t.Error("empty label should embed to zero vector")
	}
}

func TestMvScoreProperties(t *testing.T) {
	e := NewEncoder(128)
	if s := e.MvScore("Germany", "Germany"); s != 1 {
		t.Errorf("MvScore identical = %f", s)
	}
	// Shared-token pairs should beat disjoint pairs.
	close := e.MvScore("Dame Basketball Shoes D7", "Dame Gen 7")
	far := e.MvScore("Dame Basketball Shoes D7", "Parking Charges Northwest Zone")
	if close <= far {
		t.Errorf("close=%f should beat far=%f", close, far)
	}
	// Range property.
	prop := func(a, b string) bool {
		s := e.MvScore(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// Symmetry.
	sym := func(a, b string) bool {
		return math.Abs(e.MvScore(a, b)-e.MvScore(b, a)) < 1e-12
	}
	if err := quick.Check(sym, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSubLexicalSignal(t *testing.T) {
	e := NewEncoder(128)
	// "brandCountry" and "country" share the token "country".
	s := e.MvScore("brandCountry", "country")
	if s < 0.3 {
		t.Errorf("shared-token score too low: %f", s)
	}
	d := e.MvScore("qty", "manufacturer")
	if d >= s {
		t.Errorf("disjoint pair (%f) should score below shared pair (%f)", d, s)
	}
}

func TestEmbedSequence(t *testing.T) {
	e := NewEncoder(64)
	v := e.EmbedSequence([]string{"factorySite", "isIn", "isIn"})
	if math.Abs(Norm(v)-1) > 1e-9 {
		t.Errorf("sequence embedding not unit norm: %f", Norm(v))
	}
	if Norm(e.EmbedSequence(nil)) != 0 {
		t.Error("empty sequence should embed to zero")
	}
	// Single-label sequence equals the label embedding.
	a := e.EmbedSequence([]string{"made_in"})
	b := e.Embed("made_in")
	if math.Abs(Cosine(a, b)-1) > 1e-9 {
		t.Error("single-label sequence should equal label embedding")
	}
	// Order matters.
	x := e.EmbedSequence([]string{"alpha", "beta"})
	y := e.EmbedSequence([]string{"beta", "alpha"})
	if math.Abs(Cosine(x, y)-1) < 1e-9 {
		t.Error("sequence embedding should be order sensitive")
	}
}

func TestLabelVocabulary(t *testing.T) {
	g := graph.New()
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	g.MustAddEdge(a, b, "x")
	g.MustAddEdge(a, b, "y")
	g.MustAddEdge(b, a, "x")
	vocab := LabelVocabulary(g)
	if len(vocab) != 2 || vocab[0] != "x" || vocab[1] != "y" {
		t.Errorf("vocab = %v", vocab)
	}
}
