package embed

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"her/internal/dataset"
	"her/internal/graph"
	"her/internal/text"
)

// The encoder's label table must not change a score: MvScore has to be
// == to the formula it replaced, which re-tokenized both labels on every
// call. That formula is kept here, and only here, as the oracle.

// oracleEmbed is the embedding computed straight from the label, with
// its own text.Tokenize and text.NGrams calls.
func oracleEmbed(dim int, s string) []float64 {
	v := make([]float64, dim)
	tokens := text.Tokenize(s)
	if len(tokens) == 0 {
		return v
	}
	for _, tok := range tokens {
		for seed := uint32(0); seed < 3; seed++ {
			slot, sign := hashSigned(tok, seed, dim)
			v[slot] += sign
		}
	}
	for _, g := range text.NGrams(s, 3) {
		slot, sign := hashSigned(g, 7, dim)
		v[slot] += sign * 0.9
	}
	return Normalize(v)
}

// oracleContained re-tokenizes both labels and tests the shorter one's
// tokens (by raw count, a on a tie) against a map of the longer one's.
func oracleContained(a, b string) bool {
	ta, tb := text.Tokenize(a), text.Tokenize(b)
	if len(ta) == 0 || len(tb) == 0 {
		return false
	}
	short, long := ta, tb
	if len(tb) < len(ta) {
		short, long = tb, ta
	}
	set := make(map[string]bool, len(long))
	for _, t := range long {
		set[t] = true
	}
	for _, t := range short {
		if !set[t] {
			return false
		}
	}
	return true
}

// oracle scores label pairs by the old formula, memoizing only the
// embeddings (a pure function of the label).
type oracle struct {
	dim  int
	vecs map[string][]float64
}

func newOracle(dim int) *oracle { return &oracle{dim: dim, vecs: make(map[string][]float64)} }

func (o *oracle) embed(s string) []float64 {
	v, ok := o.vecs[s]
	if !ok {
		v = oracleEmbed(o.dim, s)
		o.vecs[s] = v
	}
	return v
}

func (o *oracle) mvScore(a, b string) float64 {
	if a == b && a != "" {
		return 1
	}
	c := Cosine(o.embed(a), o.embed(b))
	if c < 0 {
		c = 0
	}
	if c < 0.9 && oracleContained(a, b) {
		return 0.9
	}
	return c
}

// edgeFragments are the tokenizer's edge cases: camel, snake and kebab
// case, digits, non-ASCII letters (among them ϒ, an upper-case letter
// with no lower case, so re-tokenizing a lower-cased token can split
// it), empty and separator-only labels, and repeated tokens.
var edgeFragments = []string{
	"", " ", "---", "_/:", "brandCountry", "country", "XMLHttpRequest",
	"made_in", "has-author", "/akt:has-author", "x86_64", "D7", "2022",
	"Dame Basketball Shoes D7", "Dame Basketball Shoes", "Grüße", "grüsse",
	"日本語ラベル", "İstanbul", "istanbul", "ǅemal", "Aϒ", "XMLϒ", "red red", "red shoe",
	"Red RED red", "shoe red", "a", "A", "aB", "ab", "élan", "ÉLAN",
}

// edgeCorpus returns the fragments plus n labels drawn from them with a
// fixed seed: one to four fragments, each joined by a random separator.
func edgeCorpus(n int) []string {
	rng := rand.New(rand.NewSource(45))
	seps := []string{"", " ", "_", "-", "/", ":", "  "}
	labels := append([]string(nil), edgeFragments...)
	for i := 0; i < n; i++ {
		var b strings.Builder
		for k := rng.Intn(4); k >= 0; k-- {
			b.WriteString(edgeFragments[rng.Intn(len(edgeFragments))])
			if k > 0 {
				b.WriteString(seps[rng.Intn(len(seps))])
			}
		}
		labels = append(labels, b.String())
	}
	return labels
}

// assertOracle checks Embed and MvScore of every ordered pair of as × bs
// for == against the oracle, on a fresh encoder.
func assertOracle(t *testing.T, as, bs []string) {
	t.Helper()
	e, o := NewEncoder(128), newOracle(128)
	for _, s := range append(append([]string(nil), as...), bs...) {
		got, want := e.Embed(s), o.embed(s)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Embed(%q)[%d] = %v, oracle %v", s, i, got[i], want[i])
			}
		}
	}
	for _, a := range as {
		for _, b := range bs {
			if got, want := e.MvScore(a, b), o.mvScore(a, b); got != want {
				t.Fatalf("MvScore(%q, %q) = %v, oracle %v", a, b, got, want)
			}
		}
	}
}

func TestMvScoreMatchesOracleOnEdgeCorpus(t *testing.T) {
	labels := edgeCorpus(120)
	assertOracle(t, labels, labels)
}

// TestContainmentTieGoesToA pins the raw-count rule: "red red" and
// "red shoe" both have two tokens, so a is the short side, and the
// containment boost holds one way round only.
func TestContainmentTieGoesToA(t *testing.T) {
	e := NewEncoder(128)
	if !contained(e.label("red red"), e.label("red shoe")) {
		t.Error(`{red} should be contained in {red, shoe}`)
	}
	if contained(e.label("red shoe"), e.label("red red")) {
		t.Error(`{red, shoe} should not be contained in {red}`)
	}
	if !contained(e.label("Red RED red"), e.label("red")) {
		t.Error(`"red" (1 token) is the short side of "Red RED red" (3)`)
	}
	if contained(e.label("---"), e.label("red")) || contained(e.label("red"), e.label("")) {
		t.Error("a label with no tokens contains and is contained by nothing")
	}
}

// TestMvScoreMatchesOracleOnDataset scores every (G_D label, G label)
// pair of a small generated Synthetic instance, the pairs Matcher.Hv
// asks for.
func TestMvScoreMatchesOracleOnDataset(t *testing.T) {
	cfg, _ := dataset.ByName("Synthetic", 40)
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	labels := func(n int, label func(int) string) []string {
		seen := make(map[string]bool)
		var out []string
		for v := 0; v < n; v++ {
			if l := label(v); !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
		return out
	}
	gd := labels(d.GD.NumVertices(), func(v int) string { return d.GD.Label(graph.VID(v)) })
	g := labels(d.G.NumVertices(), func(v int) string { return d.G.Label(graph.VID(v)) })
	t.Logf("%d G_D labels × %d G labels", len(gd), len(g))
	assertOracle(t, gd, g)
}

// TestMvScoreConcurrent shares one fresh encoder between four goroutines
// scoring overlapping pairs, so they race to build the same entries; the
// scores must be == to a sequential encoder's.
func TestMvScoreConcurrent(t *testing.T) {
	labels := edgeCorpus(40)
	seq := NewEncoder(128)
	want := make([][]float64, len(labels))
	for i, a := range labels {
		want[i] = make([]float64, len(labels))
		for j, b := range labels {
			want[i][j] = seq.MvScore(a, b)
		}
	}
	const workers = 4
	shared := NewEncoder(128)
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at its own offset and walks every pair,
			// so all four build and read the same entries.
			for k := range labels {
				i := (k + w*len(labels)/workers) % len(labels)
				for j, b := range labels {
					if got := shared.MvScore(labels[i], b); got != want[i][j] {
						errs <- labels[i] + " | " + b
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent MvScore differs from sequential on %s", e)
	}
}
