package her

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"her/internal/embed"
	"her/internal/nn"
)

func TestScorersMrhoFallbackAndMemo(t *testing.T) {
	sc := newScorers(embed.NewEncoder(64), nil)
	// Untrained: non-negative cosine fallback.
	s1 := sc.Mrho([]string{"made_in"}, []string{"made_in"})
	if math.Abs(s1-1) > 1e-9 {
		t.Errorf("identical sequences = %f", s1)
	}
	s2 := sc.Mrho([]string{"made_in"}, []string{"qty"})
	if s2 < 0 || s2 > 0.6 {
		t.Errorf("unrelated sequences = %f", s2)
	}
	// Memoized: same value on repeat.
	if sc.Mrho([]string{"made_in"}, []string{"qty"}) != s2 {
		t.Error("memo broken")
	}
	// Separator safety: labels are unvalidated strings and may hold any
	// byte, so ["made\x1fin"] must not share a memo key with the
	// sequence ["made", "in"].
	sc.Mrho([]string{"made\x1fin"}, []string{"made"})
	sc.Mrho([]string{"made"}, []string{"made\x1fin"})
	fresh := newScorers(embed.NewEncoder(64), nil)
	for _, p := range [][2][]string{
		{{"made", "in"}, {"made"}},
		{{"made"}, {"made", "in"}},
	} {
		if got, want := sc.Mrho(p[0], p[1]), fresh.Mrho(p[0], p[1]); got != want {
			t.Errorf("Mrho(%q, %q) = %v from the memo, want %v", p[0], p[1], got, want)
		}
	}
	if got := fresh.Mrho([]string{"made_in"}, []string{"qty"}); got != s2 {
		t.Errorf("fresh scorers recompute %v, memo holds %v", got, s2)
	}
}

func TestScorersConcurrent(t *testing.T) {
	sc := newScorers(embed.NewEncoder(32), nil)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 200; i++ {
				sc.enc.MvScore("label a", "label b")
				sc.Mrho([]string{"x"}, []string{"y"})
			}
			done <- true
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestAsyncAPairFacade(t *testing.T) {
	sys, _ := incrementalFixture(t)
	seq := sys.APair()
	par, stats, err := sys.APairParallelAsync(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("async %v vs sequential %v (stats %+v)", par, seq, stats)
	}
	for i := range par {
		if par[i] != seq[i] {
			t.Errorf("mismatch at %d", i)
		}
	}
}

// TestRefineWeightsPinned pins M_ρ's weights, bit for bit, after
// TrainPathModel and two two-polarity Refine rounds on the incremental
// fixture. Refine fine-tunes a clone of the published network, which
// must land where fine-tuning it in place did: the hashes below were
// taken when Refine trained the published network itself.
func TestRefineWeightsPinned(t *testing.T) {
	sys, pairs := incrementalFixture(t)
	u, _ := sys.Mapping.VertexOf("product", 0)
	p1 := sys.VPairVertex(u)[0].V
	p2 := sys.AddGraphVertex("product")
	if err := sys.AddGraphEdge(p2, sys.AddGraphVertex("Comet Road Cruiser"), "productName"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddGraphEdge(p2, sys.AddGraphVertex("blue"), "hasColor"); err != nil {
		t.Fatal(err)
	}
	var training []PathPair
	for i := 0; i < 10; i++ {
		training = append(training, pairs...)
	}
	if err := sys.TrainPathModel(training, 20); err != nil {
		t.Fatal(err)
	}
	fb := []Feedback{{Pair: Pair{U: u, V: p1}, IsMatch: true}, {Pair: Pair{U: u, V: p2}, IsMatch: false}}
	for round, want := range []string{
		"ec58b9224424b040c1935333d17f09ddca80e7f18a5205681bd14010196a80cf",
		"4ce8c9a107b4103d630164ffca80952e60d23b6b205b096f2034c6c918c5a704",
		"de733eddc70134150e1ffe266b5612f9fe20c8561de6f45a7dfdb4432fdbe09a",
	} {
		if round > 0 {
			sys.Refine(fb)
		}
		if got := weightsSHA(sys.scorersNow().metric.Snapshot()); got != want {
			t.Fatalf("after %d Refine rounds: weights SHA-256 %s, want %s", round, got, want)
		}
	}
}

// weightsSHA hashes a network's shape and the bits of its parameters.
func weightsSHA(s nn.Snapshot) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, n := range s.Sizes {
		put(uint64(n))
	}
	put(uint64(s.Hidden))
	for l := range s.W {
		for _, w := range s.W[l] {
			put(math.Float64bits(w))
		}
		for _, w := range s.B[l] {
			put(math.Float64bits(w))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
