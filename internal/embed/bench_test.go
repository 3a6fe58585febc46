package embed

import (
	"strconv"
	"testing"
)

// The scoring kernel's microbenchmarks (ns/op, B/op, allocs/op): every
// Matcher.Hv is one MvScore, ≈39k of them per cold /vpair at
// Synthetic-450 (DESIGN.md §14). check.sh runs them once; measure with
// -benchtime and -count by hand.

var scoreSink float64

// BenchmarkMvScore scores label pairs whose embeddings are cached: the
// distinct pair pays the cosine and the containment test, the contained
// pair the same work with the containment test succeeding, the equal
// pair returns before either.
func BenchmarkMvScore(b *testing.B) {
	for _, c := range []struct{ name, a, b string }{
		{"distinct", "Dame Basketball Shoes D7", "Aurora Trail Runner 7 GTX"},
		{"contained", "Dame Basketball Shoes D7", "Dame Basketball Shoes"},
		{"equal", "Dame Basketball Shoes D7", "Dame Basketball Shoes D7"},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := NewEncoder(128)
			e.MvScore(c.a, c.b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scoreSink = e.MvScore(c.a, c.b)
			}
		})
	}
}

var embedSink []float64

func benchLabels() []string {
	labels := make([]string, 256)
	for i := range labels {
		labels[i] = "Nimbus Peak Boot " + strconv.Itoa(i) + " GTX"
	}
	return labels
}

// BenchmarkEmbedCold embeds labels the encoder has not seen: tokenize,
// hash-project tokens and 3-grams, normalize, insert into the cache. A
// fresh encoder every 256 labels keeps every call a miss.
func BenchmarkEmbedCold(b *testing.B) {
	labels := benchLabels()
	var e *Encoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%len(labels) == 0 {
			e = NewEncoder(128)
		}
		embedSink = e.Embed(labels[i%len(labels)])
	}
}

// BenchmarkEmbedWarm is the cache hit: one RLock and one map lookup.
func BenchmarkEmbedWarm(b *testing.B) {
	labels := benchLabels()
	e := NewEncoder(128)
	for _, l := range labels {
		e.Embed(l)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		embedSink = e.Embed(labels[i%len(labels)])
	}
}
