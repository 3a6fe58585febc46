package embed

import (
	"math"
	"strconv"
	"sync/atomic"
	"testing"
)

// The scoring kernel's microbenchmarks (ns/op, B/op, allocs/op): every
// Matcher.Hv is one MvScore, ≈39k of them per cold /vpair at
// Synthetic-450 (DESIGN.md §14). check.sh runs them once; measure with
// -benchtime and -count by hand.

var scoreSink float64

// mvScoreCases are the label pairs BenchmarkMvScore times: the distinct
// pair pays the cosine and the containment test, the contained pair the
// same work with the containment test succeeding, the repeated pair a
// containment test whose short side is chosen by raw token count (two
// tokens each), and the equal pair returns before either.
var mvScoreCases = []struct{ name, a, b string }{
	{"distinct", "Dame Basketball Shoes D7", "Aurora Trail Runner 7 GTX"},
	{"contained", "Dame Basketball Shoes D7", "Dame Basketball Shoes"},
	{"repeated", "Shoes shoes", "Dame Shoes"},
	{"equal", "Dame Basketball Shoes D7", "Dame Basketball Shoes D7"},
}

// BenchmarkMvScore scores label pairs the encoder has seen before.
func BenchmarkMvScore(b *testing.B) {
	for _, c := range mvScoreCases {
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
	// parallel: every goroutine of b.RunParallel (GOMAXPROCS of them)
	// scores the four pairs in turn on one shared encoder, as the shard
	// workers of a process share the system's encoder.
	b.Run("parallel", func(b *testing.B) {
		e := NewEncoder(128)
		for _, c := range mvScoreCases {
			e.MvScore(c.a, c.b)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var s float64
			for i := 0; pb.Next(); i++ {
				c := mvScoreCases[i%len(mvScoreCases)]
				s += e.MvScore(c.a, c.b)
			}
			parallelSink.Store(math.Float64bits(s))
		})
	})
}

var parallelSink atomic.Uint64

var embedSink []float64

func benchLabels() []string {
	labels := make([]string, 256)
	for i := range labels {
		labels[i] = "Nimbus Peak Boot " + strconv.Itoa(i) + " GTX"
	}
	return labels
}

// BenchmarkEmbedCold embeds labels the encoder has not seen: tokenize,
// hash-project tokens and 3-grams, normalize, build the token set, insert
// into the label table. A fresh encoder every 256 labels keeps every call
// a miss.
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

// BenchmarkEmbedWarm is the table hit: one RLock and one map lookup.
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
