package shard

import (
	"testing"

	"her/internal/core"
	"her/internal/graph"
)

// benchReplies builds a synthetic scatter result set shaped like an
// 8-shard gather: eight per-shard pair slices of 4096 pairs each.
func benchReplies() [][]core.Pair {
	replies := make([][]core.Pair, 8)
	for i := range replies {
		rs := make([]core.Pair, 4096)
		for j := range rs {
			rs[j] = core.Pair{U: graph.VID(i), V: graph.VID(j)}
		}
		replies[i] = rs
	}
	return replies
}

var mergeSink []core.Pair

// BenchmarkGatherMergeBare is the pre-PR-9 gather loop: append into a
// nil slice, growing geometrically as shard replies arrive. Kept as
// the baseline for BenchmarkGatherMergePrealloc.
func BenchmarkGatherMergeBare(b *testing.B) {
	replies := benchReplies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var merged []core.Pair
		for _, r := range replies {
			merged = append(merged, r...)
		}
		mergeSink = merged
	}
}

// BenchmarkGatherMergePrealloc is the current two-phase gather: sum
// reply sizes first, then append into an exactly-sized slice.
func BenchmarkGatherMergePrealloc(b *testing.B) {
	replies := benchReplies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, r := range replies {
			total += len(r)
		}
		merged := make([]core.Pair, 0, total)
		for _, r := range replies {
			merged = append(merged, r...)
		}
		mergeSink = merged
	}
}
