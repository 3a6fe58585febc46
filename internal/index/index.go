// Package index implements the inverted indices HER uses for candidate
// generation ("blocking"; Sections VI and VII): vertex labels are indexed
// by word token, and candidate vertices for a query label are those
// sharing at least one token, optionally ranked by shared-token count.
// Blocking and Candidates are the blocking rule every matcher uses.
package index

import (
	"sort"
	"strings"

	"her/internal/graph"
	"her/internal/text"
)

// Inverted is a token → vertices index over a graph's vertex labels.
type Inverted struct {
	postings  map[string][]graph.VID
	minShared int // Candidates' selectivity; set by Blocking
}

// BuildDocs indexes every vertex of g whose id satisfies the filter (nil
// means all vertices) under the tokens of its document — e.g. the
// vertex label plus its 1-hop neighbor labels, the paper's "critical
// information" blocking. A nil docFn means the vertex label alone.
func BuildDocs(g *graph.Graph, filter func(graph.VID) bool, docFn func(graph.VID) string) *Inverted {
	ix := &Inverted{postings: make(map[string][]graph.VID)}
	// Per-document token dedup set, hoisted and cleared per vertex
	// instead of reallocated.
	seen := make(map[string]bool)
	for i := 0; i < g.NumVertices(); i++ {
		v := graph.VID(i)
		if filter != nil && !filter(v) {
			continue
		}
		doc := g.Label(v)
		if docFn != nil {
			doc = docFn(v)
		}
		clear(seen)
		for _, tok := range text.Tokenize(doc) {
			if !seen[tok] {
				seen[tok] = true
				ix.postings[tok] = append(ix.postings[tok], v)
			}
		}
	}
	return ix
}

// Blocking builds the blocking index over G: its non-leaf vertices
// indexed by their neighborhood documents (NeighborhoodDoc), queried
// through Candidates, which keeps the vertices sharing at least
// minShared tokens with the query.
func Blocking(g *graph.Graph, minShared int) *Inverted {
	ix := BuildDocs(g, func(v graph.VID) bool { return !g.IsLeaf(v) }, NeighborhoodDoc(g))
	ix.minShared = minShared
	return ix
}

// Candidates returns the blocking candidates of G_D vertex u: the
// indexed vertices sharing at least the index's minShared tokens with
// u's neighborhood document in gd, ordered by descending shared-token
// count (ties by id). keep, when non-nil, restricts the lookup to the
// vertices it accepts; the others are skipped before counting.
func (ix *Inverted) Candidates(gd *graph.Graph, u graph.VID, keep func(graph.VID) bool) []graph.VID {
	return ix.lookup(NeighborhoodDoc(gd)(u), ix.minShared, keep)
}

// NeighborhoodDoc returns a document function that concatenates a
// vertex's own label with the labels of its out-neighbors.
func NeighborhoodDoc(g *graph.Graph) func(graph.VID) string {
	return func(v graph.VID) string {
		var b strings.Builder
		b.WriteString(g.Label(v))
		for _, e := range g.Out(v) {
			b.WriteByte(' ')
			b.WriteString(g.Label(e.To))
		}
		return b.String()
	}
}

// NumTokens returns the number of distinct indexed tokens.
func (ix *Inverted) NumTokens() int { return len(ix.postings) }

// lookup returns the vertices keep accepts (nil keeps all) that share at
// least minShared tokens with the query label, ordered by descending
// shared-token count (ties by id). minShared < 1 is treated as 1.
func (ix *Inverted) lookup(label string, minShared int, keep func(graph.VID) bool) []graph.VID {
	if minShared < 1 {
		minShared = 1
	}
	counts := make(map[graph.VID]int)
	seen := make(map[string]bool)
	for _, tok := range text.Tokenize(label) {
		if seen[tok] {
			continue
		}
		seen[tok] = true
		for _, v := range ix.postings[tok] {
			if keep == nil || keep(v) {
				counts[v]++
			}
		}
	}
	out := make([]graph.VID, 0, len(counts))
	for v, c := range counts {
		if c >= minShared {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil // no-match contract: nil, not an empty slice
	}
	sort.Slice(out, func(a, b int) bool {
		ca, cb := counts[out[a]], counts[out[b]]
		if ca != cb {
			return ca > cb
		}
		return out[a] < out[b]
	})
	return out
}
