package embed

import "her/internal/graph"

// LabelVocabulary returns the distinct edge labels of g in first-seen
// order, the vocabulary for the path language model and metric network.
func LabelVocabulary(g *graph.Graph) []string {
	seen := make(map[string]bool)
	var vocab []string
	for v := 0; v < g.NumVertices(); v++ {
		for _, e := range g.Out(graph.VID(v)) {
			if !seen[e.Label] {
				seen[e.Label] = true
				vocab = append(vocab, e.Label)
			}
		}
	}
	return vocab
}
