package graph

import "strings"

// Path is a simple path ρ = (v0, v1, ..., vl): a vertex list joined by
// edges, together with the labels of those edges. Len (the number of
// edges) is len(Vertices)-1 == len(EdgeLabels).
type Path struct {
	Vertices   []VID
	EdgeLabels []string
}

// SingleVertexPath returns the zero-length path at v.
func SingleVertexPath(v VID) Path {
	return Path{Vertices: []VID{v}}
}

// Len returns the number of edges on the path (len(ρ) in the paper).
func (p Path) Len() int { return len(p.EdgeLabels) }

// Start returns v0.
func (p Path) Start() VID { return p.Vertices[0] }

// End returns vl, the descendant the path leads to.
func (p Path) End() VID { return p.Vertices[len(p.Vertices)-1] }

// Extend returns a copy of p with one more hop appended.
func (p Path) Extend(e Edge) Path {
	vs := make([]VID, len(p.Vertices)+1)
	copy(vs, p.Vertices)
	vs[len(p.Vertices)] = e.To
	ls := make([]string, len(p.EdgeLabels)+1)
	copy(ls, p.EdgeLabels)
	ls[len(p.EdgeLabels)] = e.Label
	return Path{Vertices: vs, EdgeLabels: ls}
}

// Contains reports whether v already occurs on the path (cycle check for
// keeping paths simple).
func (p Path) Contains(v VID) bool {
	for _, u := range p.Vertices {
		if u == v {
			return true
		}
	}
	return false
}

// IsSimple reports whether no vertex repeats on the path.
func (p Path) IsSimple() bool {
	seen := make(map[VID]bool, len(p.Vertices))
	for _, v := range p.Vertices {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// LabelString renders the edge-label sequence L(ρ) handed to M_ρ, e.g.
// "factorySite isIn isIn".
func (p Path) LabelString() string { return strings.Join(p.EdgeLabels, " ") }

// Prefix returns the prefix of p with the first n edges (n+1 vertices).
// Used by schema-match extraction (appendix D).
func (p Path) Prefix(n int) Path {
	if n >= p.Len() {
		return p
	}
	return Path{Vertices: p.Vertices[:n+1], EdgeLabels: p.EdgeLabels[:n]}
}

// SimplePaths enumerates all simple paths from v of length in [1, maxLen],
// invoking fn for each. fn returning false stops the enumeration early.
// Exponential in the worst case; used only for training-data preparation
// and reference checking on small graphs.
func (g *Graph) SimplePaths(v VID, maxLen int, fn func(Path) bool) {
	var rec func(p Path) bool
	rec = func(p Path) bool {
		if p.Len() >= maxLen {
			return true
		}
		for _, e := range g.Out(p.End()) {
			if p.Contains(e.To) {
				continue
			}
			np := p.Extend(e)
			if !fn(np) {
				return false
			}
			if !rec(np) {
				return false
			}
		}
		return true
	}
	rec(SingleVertexPath(v))
}
