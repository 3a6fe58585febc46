package graph

import (
	"testing"
	"testing/quick"
)

// diamond builds: a→b, a→c, b→d, c→d, plus a self-contained leaf e.
func diamond(t *testing.T) (*Graph, []VID) {
	t.Helper()
	g := New()
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	c := g.AddVertex("c")
	d := g.AddVertex("d")
	e := g.AddVertex("e")
	g.MustAddEdge(a, b, "ab")
	g.MustAddEdge(a, c, "ac")
	g.MustAddEdge(b, d, "bd")
	g.MustAddEdge(c, d, "cd")
	return g, []VID{a, b, c, d, e}
}

func TestBasicAccessors(t *testing.T) {
	g, vs := diamond(t)
	a, b, _, d, e := vs[0], vs[1], vs[2], vs[3], vs[4]
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Fatalf("size = (%d,%d)", g.NumVertices(), g.NumEdges())
	}
	if g.Size() != 9 {
		t.Errorf("Size = %d, want 9", g.Size())
	}
	if g.Label(a) != "a" {
		t.Errorf("Label(a) = %q", g.Label(a))
	}
	if g.OutDegree(a) != 2 || g.Degree(d) != 2 || g.Degree(b) != 2 {
		t.Error("degree accounting wrong")
	}
	if !g.IsLeaf(d) || !g.IsLeaf(e) || g.IsLeaf(a) {
		t.Error("leaf detection wrong")
	}
	if out := g.Out(a); len(out) != 2 || out[0] != (Edge{To: b, Label: "ab"}) {
		t.Errorf("Out(a) = %v", out)
	}
	if in := g.In(b); len(in) != 1 || in[0] != a {
		t.Errorf("In(b) = %v, want [a]: edges are directed", in)
	}
	if err := g.AddEdge(a, VID(99), "x"); err == nil {
		t.Error("edge to invalid vertex should fail")
	}
	labels := g.Labels()
	if len(labels) != g.NumVertices() || labels[e] != g.Label(e) {
		t.Errorf("Labels() = %q, want one label per vertex", labels)
	}
	f := g.AddVertex("f")
	if len(labels) != 5 || labels[e] != g.Label(e) || g.Labels()[f] != "f" {
		t.Error("AddVertex disturbed a label column taken before it")
	}
}

// TestChildrenDistinct: parallel edges between the same two vertices
// stay distinct edges, each with its own label.
func TestChildrenDistinct(t *testing.T) {
	g := New()
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	g.MustAddEdge(a, b, "x")
	g.MustAddEdge(a, b, "y") // parallel edge
	want := []Edge{{To: b, Label: "x"}, {To: b, Label: "y"}}
	if out := g.Out(a); len(out) != 2 || out[0] != want[0] || out[1] != want[1] {
		t.Errorf("Out(a) = %v, want %v", out, want)
	}
	if g.NumEdges() != 2 || g.Degree(b) != 2 {
		t.Errorf("parallel edges should both count: %d edges, in-degree %d", g.NumEdges(), g.Degree(b))
	}
}

// TestReachable: SimplePaths reaches exactly the vertices a directed
// walk from the start reaches, and stops at the length bound.
func TestReachable(t *testing.T) {
	ends := func(g *Graph, v VID, maxLen int) map[VID]bool {
		r := map[VID]bool{}
		g.SimplePaths(v, maxLen, func(p Path) bool {
			r[p.End()] = true
			return true
		})
		return r
	}
	g, vs := diamond(t)
	a, b, c, d, e := vs[0], vs[1], vs[2], vs[3], vs[4]
	if r := ends(g, a, 4); len(r) != 3 || !r[b] || !r[c] || !r[d] || r[e] {
		t.Errorf("reachable from a = %v", r)
	}
	if r := ends(g, a, 1); len(r) != 2 || r[d] {
		t.Errorf("reachable from a in one step = %v", r)
	}
	// Cycle: a simple path never returns to its start.
	cy := New()
	x := cy.AddVertex("x")
	y := cy.AddVertex("y")
	cy.MustAddEdge(x, y, "e")
	cy.MustAddEdge(y, x, "e")
	if r := ends(cy, x, 4); len(r) != 1 || !r[y] {
		t.Errorf("reachable on a cycle = %v", r)
	}
}

func TestPathOperations(t *testing.T) {
	g, vs := diamond(t)
	a, b, d := vs[0], vs[1], vs[3]
	p := SingleVertexPath(a)
	if p.Len() != 0 || p.Start() != a || p.End() != a {
		t.Fatal("single-vertex path wrong")
	}
	p2 := p.Extend(Edge{To: b, Label: "ab"}).Extend(Edge{To: d, Label: "bd"})
	if p2.Len() != 2 || p2.End() != d {
		t.Fatalf("extended path wrong: %+v", p2)
	}
	if p2.LabelString() != "ab bd" {
		t.Errorf("LabelString = %q", p2.LabelString())
	}
	if !p2.ValidIn(g) {
		t.Error("real path reported invalid")
	}
	bogus := Path{Vertices: []VID{a, d}, EdgeLabels: []string{"ad"}}
	if bogus.ValidIn(g) {
		t.Error("fake path reported valid")
	}
	if !p2.IsSimple() || !p2.Contains(b) || p2.Contains(vs[4]) {
		t.Error("simple/contains wrong")
	}
	pre := p2.Prefix(1)
	if pre.Len() != 1 || pre.End() != b {
		t.Errorf("Prefix(1) = %+v", pre)
	}
	if p2.Prefix(10).Len() != 2 {
		t.Error("over-long prefix should return whole path")
	}
	// Extend must not alias the original backing arrays.
	p3 := p.Extend(Edge{To: b, Label: "x"})
	p4 := p.Extend(Edge{To: d, Label: "y"})
	if p3.End() == p4.End() {
		t.Error("Extend aliasing detected")
	}
}

func TestSimplePathsEnumeration(t *testing.T) {
	g, vs := diamond(t)
	a := vs[0]
	var got []string
	g.SimplePaths(a, 3, func(p Path) bool {
		got = append(got, p.LabelString())
		return true
	})
	// Paths from a: ab, ab bd, ac, ac cd — all simple, length ≤ 3.
	if len(got) != 4 {
		t.Fatalf("SimplePaths found %d paths: %v", len(got), got)
	}
	// Early stop.
	count := 0
	g.SimplePaths(a, 3, func(p Path) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop did not work: %d", count)
	}
	// Cycles are not revisited.
	c := New()
	x := c.AddVertex("x")
	y := c.AddVertex("y")
	c.MustAddEdge(x, y, "e1")
	c.MustAddEdge(y, x, "e2")
	n := 0
	c.SimplePaths(x, 10, func(p Path) bool {
		if !p.IsSimple() {
			t.Errorf("non-simple path produced: %+v", p)
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("cycle graph should yield 1 simple path, got %d", n)
	}
}

func TestPartitionEdgeCut(t *testing.T) {
	g, _ := diamond(t)
	for _, n := range []int{1, 2, 3, 5, 8} {
		p, err := PartitionEdgeCut(g, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Fragments) != n {
			t.Fatalf("fragments = %d, want %d", len(p.Fragments), n)
		}
		// Every vertex owned exactly once.
		owned := make(map[VID]int)
		for _, f := range p.Fragments {
			for _, v := range f.Owned {
				owned[v]++
				if p.Of[v] != f.ID {
					t.Errorf("Of[%d] = %d, fragment says %d", v, p.Of[v], f.ID)
				}
			}
		}
		if len(owned) != g.NumVertices() {
			t.Errorf("n=%d: owned %d vertices, want %d", n, len(owned), g.NumVertices())
		}
		for v, c := range owned {
			if c != 1 {
				t.Errorf("vertex %d owned %d times", v, c)
			}
		}
	}
	if _, err := PartitionEdgeCut(g, 0); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestPartitionSingleFragmentNoCut(t *testing.T) {
	g, _ := diamond(t)
	p, err := PartitionEdgeCut(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c := crossEdges(g, p); c != 0 {
		t.Errorf("single fragment has %d cross edges", c)
	}
}

func TestPartitionProperty(t *testing.T) {
	// For any small random graph and any n, ownership is a partition.
	prop := func(nv uint8, edges []uint16, nFrag uint8) bool {
		n := int(nv%20) + 1
		g := New()
		for i := 0; i < n; i++ {
			g.AddVertex("v")
		}
		for _, e := range edges {
			from := VID(int(e>>8) % n)
			to := VID(int(e&0xff) % n)
			g.MustAddEdge(from, to, "e")
		}
		k := int(nFrag%6) + 1
		p, err := PartitionEdgeCut(g, k)
		if err != nil {
			return false
		}
		total := 0
		for _, f := range p.Fragments {
			total += len(f.Owned)
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestClone: the copy shares no memory with the original — growth on
// either side (vertices, edges, and the labels they carry) never reaches
// the other. Serving
// engines rely on this to snapshot a live graph and read the snapshot
// without locks.
func TestClone(t *testing.T) {
	g := New()
	a := g.AddVertex("a")
	b := g.AddVertex("b")
	g.MustAddEdge(a, b, "e")
	c := g.Clone()

	// Mutate the original heavily.
	x := g.AddVertex("x")
	g.MustAddEdge(a, x, "e2")
	g.MustAddEdge(b, a, "back")

	if c.NumVertices() != 2 || c.NumEdges() != 1 {
		t.Fatalf("clone grew with the original: |V|=%d |E|=%d, want 2, 1", c.NumVertices(), c.NumEdges())
	}
	if c.Label(a) != "a" {
		t.Fatalf("clone label = %q, want %q", c.Label(a), "a")
	}
	if len(c.Out(a)) != 1 || c.Out(a)[0] != (Edge{To: b, Label: "e"}) {
		t.Fatalf("clone out-edges of a = %v", c.Out(a))
	}
	if len(c.In(a)) != 0 {
		t.Fatalf("clone in-edges of a = %v, want none", c.In(a))
	}

	// Mutate the clone; the original must not see it. Both graphs now
	// label their vertex 2: a shared label array would give one of them
	// the other's label.
	c.MustAddEdge(b, a, "clone-only")
	y := c.AddVertex("y")
	if y != x || g.Label(x) != "x" || c.Label(y) != "y" {
		t.Fatalf("vertex %d labelled %q in the original, %q in the clone; want x, y", x, g.Label(x), c.Label(y))
	}
	if len(g.Out(b)) != 1 { // only the "back" edge added above
		t.Fatalf("original out-edges of b = %v", g.Out(b))
	}
}

// ValidIn checks that p is an actual path of g: every consecutive pair is
// joined by an edge bearing the recorded label.
func (p Path) ValidIn(g *Graph) bool {
	if len(p.Vertices) == 0 || len(p.EdgeLabels) != len(p.Vertices)-1 {
		return false
	}
	for i := 0; i+1 < len(p.Vertices); i++ {
		found := false
		for _, e := range g.Out(p.Vertices[i]) {
			if e.To == p.Vertices[i+1] && e.Label == p.EdgeLabels[i] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestReverseRegion pins the backward BFS the incremental paths scope
// invalidation with, on a chain 0→1→2→3, the diamond (a→b, a→c, b→d,
// c→d, leaf e) and a cycle 0→1→2→0, each from its last vertex, at 0
// hops, 1 hop and full closure (-1).
func TestReverseRegion(t *testing.T) {
	chain := New()
	for i := 0; i < 4; i++ {
		chain.AddVertex("v")
	}
	for i := 0; i < 3; i++ {
		chain.MustAddEdge(VID(i), VID(i+1), "e")
	}
	dia, _ := diamond(t)
	cycle := New()
	for i := 0; i < 3; i++ {
		cycle.AddVertex("v")
	}
	for i := 0; i < 3; i++ {
		cycle.MustAddEdge(VID(i), VID((i+1)%3), "e")
	}
	cases := []struct {
		name string
		g    *Graph
		v    VID
		hops int
		want []VID
	}{
		{"chain/0", chain, 3, 0, []VID{3}},
		{"chain/1", chain, 3, 1, []VID{2, 3}},
		{"chain/-1", chain, 3, -1, []VID{0, 1, 2, 3}},
		{"diamond/0", dia, 3, 0, []VID{3}},
		{"diamond/1", dia, 3, 1, []VID{1, 2, 3}},
		{"diamond/-1", dia, 3, -1, []VID{0, 1, 2, 3}},
		{"cycle/0", cycle, 2, 0, []VID{2}},
		{"cycle/1", cycle, 2, 1, []VID{1, 2}},
		{"cycle/-1", cycle, 2, -1, []VID{0, 1, 2}},
	}
	for _, c := range cases {
		got := c.g.ReverseRegion(c.v, c.hops)
		if len(got) != len(c.want) {
			t.Errorf("%s: region %v, want %v", c.name, got, c.want)
			continue
		}
		for _, v := range c.want {
			if !got[v] {
				t.Errorf("%s: region %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}
