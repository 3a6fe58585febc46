package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition-order graph and
// reports any cycle in it as a potential deadlock. An edge A → B is
// recorded whenever a lock of class B is acquired — directly, or
// transitively through a callee's summarized Acquires — at a program
// point where a lock of class A is already held. Two goroutines taking
// the same pair of classes in opposite orders can deadlock, so the
// graph must stay acyclic; the accepted hierarchy is documented in
// DESIGN.md §12 and this analyzer enforces its acyclicity.
//
// Classes conflate instances ("her/internal/shard.Engine.mu" names
// every Engine's mu): lock ordering is a class-level property, and the
// conflation errs toward reporting. Locks the alias pass cannot name
// globally (locals, unexported temporaries) have no class and produce
// no edges; closure bodies are excluded because they may run on another
// goroutine, where the enclosing lockset does not apply.
//
// A call through a function-valued struct field is not followed and
// produces no edge. That is how internal/shard reaches her.System —
// Engine.advance and Engine.compute call Config.Generation, Deltas,
// Source and Overrides with Engine.mu held — so the graph has no edge
// between shard.Engine.mu and her.System.mu, and that part of the
// hierarchy (Engine.mu → System.mu → DeltaLog.mu, DESIGN.md §12) is
// kept by review, not by this analyzer.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the global lock-acquisition-order graph must be acyclic (cycles are potential deadlocks)",
	Run:  runLockOrder,
}

// lockOrderEdge is one witnessed acquisition ordering: while a lock of
// class from was held, a lock of class to was acquired at pos.
type lockOrderEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
	note     string // "" for a direct Lock, or "during call to f"
}

// lockOrderFinding is one cycle, anchored at its first witness edge.
type lockOrderFinding struct {
	pkg   *Package
	pos   token.Pos
	cycle []string // class sequence, first repeated last
	wits  []*lockOrderEdge
}

type lockOrderGraph struct {
	edges    map[[2]string]*lockOrderEdge // first witness wins
	findings []lockOrderFinding
}

func runLockOrder(p *Pass) {
	if p.Prog == nil {
		return
	}
	g := p.Prog.lockOrder()
	for _, f := range g.findings {
		if f.pkg != p.Pkg {
			continue // another pass owns the anchor position
		}
		var wits []string
		for _, w := range f.wits {
			pos := p.Fset.Position(w.pos)
			s := w.from + "→" + w.to + " at " + filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
			if w.note != "" {
				s += " " + w.note
			}
			wits = append(wits, s)
		}
		p.Reportf(f.pos, "potential deadlock: lock-order cycle %s (%s)",
			strings.Join(f.cycle, " → "), strings.Join(wits, "; "))
	}
}

// lockOrder builds (once) the global acquisition-order graph and its
// cycle findings.
func (prog *Program) lockOrder() *lockOrderGraph {
	prog.lockOnce.Do(func() {
		g := &lockOrderGraph{edges: make(map[[2]string]*lockOrderEdge)}
		for _, node := range prog.Nodes {
			prog.lockOrderFunc(node, g)
		}
		g.findCycles()
		prog.lockGraph = g
	})
	return prog.lockGraph
}

// addEdge records an ordering witness; the first witness in program
// order (Nodes is position-sorted, bodies walked in source order) wins.
func (g *lockOrderGraph) addEdge(from, to string, pkg *Package, pos token.Pos, note string) {
	if from == to {
		// Same-class self edge: two instances of one class, or a
		// re-entrant bug lockguard would catch. Instance conflation
		// makes this too noisy to act on for ordering purposes.
		return
	}
	key := [2]string{from, to}
	if _, ok := g.edges[key]; !ok {
		g.edges[key] = &lockOrderEdge{from: from, to: to, pkg: pkg, pos: pos, note: note}
	}
}

// lockOrderFunc walks one function with a held-class dataflow over its
// CFG, recording ordering edges at every acquisition point.
func (prog *Program) lockOrderFunc(node *FuncNode, g *lockOrderGraph) {
	info := node.Pkg.Info
	aliases := prog.fileAliasesFor(node)

	heldClasses := func(st map[string]string) []string {
		out := make([]string, 0, len(st))
		seen := make(map[string]bool, len(st))
		for _, c := range st {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		sort.Strings(out)
		return out
	}

	step := func(n ast.Node, st map[string]string) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false // may run on another goroutine
			case *ast.DeferStmt:
				// Deferred unlocks release at return; the lock stays
				// held through the remainder, which is exactly what the
				// ordering analysis should assume. Nothing to do.
				return false
			case *ast.CallExpr:
				if path, op, ok := mutexOpCall(info, aliases, x); ok {
					class := mutexClass(info, x)
					switch op {
					case "Lock", "RLock":
						if class != "" {
							for _, h := range heldClasses(st) {
								g.addEdge(h, class, node.Pkg, x.Pos(), "")
							}
							st[path] = class
						}
					case "Unlock", "RUnlock":
						delete(st, path)
					}
					return false
				}
				fn := calleeFunc(info, x)
				if fn == nil {
					return true
				}
				cs := prog.summaries[fn]
				if cs == nil {
					return true
				}
				if len(st) > 0 {
					acquired := make([]string, 0, len(cs.Acquires))
					for c := range cs.Acquires {
						acquired = append(acquired, c)
					}
					sort.Strings(acquired)
					held := heldClasses(st)
					for _, c := range acquired {
						for _, h := range held {
							g.addEdge(h, c, node.Pkg, x.Pos(), "during call to "+fn.Name())
						}
					}
				}
				// Callee exit effects shift the held set going forward.
				for _, ref := range sortedKeysU8(cs.ExitLocks) {
					class := cs.ExitLockClass[ref]
					if class == "" {
						continue
					}
					if p := mapLockRef(info, aliases, x, ref); p != "" {
						st[p] = class
					}
				}
				for _, ref := range sortedKeysB(cs.ExitUnlocks) {
					if p := mapLockRef(info, aliases, x, ref); p != "" {
						delete(st, p)
					}
				}
			}
			return true
		})
	}

	cfg := buildCFG(node.Decl.Body)
	in := map[*cfgBlock]map[string]string{cfg.entry: {}}
	work := []*cfgBlock{cfg.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		st := make(map[string]string, len(in[blk]))
		for k, v := range in[blk] {
			st[k] = v
		}
		for _, n := range blk.nodes {
			step(n, st)
		}
		for _, succ := range blk.succs {
			if mergeHeldClasses(in, succ, st) {
				work = append(work, succ)
			}
		}
	}
}

// mergeHeldClasses unions the incoming held set into the block's
// in-state. Union (not intersection) is deliberate: for ordering, a
// lock held on any incoming path can front an inversion, so the
// analysis over-approximates the held set.
func mergeHeldClasses(in map[*cfgBlock]map[string]string, blk *cfgBlock, st map[string]string) bool {
	old, ok := in[blk]
	if !ok {
		cp := make(map[string]string, len(st))
		for k, v := range st {
			cp[k] = v
		}
		in[blk] = cp
		return true
	}
	changed := false
	for k, v := range st {
		if _, ok := old[k]; !ok {
			old[k] = v
			changed = true
		}
	}
	return changed
}

// findCycles condenses the class graph and reports every SCC with more
// than one class as a cycle, reconstructing a concrete witness path.
func (g *lockOrderGraph) findCycles() {
	succs := make(map[string][]string)
	classes := make(map[string]bool)
	for key := range g.edges {
		classes[key[0]] = true
		classes[key[1]] = true
		succs[key[0]] = append(succs[key[0]], key[1])
	}
	for _, s := range succs {
		sort.Strings(s)
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)

	sccOf := condenseClasses(names, succs)
	members := make(map[int][]string)
	for _, c := range names {
		members[sccOf[c]] = append(members[sccOf[c]], c)
	}
	ids := make([]int, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		m := members[id]
		if len(m) < 2 {
			continue
		}
		sort.Strings(m)
		cycle := shortestCycle(m[0], succs, sccOf, id)
		var wits []*lockOrderEdge
		for i := 0; i+1 < len(cycle); i++ {
			wits = append(wits, g.edges[[2]string{cycle[i], cycle[i+1]}])
		}
		g.findings = append(g.findings, lockOrderFinding{
			pkg:   wits[0].pkg,
			pos:   wits[0].pos,
			cycle: cycle,
			wits:  wits,
		})
	}
}

// condenseClasses is Tarjan over the class graph (small; recursion fine).
func condenseClasses(names []string, succs map[string][]string) map[string]int {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	sccOf := make(map[string]int)
	var stack []string
	next, nscc := 0, 0
	var dfs func(c string)
	dfs = func(c string) {
		index[c] = next
		low[c] = next
		next++
		stack = append(stack, c)
		onStack[c] = true
		for _, d := range succs[c] {
			if _, seen := index[d]; !seen {
				dfs(d)
				if low[d] < low[c] {
					low[c] = low[d]
				}
			} else if onStack[d] && index[d] < low[c] {
				low[c] = index[d]
			}
		}
		if low[c] == index[c] {
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				sccOf[top] = nscc
				if top == c {
					break
				}
			}
			nscc++
		}
	}
	for _, c := range names {
		if _, seen := index[c]; !seen {
			dfs(c)
		}
	}
	return sccOf
}

// shortestCycle BFSes from start back to itself inside its SCC and
// returns the class sequence with start repeated at the end.
func shortestCycle(start string, succs map[string][]string, sccOf map[string]int, scc int) []string {
	prev := map[string]string{}
	queue := []string{start}
	visited := map[string]bool{}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, d := range succs[c] {
			if sccOf[d] != scc {
				continue
			}
			if d == start {
				var rev []string // c back to the node after start
				for at := c; at != start; at = prev[at] {
					rev = append(rev, at)
				}
				path := []string{start}
				for i := len(rev) - 1; i >= 0; i-- {
					path = append(path, rev[i])
				}
				return append(path, start)
			}
			if !visited[d] {
				visited[d] = true
				prev[d] = c
				queue = append(queue, d)
			}
		}
	}
	return []string{start, start} // self-loop fallback (not expected: self edges skipped)
}

func sortedKeysU8(m map[string]uint8) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysB(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
