package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"sync"
)

// callgraph.go lifts the per-function analyses to a whole-module view: a
// type-resolved call graph over every loaded package, with static call
// edges resolved through go/types and interface method calls
// devirtualized to their concrete implementations when the
// implementation set is small (≤ devirtLimit). The graph is condensed
// into strongly connected components and ordered bottom-up (callees
// before callers), which is the evaluation order the summary pass
// (summaries.go) needs: a function's summary is computed from its
// callees' finished summaries, with a fixpoint iteration inside each
// SCC for mutual recursion.
//
// The graph is deliberately partial in the lenient direction: calls
// through function-typed values, fields, and interface methods with
// more than devirtLimit implementations produce no edges, so the
// interprocedural analyzers under-approximate rather than guess.

// devirtLimit bounds interface devirtualization: a method call through
// an interface with at most this many implementing types in the loaded
// program fans out to each implementation; beyond it the call is
// treated as opaque.
const devirtLimit = 8

// FuncNode is one function or method with a body in the loaded program.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	File *ast.File  // the file holding Decl (for alias-pass scoping)
	Out  []CallSite // outgoing edges, in source order

	scc int // SCC index, filled by condense
}

// CallSite is one resolved call edge.
type CallSite struct {
	Callee *FuncNode
	Call   *ast.CallExpr
	Iface  bool // resolved by devirtualizing an interface method call
}

// Program is the whole-module view shared by every Pass of one Run: the
// call graph, its bottom-up SCC order, and the per-function summaries.
// It is immutable after BuildProgram returns; the lazily derived
// lock-order graph is built once under its sync.Once and only read
// afterwards, so concurrent passes are safe.
type Program struct {
	Pkgs  []*Package
	Funcs map[*types.Func]*FuncNode
	Nodes []*FuncNode   // deterministic order: by declaration position
	SCCs  [][]*FuncNode // bottom-up: callees before callers

	summaries map[*types.Func]*FuncSummary
	aliases   map[*ast.File]*fileAliases // memoized alias passes, filled during build

	lockOnce  sync.Once
	lockGraph *lockOrderGraph
}

// BuildProgram constructs the call graph and summaries over the loaded
// packages.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		Funcs: make(map[*types.Func]*FuncNode),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg, File: f}
				prog.Funcs[fn] = node
				prog.Nodes = append(prog.Nodes, node)
			}
		}
	}
	sort.Slice(prog.Nodes, func(i, j int) bool {
		return prog.Nodes[i].Decl.Pos() < prog.Nodes[j].Decl.Pos()
	})
	impls := newImplCache(pkgs)
	for _, node := range prog.Nodes {
		prog.resolveCalls(node, impls)
	}
	prog.condense()
	prog.buildSummaries()
	return prog
}

// resolveCalls walks one declaration body and records every call edge it
// can resolve. The operand of a go or defer statement is an edge, but of
// that call only the arguments are walked: the body of a func literal it
// runs is not part of the declaration's call sequence.
func (prog *Program) resolveCalls(node *FuncNode, impls *implCache) {
	info := node.Pkg.Info
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		var call *ast.CallExpr
		switch x := n.(type) {
		case *ast.GoStmt:
			call = x.Call
		case *ast.DeferStmt:
			call = x.Call
		case *ast.CallExpr:
			prog.addCall(node, info, x, impls)
			return true
		default:
			return true
		}
		prog.addCall(node, info, call, impls)
		for _, arg := range call.Args {
			ast.Inspect(arg, visit)
		}
		return false
	}
	ast.Inspect(node.Decl.Body, visit)
}

// addCall resolves one call expression to zero or more edges.
func (prog *Program) addCall(node *FuncNode, info *types.Info, call *ast.CallExpr, impls *implCache) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		// Interface method call: fan out to the concrete implementations
		// when the set is small enough to enumerate.
		for _, impl := range impls.implementations(recv.Type(), fn.Name()) {
			if callee := prog.Funcs[impl]; callee != nil {
				node.Out = append(node.Out, CallSite{Callee: callee, Call: call, Iface: true})
			}
		}
		return
	}
	if callee := prog.Funcs[fn]; callee != nil {
		node.Out = append(node.Out, CallSite{Callee: callee, Call: call})
	}
}

// calleeFunc resolves the called function object of a call expression:
// a plain identifier or a selector naming a function or method. Calls
// through function-typed values resolve to nil (opaque).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// implCache enumerates, per (interface, method name), the concrete
// methods in the loaded program implementing it.
type implCache struct {
	named []*types.Named // every defined non-interface type, deterministic order
	memo  map[implKey][]*types.Func
	mu    sync.Mutex
}

type implKey struct {
	iface  types.Type
	method string
}

func newImplCache(pkgs []*Package) *implCache {
	c := &implCache{memo: make(map[implKey][]*types.Func)}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			c.named = append(c.named, named)
		}
	}
	return c
}

// implementations returns the concrete *types.Func implementations of
// the interface method, or nil when the implementation set exceeds
// devirtLimit (the call stays opaque).
func (c *implCache) implementations(ifaceType types.Type, method string) []*types.Func {
	iface, ok := ifaceType.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := implKey{iface: ifaceType, method: method}
	c.mu.Lock()
	defer c.mu.Unlock()
	if fns, ok := c.memo[key]; ok {
		return fns
	}
	var fns []*types.Func
	for _, named := range c.named {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			fns = append(fns, fn)
		}
		if len(fns) > devirtLimit {
			fns = nil
			break
		}
	}
	c.memo[key] = fns
	return fns
}

// condense computes strongly connected components with Tarjan's
// algorithm. Tarjan emits each SCC only after all SCCs it can reach, so
// the emission order is already bottom-up: callees before callers.
func (prog *Program) condense() {
	index := make(map[*FuncNode]int)
	low := make(map[*FuncNode]int)
	onStack := make(map[*FuncNode]bool)
	var stack []*FuncNode
	next := 0

	// Iterative Tarjan: the recursion depth over a large module could
	// otherwise exceed the goroutine stack on deep call chains.
	type frame struct {
		node *FuncNode
		edge int
	}
	var dfs func(root *FuncNode)
	dfs = func(root *FuncNode) {
		frames := []frame{{node: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.edge < len(f.node.Out) {
				callee := f.node.Out[f.edge].Callee
				f.edge++
				if _, seen := index[callee]; !seen {
					index[callee] = next
					low[callee] = next
					next++
					stack = append(stack, callee)
					onStack[callee] = true
					frames = append(frames, frame{node: callee})
				} else if onStack[callee] {
					if index[callee] < low[f.node] {
						low[f.node] = index[callee]
					}
				}
				continue
			}
			node := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[node] < low[parent] {
					low[parent] = low[node]
				}
			}
			if low[node] == index[node] {
				var scc []*FuncNode
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					top.scc = len(prog.SCCs)
					scc = append(scc, top)
					if top == node {
						break
					}
				}
				prog.SCCs = append(prog.SCCs, scc)
			}
		}
	}
	for _, node := range prog.Nodes {
		if _, seen := index[node]; !seen {
			dfs(node)
		}
	}
}

// Summary returns the interprocedural summary of fn, or nil when fn has
// no body in the loaded program.
func (prog *Program) Summary(fn *types.Func) *FuncSummary {
	if fn == nil {
		return nil
	}
	node := prog.Funcs[fn]
	if node == nil {
		return nil
	}
	return prog.summaries[fn]
}

// Node returns the call-graph node of fn, or nil.
func (prog *Program) Node(fn *types.Func) *FuncNode { return prog.Funcs[fn] }
