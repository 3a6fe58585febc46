package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// summaries.go computes the per-function summaries the interprocedural
// analyzers consume, bottom-up over the call graph's SCCs (mutual
// recursion iterates to a fixpoint — every summary domain here is a
// finite join-semilattice that only grows, so iteration terminates).
//
// A summary abstracts a function's externally visible effects:
//
//   - ExitLocks: mutexes acquired inside and still held on every return
//     path (the `lockAll` helper pattern), keyed by a caller-mappable
//     lock reference;
//   - ExitUnlocks: mutexes held by the caller that the function releases
//     on every return path (the `unlockAll` helper pattern);
//   - Acquires: the global lock *classes* transitively acquired anywhere
//     inside (any path), feeding the lock-order graph;
//   - CallsBackground: the function (which itself receives no
//     context.Context) creates context.Background()/TODO() directly or
//     through ctx-less callees — calling it from a request path severs
//     cancellation.
//
// Lock references are strings mappable at a call site:
//
//	"r.<suffix>"   — rooted at the receiver ("r.mu", "r.inner.mu")
//	"p<i>.<suffix>" — rooted at parameter i
//	"g:<path>"     — a package-level variable's canonical alias path,
//	                 identical in every function (object-identity based)
//
// Lock classes are global names for ordering: "pkg.Type.field" for a
// struct-field mutex, "pkg.var" for a package-level one. Two instances
// of the same class are deliberately conflated — lock-order cycles are
// a class-level property.

// FuncSummary is the interprocedural abstract of one function.
type FuncSummary struct {
	ExitLocks       map[string]uint8  // lock ref → mode held at exit on all paths
	ExitLockClass   map[string]string // lock ref → global ordering class ("" unknown)
	ExitUnlocks     map[string]bool   // lock ref → released on all paths
	Acquires        map[string]bool   // lock classes transitively acquired inside
	CallsBackground bool
}

func newFuncSummary() *FuncSummary {
	return &FuncSummary{
		ExitLocks:     make(map[string]uint8),
		ExitLockClass: make(map[string]string),
		ExitUnlocks:   make(map[string]bool),
		Acquires:      make(map[string]bool),
	}
}

func (s *FuncSummary) equal(o *FuncSummary) bool {
	if len(s.ExitLocks) != len(o.ExitLocks) || len(s.ExitUnlocks) != len(o.ExitUnlocks) ||
		len(s.Acquires) != len(o.Acquires) || s.CallsBackground != o.CallsBackground {
		return false
	}
	for k, v := range s.ExitLocks {
		if o.ExitLocks[k] != v {
			return false
		}
	}
	for k, v := range s.ExitLockClass {
		if o.ExitLockClass[k] != v {
			return false
		}
	}
	if len(s.ExitLockClass) != len(o.ExitLockClass) {
		return false
	}
	for k := range s.ExitUnlocks {
		if !o.ExitUnlocks[k] {
			return false
		}
	}
	for k := range s.Acquires {
		if !o.Acquires[k] {
			return false
		}
	}
	return true
}

// buildSummaries fills prog.summaries bottom-up over the SCCs.
func (prog *Program) buildSummaries() {
	prog.aliases = make(map[*ast.File]*fileAliases)
	prog.summaries = make(map[*types.Func]*FuncSummary)
	for _, node := range prog.Nodes {
		prog.summaries[node.Fn] = newFuncSummary()
	}
	for _, scc := range prog.SCCs {
		// Within an SCC, iterate to a fixpoint; a singleton without a
		// self-edge converges in one pass.
		for changed := true; changed; {
			changed = false
			for _, node := range scc {
				fresh := prog.computeSummary(node)
				if !fresh.equal(prog.summaries[node.Fn]) {
					prog.summaries[node.Fn] = fresh
					changed = true
				}
			}
		}
	}
}

// fileAliasesFor returns the (memoized) alias pass of the file. Only
// called during BuildProgram and from Once-guarded caches afterwards,
// so the map needs no lock.
func (prog *Program) fileAliasesFor(node *FuncNode) *fileAliases {
	a := prog.aliases[node.File]
	if a == nil {
		a = newFileAliases(node.Pkg.Info, node.File)
		prog.aliases[node.File] = a
	}
	return a
}

// computeSummary derives one function's summary from its body and the
// current summaries of its callees.
func (prog *Program) computeSummary(node *FuncNode) *FuncSummary {
	info := node.Pkg.Info
	sig := node.Fn.Type().(*types.Signature)
	sum := newFuncSummary()
	aliases := prog.fileAliasesFor(node)

	paramIdx := make(map[types.Object]int)
	for i := 0; i < sig.Params().Len(); i++ {
		if v := sig.Params().At(i); v.Name() != "" && v.Name() != "_" {
			paramIdx[v] = i
		}
	}

	// Pass 1: flat facts — Background calls, transitive acquires.
	hasCtx := funcHasCtxParam(sig)
	var inspect func(n ast.Node, inLit bool)
	inspect = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				inspect(x.Body, true)
				return false
			case *ast.CallExpr:
				prog.summarizeCall(node, sum, info, aliases, x, inLit, hasCtx)
			}
			return true
		})
	}
	inspect(node.Decl.Body, false)

	// Pass 2: exit-state lock effects via the CFG lockset dataflow.
	prog.lockExitEffects(node, sum, aliases, paramIdx)
	return sum
}

// summarizeCall folds one call's contribution into the summary.
func (prog *Program) summarizeCall(node *FuncNode, sum *FuncSummary, info *types.Info, aliases *fileAliases, call *ast.CallExpr, inLit, hasCtx bool) {
	// Direct mutex acquisition: record the class. Closure bodies are
	// excluded from Acquires — a func literal may run on another
	// goroutine or not at all, so attributing its locks to the
	// enclosing function would fabricate ordering edges.
	if _, op, ok := mutexOpCall(info, aliases, call); ok {
		if !inLit && (op == "Lock" || op == "RLock") {
			if class := mutexClass(info, call); class != "" {
				sum.Acquires[class] = true
			}
		}
		return
	}
	if isBackgroundCall(info, call) {
		// A request-path package is flagged at the definition site by
		// ctxflow rule 2, and a ctx-receiving function by rule 1; the
		// summary bit covers the remaining case — a ctx-less helper —
		// so callers can be warned at their call sites.
		if !hasCtx && !isRequestPathPkg(node.Pkg.Types.Path()) {
			sum.CallsBackground = true
		}
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	callee := prog.summaries[fn]
	if callee == nil {
		return
	}
	if !inLit {
		for class := range callee.Acquires {
			sum.Acquires[class] = true
		}
	}
	calleeSig, _ := fn.Type().(*types.Signature)
	if callee.CallsBackground && calleeSig != nil && !funcHasCtxParam(calleeSig) && !hasCtx &&
		!isRequestPathPkg(node.Pkg.Types.Path()) {
		sum.CallsBackground = true
	}
}

// isBackgroundCall matches context.Background() / context.TODO().
func isBackgroundCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}

// funcHasCtxParam reports whether the signature takes a context.Context.
func funcHasCtxParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// mutexOpCall recognizes mu.Lock/Unlock/RLock/RUnlock on a resolvable
// mutex path. Shared by lockguard, the summary pass, and lockorder.
func mutexOpCall(info *types.Info, aliases *fileAliases, call *ast.CallExpr) (path, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	tv, okT := info.Types[sel.X]
	if !okT || tv.Type == nil || !isMutexType(tv.Type) {
		return "", "", false
	}
	p := aliases.exprPath(sel.X)
	if p == "" {
		return "", "", false
	}
	return p, sel.Sel.Name, true
}

// mutexClass names the global ordering class of the mutex in a
// Lock/Unlock call: "pkg.Type.field" when the mutex is a struct field,
// "pkg.var" when it is a package-level variable, "" otherwise (locals
// have no global identity).
func mutexClass(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return mutexExprClass(info, sel.X)
}

func mutexExprClass(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		s, ok := info.Selections[e]
		if !ok || s.Kind() != types.FieldVal {
			return ""
		}
		recv := s.Recv()
		for {
			if ptr, okP := recv.(*types.Pointer); okP {
				recv = ptr.Elem()
				continue
			}
			break
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return ""
		}
		obj := named.Obj()
		pkgPath := ""
		if obj.Pkg() != nil {
			pkgPath = obj.Pkg().Path()
		}
		return pkgPath + "." + obj.Name() + "." + e.Sel.Name
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return ""
	case *ast.StarExpr:
		return mutexExprClass(info, e.X)
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			return mutexExprClass(info, e.X)
		}
	}
	return ""
}

// lockExitEffects runs the lockset dataflow over the function's CFG and
// exports the exit-state lock effects in caller-mappable form.
func (prog *Program) lockExitEffects(node *FuncNode, sum *FuncSummary, aliases *fileAliases, paramIdx map[types.Object]int) {
	info := node.Pkg.Info
	fd := node.Decl

	// Root paths the exported refs are expressed against.
	roots := make(map[string]string) // alias path prefix → "r" / "p<i>"
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		if obj := info.Defs[fd.Recv.List[0].Names[0]]; obj != nil {
			roots[objRoot(obj)] = "r"
		}
	}
	for obj, i := range paramIdx {
		roots[objRoot(obj)] = "p" + strconv.Itoa(i)
	}

	cfg := buildCFG(fd.Body)
	deferredRelease := make(map[string]bool)
	globals := make(map[string]bool)   // alias paths rooted at package-level vars
	classOf := make(map[string]string) // alias path → global ordering class

	noteGlobal := func(call *ast.CallExpr, path string) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if obj := aliases.rootObj(sel.X); obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			globals[path] = true
		}
	}

	step := func(n ast.Node, f *lockFlow) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				// A deferred unlock (direct or via an unlock helper)
				// releases at return: subtract it from the export.
				if path, op, ok := mutexOpCall(info, aliases, x.Call); ok {
					if op == "Unlock" || op == "RUnlock" {
						deferredRelease[path] = true
					}
					return false
				}
				if fn := calleeFunc(info, x.Call); fn != nil {
					if cs := prog.summaries[fn]; cs != nil {
						for ref := range cs.ExitUnlocks {
							if p := mapLockRef(info, aliases, x.Call, ref); p != "" {
								deferredRelease[p] = true
							}
						}
					}
				}
				return false
			case *ast.CallExpr:
				if path, op, ok := mutexOpCall(info, aliases, x); ok {
					noteGlobal(x, path)
					if class := mutexClass(info, x); class != "" {
						classOf[path] = class
					}
					if (op == "Unlock" || op == "RUnlock") && f.held[path] == 0 {
						f.released[path] = true
					}
					applyLockOp(f.held, path, op)
					return false
				}
				if fn := calleeFunc(info, x); fn != nil {
					if cs := prog.summaries[fn]; cs != nil {
						applyCalleeLockEffects(f.held, info, aliases, x, cs)
						for ref, class := range cs.ExitLockClass {
							if p := mapLockRef(info, aliases, x, ref); p != "" && class != "" {
								classOf[p] = class
							}
						}
					}
				}
			}
			return true
		})
	}

	in := map[*cfgBlock]lockFlow{cfg.entry: {held: lockset{}, released: map[string]bool{}}}
	work := []*cfgBlock{cfg.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		f := in[blk].clone()
		for _, n := range blk.nodes {
			step(n, &f)
		}
		for _, succ := range blk.succs {
			if mergeLockFlow(in, succ, f) {
				work = append(work, succ)
			}
		}
	}
	exit, ok := in[cfg.exit]
	if !ok {
		return // no path reaches the exit (infinite loop)
	}
	export := func(path string) (string, bool) {
		for prefix, tag := range roots {
			if path == prefix {
				return tag, true
			}
			if strings.HasPrefix(path, prefix+".") {
				return tag + path[len(prefix):], true
			}
		}
		root := path
		if i := strings.IndexByte(path, '.'); i >= 0 {
			root = path[:i]
		}
		if globals[path] || globals[root] {
			return "g:" + path, true
		}
		return "", false
	}
	for path, bits := range exit.held {
		if deferredRelease[path] {
			continue
		}
		if ref, ok := export(path); ok {
			sum.ExitLocks[ref] = bits
			if class := classOf[path]; class != "" {
				sum.ExitLockClass[ref] = class
			}
		}
	}
	for path := range exit.released {
		if ref, ok := export(path); ok {
			sum.ExitUnlocks[ref] = true
		}
	}
}

// lockFlow is the dataflow state of the exit-effect pass: the locks
// held and the entry-held locks already released, per program point.
type lockFlow struct {
	held     lockset
	released map[string]bool
}

func (f lockFlow) clone() lockFlow {
	out := lockFlow{held: f.held.clone(), released: make(map[string]bool, len(f.released))}
	for k := range f.released {
		out.released[k] = true
	}
	return out
}

// mergeLockFlow intersects the incoming flow into the block's in-state
// (held and released both require every path) and reports change.
func mergeLockFlow(in map[*cfgBlock]lockFlow, blk *cfgBlock, f lockFlow) bool {
	old, ok := in[blk]
	if !ok {
		in[blk] = f
		return true
	}
	changed := false
	for k, v := range old.held {
		nv := v & f.held[k]
		if nv != v {
			changed = true
			if nv == 0 {
				delete(old.held, k)
			} else {
				old.held[k] = nv
			}
		}
	}
	for k := range old.released {
		if !f.released[k] {
			delete(old.released, k)
			changed = true
		}
	}
	return changed
}

// mapLockRef maps a callee's exported lock reference to the caller's
// alias path at this call site, or "" when unmappable.
func mapLockRef(info *types.Info, aliases *fileAliases, call *ast.CallExpr, ref string) string {
	if rest, ok := strings.CutPrefix(ref, "g:"); ok {
		return rest
	}
	root, suffix := ref, ""
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		root, suffix = ref[:i], ref[i:]
	}
	var base ast.Expr
	switch {
	case root == "r":
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		base = sel.X
	case strings.HasPrefix(root, "p"):
		i, err := strconv.Atoi(root[1:])
		if err != nil || i >= len(call.Args) || call.Ellipsis.IsValid() {
			return ""
		}
		base = call.Args[i]
	default:
		return ""
	}
	basePath := aliases.exprPath(base)
	if basePath == "" {
		return ""
	}
	return basePath + suffix
}

// applyCalleeLockEffects mutates the caller's lockset with the callee's
// summarized exit effects (the interprocedural half of lockguard: a
// helper that takes or releases the mutex for you).
func applyCalleeLockEffects(st lockset, info *types.Info, aliases *fileAliases, call *ast.CallExpr, cs *FuncSummary) {
	for ref, bits := range cs.ExitLocks {
		if p := mapLockRef(info, aliases, call, ref); p != "" {
			st[p] |= bits
		}
	}
	for ref := range cs.ExitUnlocks {
		if p := mapLockRef(info, aliases, call, ref); p != "" {
			delete(st, p)
		}
	}
}
