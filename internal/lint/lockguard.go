package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockGuard enforces the `// guarded by <mu>` field contract: a struct
// field carrying the annotation may only be read while its mutex is
// held (RLock suffices on an RWMutex) and only written while it is
// write-locked, on every control-flow path. The check is flow-sensitive
// per function: a per-function CFG (cfg.go) is walked to a lock-set
// fixpoint, with path intersection at joins, so a lock held on only one
// branch does not license the access after the join.
//
// Conventions understood by the analyzer:
//
//   - `defer mu.Unlock()` releases at return, so the lock counts as
//     held from the Lock to the end of the function;
//   - functions named *Locked (*RLocked) declare by contract that the
//     caller holds the receiver's mutexes (read-locked), and are
//     analyzed with that entry state;
//   - accesses through freshly constructed, not-yet-shared objects
//     (`s := &System{...}`) need no lock;
//   - accesses whose base the alias pass cannot resolve to a stable
//     path are skipped rather than reported (lenient by design);
//   - a static call to a function whose interprocedural summary says it
//     acquires a mutex on every return path (`lockAll`) adds that lock
//     to the caller's set, and one that releases on every path
//     (`unlockAll`) removes it — helper-mediated locking no longer
//     false-positives (summaries.go).
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated `guarded by <mu>` must be accessed with the mutex held on every path",
	Run:  runLockGuard,
}

const (
	lockR uint8 = 1 << iota
	lockW
)

// lockset maps canonical mutex paths to the held mode.
type lockset map[string]uint8

func (s lockset) clone() lockset {
	out := make(lockset, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// guardInfo is the parsed annotation of one guarded field.
type guardInfo struct {
	mutexName string
	rw        bool
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

func runLockGuard(p *Pass) {
	guarded := collectLockGuards(p)
	if len(guarded) == 0 {
		return
	}
	for _, f := range p.Pkg.Files {
		aliases := newFileAliases(p.Pkg.Info, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					lg := &lockguardFunc{p: p, aliases: aliases, guarded: guarded}
					lg.analyze(fn.Body, lg.entryState(fn))
				}
			case *ast.FuncLit:
				// Closures run on unknown goroutines: no inherited locks.
				lg := &lockguardFunc{p: p, aliases: aliases, guarded: guarded}
				lg.analyze(fn.Body, lockset{})
			}
			return true
		})
	}
}

// calleeLockSummary returns the summarized exit lock effects of the
// call's static callee, or nil.
func (lg *lockguardFunc) calleeLockSummary(call *ast.CallExpr) *FuncSummary {
	if lg.p.Prog == nil {
		return nil
	}
	fn := calleeFunc(lg.p.Pkg.Info, call)
	if fn == nil {
		return nil
	}
	cs := lg.p.Prog.Summary(fn)
	if cs == nil || (len(cs.ExitLocks) == 0 && len(cs.ExitUnlocks) == 0) {
		return nil
	}
	return cs
}

// collectLockGuards parses every `// guarded by <mu>` field annotation
// in the package, validating that <mu> names a sibling mutex field.
func collectLockGuards(p *Pass) map[*types.Var]*guardInfo {
	out := make(map[*types.Var]*guardInfo)
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				muName := guardAnnotation(fld)
				if muName == "" {
					continue
				}
				muField := siblingField(p, st, muName)
				if muField == nil || !isMutexType(muField.Type()) {
					p.Reportf(fld.Pos(), "guarded-by annotation names %q, which is not a sibling sync.Mutex/sync.RWMutex field", muName)
					continue
				}
				gi := &guardInfo{mutexName: muName, rw: isRWMutexType(muField.Type())}
				for _, name := range fld.Names {
					if v, ok := p.Pkg.Info.Defs[name].(*types.Var); ok {
						out[v] = gi
					}
				}
			}
			return true
		})
	}
	return out
}

// guardAnnotation extracts the mutex name from a field's doc or line
// comment, or "".
func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// siblingField resolves a field name within the same struct literal.
func siblingField(p *Pass, st *ast.StructType, name string) *types.Var {
	for _, fld := range st.Fields.List {
		for _, id := range fld.Names {
			if id.Name == name {
				v, _ := p.Pkg.Info.Defs[id].(*types.Var)
				return v
			}
		}
	}
	return nil
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return isSyncNamed(t, "Mutex") || isSyncNamed(t, "RWMutex")
}

func isRWMutexType(t types.Type) bool {
	return isSyncNamed(t, "RWMutex")
}

func isSyncNamed(t types.Type, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// lockguardFunc analyzes one function body.
type lockguardFunc struct {
	p       *Pass
	aliases *fileAliases
	guarded map[*types.Var]*guardInfo
	writes  map[ast.Expr]bool
}

// entryState seeds the lock set of a *Locked/*RLocked method: by
// convention the caller holds every mutex field of the receiver — and,
// one pointer hop out, of the owner structs the receiver points at (a
// hosted view has no lock of its own; it lives under its System's).
func (lg *lockguardFunc) entryState(fd *ast.FuncDecl) lockset {
	st := lockset{}
	name := fd.Name.Name
	var bits uint8
	switch {
	case strings.HasSuffix(name, "RLocked"):
		bits = lockR
	case strings.HasSuffix(name, "Locked"):
		bits = lockR | lockW
	default:
		return st
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return st
	}
	obj := lg.p.Pkg.Info.Defs[fd.Recv.List[0].Names[0]]
	if obj == nil {
		return st
	}
	seedMutexFields(st, objRoot(obj), obj.Type(), bits, true)
	return st
}

// seedMutexFields marks every mutex field of the struct behind t as
// held at path; with owners set it follows pointer-to-struct fields one
// hop and seeds theirs too.
func seedMutexFields(st lockset, path string, t types.Type, bits uint8, owners bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	strct, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < strct.NumFields(); i++ {
		f := strct.Field(i)
		if isMutexType(f.Type()) {
			st[path+"."+f.Name()] = bits
		} else if _, isPtr := f.Type().Underlying().(*types.Pointer); isPtr && owners {
			seedMutexFields(st, path+"."+f.Name(), f.Type(), bits, false)
		}
	}
}

func (lg *lockguardFunc) analyze(body *ast.BlockStmt, entry lockset) {
	cfg := buildCFG(body)
	lg.writes = make(map[ast.Expr]bool)
	for _, blk := range cfg.blocks {
		for _, n := range blk.nodes {
			collectWriteExprs(n, lg.writes)
		}
	}
	in := map[*cfgBlock]lockset{cfg.entry: entry}
	work := []*cfgBlock{cfg.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[blk].clone()
		for _, n := range blk.nodes {
			lg.walk(n, st, false, false)
		}
		for _, succ := range blk.succs {
			if mergeLocksets(in, succ, st) {
				work = append(work, succ)
			}
		}
	}
	for _, blk := range cfg.blocks {
		st, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		st = st.clone()
		for _, n := range blk.nodes {
			lg.walk(n, st, true, false)
		}
	}
}

// mergeLocksets intersects st into the successor's in-state (a lock is
// held at a join only when held on every incoming path) and reports
// whether the in-state changed.
func mergeLocksets(in map[*cfgBlock]lockset, blk *cfgBlock, st lockset) bool {
	old, ok := in[blk]
	if !ok {
		in[blk] = st.clone()
		return true
	}
	changed := false
	for k, v := range old {
		nv := v & st[k]
		if nv != v {
			changed = true
			if nv == 0 {
				delete(old, k)
			} else {
				old[k] = nv
			}
		}
	}
	return changed
}

// walk advances the lock set through one node in evaluation order and,
// when report is set, checks every guarded-field access against it.
// Defer arguments and receivers are evaluated at registration time, so
// they are checked against the registration state; the deferred lock
// call itself (the `defer mu.Unlock()` idiom) changes no state — the
// lock stays held to function exit.
func (lg *lockguardFunc) walk(n ast.Node, st lockset, report, inDefer bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // analyzed separately with an empty lock set
		case *ast.DeferStmt:
			lg.walk(x.Call.Fun, st, report, true)
			for _, arg := range x.Call.Args {
				lg.walk(arg, st, report, true)
			}
			return false
		case *ast.CallExpr:
			if path, op, ok := lg.lockOp(x); ok {
				if !inDefer {
					applyLockOp(st, path, op)
				}
				return false
			}
			// Helper-mediated locking: a deferred helper-unlock keeps
			// the lock held to function exit (like defer mu.Unlock()),
			// so callee effects apply only to non-deferred calls.
			if !inDefer {
				if cs := lg.calleeLockSummary(x); cs != nil {
					applyCalleeLockEffects(st, lg.p.Pkg.Info, lg.aliases, x, cs)
				}
			}
		case *ast.SelectorExpr:
			lg.checkAccess(x, st, report)
		}
		return true
	})
}

// lockOp recognizes mu.Lock/Unlock/RLock/RUnlock calls on a resolvable
// mutex path (shared recognizer in summaries.go).
func (lg *lockguardFunc) lockOp(call *ast.CallExpr) (path, op string, ok bool) {
	return mutexOpCall(lg.p.Pkg.Info, lg.aliases, call)
}

func applyLockOp(st lockset, path, op string) {
	switch op {
	case "Lock":
		st[path] = lockR | lockW
	case "RLock":
		st[path] |= lockR
	case "Unlock":
		delete(st, path)
	case "RUnlock":
		if v := st[path] &^ lockR; v == 0 {
			delete(st, path)
		} else {
			st[path] = v
		}
	}
}

// checkAccess reports a guarded-field access whose mutex is not held in
// the required mode at this program point.
func (lg *lockguardFunc) checkAccess(sel *ast.SelectorExpr, st lockset, report bool) {
	if !report {
		return
	}
	s, ok := lg.p.Pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	fieldVar, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	gi := lg.guarded[fieldVar]
	if gi == nil || len(s.Index()) != 1 {
		return
	}
	base := lg.aliases.exprPath(sel.X)
	if base == "" || lg.aliases.isFresh(sel.X) {
		return
	}
	bits := st[base+"."+gi.mutexName]
	if lg.writes[sel] {
		if bits&lockW == 0 {
			lg.p.Reportf(sel.Sel.Pos(), "write to %q requires %s held for writing (field is `guarded by %s`)",
				fieldVar.Name(), gi.mutexName, gi.mutexName)
		}
	} else if bits == 0 {
		verb := "held"
		if gi.rw {
			verb = "held (RLock suffices)"
		}
		lg.p.Reportf(sel.Sel.Pos(), "read of %q requires %s %s (field is `guarded by %s`)",
			fieldVar.Name(), gi.mutexName, verb, gi.mutexName)
	}
}

// collectWriteExprs marks the expressions a statement mutates: LHS of
// assignments (peeling index expressions — writing an element mutates
// the container), inc/dec targets, and address-taken operands (the
// pointer may be used to write).
func collectWriteExprs(n ast.Node, w map[ast.Expr]bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markWriteExpr(lhs, w)
			}
		case *ast.IncDecStmt:
			markWriteExpr(x.X, w)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				markWriteExpr(x.X, w)
			}
		}
		return true
	})
}

func markWriteExpr(e ast.Expr, w map[ast.Expr]bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			w[x] = true
			return
		default:
			// Idents (locals), star exprs (the pointer itself is only
			// read), and anything else carry no guarded-field write.
			return
		}
	}
}
