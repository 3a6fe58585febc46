package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// aliases.go is the lightweight alias pass shared by the dataflow
// analyzers (lockguard, lockorder and the summary pass). It resolves, per file,
// which single-assignment locals are stable pointer aliases of a longer
// access path (`st := e.cur` makes every later `st.x` an access of
// `e.cur.x`), and which locals hold freshly constructed, not-yet-shared
// objects (`e := &Engine{...}`) whose field accesses need no lock.
//
// The analysis is deliberately conservative in the lenient direction: a
// variable that is reassigned, address-taken, or bound by anything
// other than a plain single-value define resolves to an opaque root,
// and accesses through opaque roots are simply not checked.

// fileAliases holds the alias facts of one file.
type fileAliases struct {
	info *types.Info

	defRHS  map[types.Object]ast.Expr // single-define initializer
	tainted map[types.Object]bool     // reassigned / address-taken / loop-bound
	fresh   map[types.Object]bool     // initializer constructs a new object
	memo    map[types.Object]string   // resolved canonical paths
	inProg  map[types.Object]bool
}

// newFileAliases runs the collection pass over one file.
func newFileAliases(info *types.Info, f *ast.File) *fileAliases {
	a := &fileAliases{
		info:    info,
		defRHS:  make(map[types.Object]ast.Expr),
		tainted: make(map[types.Object]bool),
		fresh:   make(map[types.Object]bool),
		memo:    make(map[types.Object]string),
		inProg:  make(map[types.Object]bool),
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					a.recordDef(lhs, n.Rhs[i])
				}
			} else {
				for _, lhs := range n.Lhs {
					a.taintIdent(lhs)
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, id := range n.Names {
					a.recordDef(id, n.Values[i])
				}
			} else {
				for _, id := range n.Names {
					a.taintIdent(id)
				}
			}
		case *ast.IncDecStmt:
			a.taintIdent(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				a.taintIdent(n.X)
			}
		case *ast.RangeStmt:
			// Loop variables rebind per iteration: never alias them.
			a.taintIdent(n.Key)
			a.taintIdent(n.Value)
		}
		return true
	})
	return a
}

// recordDef notes a candidate single-assignment define. A second define
// of the same object (impossible in Go) or a later taint wins over it.
func (a *fileAliases) recordDef(lhs ast.Expr, rhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := a.info.Defs[id]
	if obj == nil {
		// `x := ...` where x redeclares in the same scope: a plain use,
		// i.e. a reassignment.
		a.taintIdent(lhs)
		return
	}
	a.defRHS[obj] = rhs
}

func (a *fileAliases) taintIdent(e ast.Expr) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if obj := a.info.ObjectOf(id); obj != nil {
		a.tainted[obj] = true
	}
}

// objRoot is the opaque canonical path of an object.
func objRoot(obj types.Object) string {
	return fmt.Sprintf("o%d", obj.Pos())
}

// pathOfObj resolves an identifier's canonical access path: its alias
// target when it is a stable pointer alias, its own opaque root
// otherwise. Returns "" only for nil objects.
func (a *fileAliases) pathOfObj(obj types.Object) string {
	if obj == nil {
		return ""
	}
	if p, ok := a.memo[obj]; ok {
		return p
	}
	p := a.resolve(obj)
	a.memo[obj] = p
	return p
}

func (a *fileAliases) resolve(obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok || a.tainted[obj] || a.inProg[obj] {
		return objRoot(obj)
	}
	rhs, ok := a.defRHS[obj]
	if !ok {
		return objRoot(obj)
	}
	if isFreshExpr(rhs) {
		a.fresh[obj] = true
		return objRoot(obj)
	}
	// Only pointer-typed values alias: copying a struct value makes new
	// fields (and a new mutex), so `x := s` with a value type must keep
	// its own identity.
	if _, isPtr := v.Type().Underlying().(*types.Pointer); !isPtr {
		return objRoot(obj)
	}
	a.inProg[obj] = true
	p := a.exprPath(rhs)
	delete(a.inProg, obj)
	if p == "" {
		return objRoot(obj)
	}
	return p
}

// exprPath computes the canonical path of an expression, or "" when the
// expression has no stable path (calls, index expressions, unresolved
// roots).
func (a *fileAliases) exprPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		obj := a.info.ObjectOf(e)
		if obj == nil {
			return ""
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return ""
		}
		return a.pathOfObj(obj)
	case *ast.SelectorExpr:
		// Only field selections extend a path; package-qualified idents
		// and method values do not.
		if sel, ok := a.info.Selections[e]; !ok || sel == nil || sel.Kind() != types.FieldVal {
			return ""
		}
		base := a.exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return a.exprPath(e.X)
	case *ast.StarExpr:
		return a.exprPath(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return a.exprPath(e.X)
		}
	}
	return ""
}

// rootObj returns the root identifier object of a selector chain, or
// nil when the base is not a chain of field selections over an ident.
func (a *fileAliases) rootObj(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return a.info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// isFresh reports whether the expression's root local holds a freshly
// constructed object that no other goroutine can reach yet.
func (a *fileAliases) isFresh(e ast.Expr) bool {
	obj := a.rootObj(e)
	if obj == nil {
		return false
	}
	a.pathOfObj(obj) // force resolution, which records freshness
	return a.fresh[obj]
}

// isFreshExpr reports whether e constructs a brand-new object: a
// composite literal, its address, or new(T).
func isFreshExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := e.X.(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	case *ast.ParenExpr:
		return isFreshExpr(e.X)
	}
	return false
}
