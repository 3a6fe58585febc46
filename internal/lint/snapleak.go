package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SnapLeak enforces the shard engine's snapshot-isolation contract: the
// live graphs hanging off a System (`s.G`, `s.GD`) or one of its hosted
// views (`h.gd`) — the ones AddTuple/AddGraphVertex/AddGraphEdge mutate
// under the system lock — must never escape into the shard serving
// layer, which reads its graphs at request time without that lock. The
// only legal hand-off is a private copy: `s.G.Clone()`. The analyzer
// taints every expression reachable from a *Graph field of a live-graph
// owner (including single-assignment local aliases) and reports taint
// flowing into a shard-package sink — a shard composite literal, a call
// into a shard package, or a store to a shard-declared struct field.
// Clone() calls produce fresh values and clear the taint.
var SnapLeak = &Analyzer{
	Name: "snapleak",
	Doc:  "System's live graphs must not escape into shard engine state except through Clone()",
	Run:  runSnapLeak,
}

// liveGraphOwners names the struct types whose *Graph fields are live:
// her.System (G, GD) and its hosted-view state her.ViewHandle (gd,
// extended in place by AddTuple under the system lock).
var liveGraphOwners = map[string]bool{"System": true, "ViewHandle": true}

func runSnapLeak(p *Pass) {
	for _, f := range p.Pkg.Files {
		sl := &snapLeak{p: p, taintedObjs: make(map[types.Object]string)}
		sl.collectAliases(f)
		sl.checkSinks(f)
	}
}

type snapLeak struct {
	p *Pass
	// taintedObjs maps local variables aliased to a live graph to the
	// source description ("System.G").
	taintedObjs map[types.Object]string
}

// collectAliases records locals bound to live graph expressions, in
// source order so chains (`g := s.G; h := g`) resolve.
func (sl *snapLeak) collectAliases(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			src, tainted := sl.liveGraphSource(as.Rhs[i])
			if !tainted {
				continue
			}
			if obj := sl.p.Pkg.Info.ObjectOf(id); obj != nil {
				sl.taintedObjs[obj] = src
			}
		}
		return true
	})
}

// liveGraphSource reports whether e evaluates to a live graph, and
// which one.
func (sl *snapLeak) liveGraphSource(e ast.Expr) (string, bool) {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		s, ok := sl.p.Pkg.Info.Selections[e]
		if !ok || s.Kind() != types.FieldVal {
			return "", false
		}
		v, ok := s.Obj().(*types.Var)
		if !ok || !isGraphPtr(v.Type()) {
			return "", false
		}
		owner := ownerName(s.Recv())
		if !liveGraphOwners[owner] {
			return "", false
		}
		return owner + "." + v.Name(), true
	case *ast.Ident:
		obj := sl.p.Pkg.Info.ObjectOf(e)
		if obj == nil {
			return "", false
		}
		src, ok := sl.taintedObjs[obj]
		return src, ok
	}
	return "", false
}

// checkSinks reports tainted values reaching shard-package sinks.
func (sl *snapLeak) checkSinks(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			tv, ok := sl.p.Pkg.Info.Types[n]
			if !ok || !typeInShardPkg(tv.Type) {
				return true
			}
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if src, tainted := sl.liveGraphSource(v); tainted {
					sl.p.Reportf(v.Pos(), "live graph %s escapes into shard state; hand the engine a private %s.Clone() instead", src, src)
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(sl.p.Pkg.Info, n)
			if fn == nil || !isShardPkg(fn.Pkg()) {
				return true
			}
			for _, arg := range n.Args {
				if src, tainted := sl.liveGraphSource(arg); tainted {
					sl.p.Reportf(arg.Pos(), "live graph %s escapes into shard call %s; pass a private %s.Clone() instead", src, fn.Name(), src)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				s, ok := sl.p.Pkg.Info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					continue
				}
				fieldPkg := s.Obj().Pkg()
				if !isShardPkg(fieldPkg) {
					continue
				}
				if src, tainted := sl.liveGraphSource(n.Rhs[i]); tainted {
					sl.p.Reportf(n.Rhs[i].Pos(), "live graph %s stored into shard field %s; store a private %s.Clone() instead", src, s.Obj().Name(), src)
				}
			}
		}
		return true
	})
}

// isGraphPtr reports whether t is a pointer to a named type "Graph".
func isGraphPtr(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Graph"
}

// ownerName returns the name of the named struct type a selection's
// receiver resolves to, or "".
func ownerName(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isShardPkg reports whether pkg is a shard serving package (its import
// path's last element is "shard").
func isShardPkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "shard" || strings.HasSuffix(path, "/shard")
}

// typeInShardPkg reports whether t is declared in a shard package.
func typeInShardPkg(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && isShardPkg(named.Obj().Pkg())
}
