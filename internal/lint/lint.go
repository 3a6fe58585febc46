// Package lint is herlint's engine: a stdlib-only static-analysis
// framework (go/ast + go/parser + go/types, no go/packages) with
// project-specific analyzers enforcing the repository's determinism
// and seed-reproducibility contracts:
//
//	mapiter    — map iteration order must not leak into serialized
//	             output or unsorted collected slices (differential
//	             equivalence of the §V match algorithms)
//	floateq    — no ==/!= between computed floats; use internal/feq
//	globalrand — no top-level math/rand (breaks int64-seed
//	             reproducibility of testkit/embed/learn)
//	errdrop    — no discarded errors from Read*/Parse*/Decode*/...
//	             on the fuzzed parse surfaces
//	metricname — metric names handed to the obs registry must be
//	             her_-prefixed Prometheus names with well-formed
//	             {label="value"} blocks (a typo forks the time series)
//
// and the whole-package dataflow analyzers enforcing the concurrency
// contracts of the serving stack (per-function CFG + alias pass, see
// cfg.go/aliases.go):
//
//	lockguard  — fields annotated `// guarded by <mu>` are only
//	             accessed with the mutex held on every CFG path
//	             (RLock accepted for reads under an RWMutex)
//	ctxflow    — request-path functions must thread the incoming
//	             context.Context; Background()/TODO() forbidden in
//	             serving and shard scatter-gather packages
//
// and the whole-module interprocedural analyzers built on the
// type-resolved call graph and bottom-up per-function summaries
// (callgraph.go/summaries.go):
//
//	lockorder   — the global lock-acquisition-order graph, assembled
//	              from interprocedural locksets, must be acyclic
//	              (a cycle is a potential deadlock)
//	directive   — herlint: control comments themselves must be
//	              well-formed (known verb, explicit analyzer list,
//	              written reason)
//
// A finding can be suppressed with a trailing or preceding comment
//
//	//herlint:ignore <analyzer>[,<analyzer>...] — reason
//
// which applies to its own line and the line below it; the analyzer
// list and the reason are mandatory (enforced by directive). See
// DESIGN.md ("Determinism and concurrency contracts") for the
// invariant each analyzer protects.
//
// Two concurrency contracts need no analyzer because a type holds
// them. Atomic hygiene: every atomic in the module is a typed
// sync/atomic value, so a plain access does not compile and `go vet`'s
// copylocks rejects a copy. Cache-key completeness: internal/shard's
// cache and singleflight maps are keyed by the request value the worker
// computes from, so a field that shapes the answer is in the key.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the herlint analyzer suite.
var All = []*Analyzer{
	MapIter, FloatEq, GlobalRand, ErrDrop, MetricName,
	LockGuard, CtxFlow,
	LockOrder, Directive,
}

// ByName returns the analyzers matching the comma-separated names list,
// or All when names is empty.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All, nil
	}
	byName := make(map[string]*Analyzer, len(All))
	for _, a := range All {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a := byName[strings.TrimSpace(n)]
		if a == nil {
			return nil, fmt.Errorf("lint: unknown analyzer %q", strings.TrimSpace(n))
		}
		out = append(out, a)
	}
	return out, nil
}

// Diagnostic is one finding, in both human and machine-readable form.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package. Prog is the shared
// whole-module view (call graph + summaries) built once per Run; an
// interprocedural analyzer consults it globally but must anchor every
// finding at a position inside its own package, so that concurrent
// per-package passes never report the same fact twice.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Prog     *Program

	ignores map[string]map[int]map[string]bool // file → line → suppressed analyzers
	out     *[]Diagnostic
}

// Reportf records a finding at pos unless an ignore directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if lines, ok := p.ignores[position.Filename]; ok {
		if names := lines[position.Line]; names[p.Analyzer.Name] || names["*"] {
			return
		}
	}
	*p.out = append(*p.out, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

var ignoreRe = regexp.MustCompile(`^//\s*herlint:ignore\s+([\w*,]+)`)

// buildIgnores collects herlint:ignore directives: each covers the
// comment's own line (trailing form) and the next line (preceding form).
func buildIgnores(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]bool {
	ignores := make(map[string]map[int]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := ignores[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					ignores[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := lines[line]
					if set == nil {
						set = make(map[string]bool)
						lines[line] = set
					}
					for _, name := range strings.Split(m[1], ",") {
						set[name] = true
					}
				}
			}
		}
	}
	return ignores
}

// Run executes the analyzers over the packages and returns findings
// sorted by file, line, column, analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer, fset *token.FileSet) []Diagnostic {
	return RunParallel(pkgs, analyzers, fset, 1)
}

// RunParallel is Run with up to workers packages analyzed concurrently.
// Output is deterministic regardless of worker count: per-package
// findings are collected separately and merged in one final sort by
// file, line, column, analyzer. Analyzers only read the type-checked
// package and append to their own pass's slice, so packages are
// independent units of work.
func RunParallel(pkgs []*Package, analyzers []*Analyzer, fset *token.FileSet, workers int) []Diagnostic {
	if workers < 1 {
		workers = 1
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	// The whole-module view is built once, before the per-package
	// workers start: summaries are computed bottom-up here, and the
	// lazily derived lock-order graph inside Program is sync.Once-guarded,
	// so the workers only ever read it.
	prog := BuildProgram(pkgs)

	perPkg := make([][]Diagnostic, len(pkgs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				pkg := pkgs[i]
				ignores := buildIgnores(fset, pkg.Files)
				for _, a := range analyzers {
					a.Run(&Pass{Analyzer: a, Fset: fset, Pkg: pkg, Prog: prog, ignores: ignores, out: &perPkg[i]})
				}
			}
		}()
	}
	for i := range pkgs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
