package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a map of relative path → file contents under a
// fresh temp dir and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func buildTestProgram(t *testing.T, dir string) (*Program, *Package) {
	t.Helper()
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return BuildProgram([]*Package{pkg}), pkg
}

func findFunc(t *testing.T, prog *Program, name string) *FuncNode {
	t.Helper()
	for _, n := range prog.Nodes {
		if n.Fn.Name() == name {
			return n
		}
	}
	t.Fatalf("function %q not found in program", name)
	return nil
}

// TestMutualRecursionSummaryFixpoint: two mutually recursive functions
// form one SCC; the lock acquired by one must appear in both summaries
// after the fixpoint, because each transitively reaches the other.
func TestMutualRecursionSummaryFixpoint(t *testing.T) {
	root := writeTree(t, map[string]string{
		"scc.go": `package scc

import "sync"

type S struct{ mu sync.Mutex }

func even(s *S, n int) {
	if n == 0 {
		s.mu.Lock()
		s.mu.Unlock()
		return
	}
	odd(s, n-1)
}

func odd(s *S, n int) {
	if n == 0 {
		return
	}
	even(s, n-1)
}
`,
	})
	prog, _ := buildTestProgram(t, root)

	for _, name := range []string{"even", "odd"} {
		node := findFunc(t, prog, name)
		sum := prog.Summary(node.Fn)
		if sum == nil {
			t.Fatalf("%s: no summary", name)
		}
		found := false
		for class := range sum.Acquires {
			if strings.HasSuffix(class, "S.mu") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: Acquires = %v, want a class ending in S.mu (SCC fixpoint should propagate it)", name, sum.Acquires)
		}
	}

	// Both functions must share an SCC of size 2.
	even, odd := findFunc(t, prog, "even"), findFunc(t, prog, "odd")
	shared := false
	for _, scc := range prog.SCCs {
		if len(scc) == 2 {
			has := map[*FuncNode]bool{scc[0]: true, scc[1]: true}
			if has[even] && has[odd] {
				shared = true
			}
		}
	}
	if !shared {
		t.Errorf("even and odd are not condensed into one two-member SCC")
	}
}

// TestInterfaceDispatchDevirtualization: a call through an interface
// with two implementations must get an edge to each implementation,
// flagged as devirtualized.
func TestInterfaceDispatchDevirtualization(t *testing.T) {
	root := writeTree(t, map[string]string{
		"devirt.go": `package devirt

type animal interface{ speak() string }

type dog struct{}

func (dog) speak() string { return "woof" }

type cat struct{}

func (cat) speak() string { return "meow" }

func call(a animal) string { return a.speak() }
`,
	})
	prog, _ := buildTestProgram(t, root)

	node := findFunc(t, prog, "call")
	var impls []string
	for _, cs := range node.Out {
		if !cs.Iface {
			t.Errorf("edge to %s not marked as interface-devirtualized", cs.Callee.Fn.FullName())
		}
		impls = append(impls, cs.Callee.Fn.FullName())
	}
	if len(impls) != 2 {
		t.Fatalf("call has %d outgoing edges %v, want 2 (dog.speak and cat.speak)", len(impls), impls)
	}
	joined := strings.Join(impls, " ")
	for _, want := range []string{"dog", "cat"} {
		if !strings.Contains(joined, want) {
			t.Errorf("devirtualized edges %v missing the %s implementation", impls, want)
		}
	}
}

// TestCrossPackageSummaries: a ctx-less helper in one package that
// creates context.Background() must be visible, via its summary, to
// ctxflow analyzing a request-path package that calls it.
func TestCrossPackageSummaries(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module xmod\n\ngo 1.22\n",
		"util/util.go": `package util

import "context"

// Detach returns a fresh root context.
func Detach() context.Context { return context.Background() }
`,
		"server/server.go": `package server

import (
	"context"

	"xmod/util"
)

func Handle(ctx context.Context) context.Context {
	return util.Detach()
}
`,
	})
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{filepath.Join(root, "util"), filepath.Join(root, "server")}
	pkgs, errs := loader.LoadDirs(dirs, 1)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	prog := BuildProgram(pkgs)

	detach := findFunc(t, prog, "Detach")
	if sum := prog.Summary(detach.Fn); sum == nil || !sum.CallsBackground {
		t.Fatalf("util.Detach summary CallsBackground = false, want true")
	}

	diags := Run(pkgs, []*Analyzer{CtxFlow}, loader.Fset)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "severs cancellation") && strings.Contains(d.Message, "Detach") {
			found = true
		}
	}
	if !found {
		t.Errorf("ctxflow produced no severs-cancellation finding for the cross-package util.Detach call; got %v", diags)
	}
}

// TestBaselineStalenessNewAnalyzers: baseline entries naming the
// interprocedural analyzers must be matched like any other, and stale
// ones must surface as unused so the file cannot rot.
func TestBaselineStalenessNewAnalyzers(t *testing.T) {
	root := t.TempDir()
	baselinePath := filepath.Join(root, "baseline.json")
	if err := os.WriteFile(baselinePath, []byte(`{
  "entries": [
    {
      "analyzer": "lockorder",
      "file": "internal/shard/engine.go",
      "message": "potential deadlock: lock-order cycle x.A.mu → x.B.mu → x.A.mu",
      "reason": "accepted: documented hierarchy exception"
    },
    {
      "analyzer": "ctxflow",
      "file": "internal/shard/router.go",
      "message": "context.Context stored in a struct literal; request-scoped values must flow through parameters",
      "reason": "accepted: the task is request-scoped"
    },
    {
      "analyzer": "lockguard",
      "file": "shardapi.go",
      "message": "field s.lm (guarded by mu) read without holding s.mu",
      "reason": "accepted: transitional, fixed in the next change"
    }
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(baselinePath)
	if err != nil {
		t.Fatal(err)
	}

	// Only the ctxflow finding still exists; the other two entries are
	// stale and must be reported unused.
	diags := []Diagnostic{{
		Analyzer: "ctxflow",
		File:     filepath.Join(root, "internal", "shard", "router.go"),
		Line:     10,
		Col:      3,
		Message:  "context.Context stored in a struct literal; request-scoped values must flow through parameters",
	}}
	kept, suppressed, unused := b.Apply(diags, root)
	if len(kept) != 0 {
		t.Errorf("kept = %v, want none", kept)
	}
	if len(suppressed) != 1 || suppressed[0].Analyzer != "ctxflow" {
		t.Errorf("suppressed = %v, want the one ctxflow finding", suppressed)
	}
	if len(unused) != 2 {
		t.Fatalf("unused = %v, want the two stale entries", unused)
	}
	staleNames := []string{unused[0].Analyzer, unused[1].Analyzer}
	joined := strings.Join(staleNames, " ")
	if !strings.Contains(joined, "lockorder") || !strings.Contains(joined, "lockguard") {
		t.Errorf("stale analyzers = %v, want lockorder and lockguard", staleNames)
	}
}
