package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts `// want "regex"` / `// want `+"`regex`"+“ fixture
// annotations.
var wantRe = regexp.MustCompile("//\\s*want\\s+(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

type wantAnnotation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// readWants scans every .go file in dir for want annotations.
func readWants(t *testing.T, dir string) []*wantAnnotation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantAnnotation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			expr := m[1]
			if expr == "" {
				expr = regexp.QuoteMeta(m[2])
			}
			re, err := regexp.Compile(expr)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern: %v", path, line, err)
			}
			wants = append(wants, &wantAnnotation{file: path, line: line, pattern: re})
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// runFixture loads the fixture package in dir, runs one analyzer, and
// checks the diagnostics against the want annotations: every want must
// be hit, every diagnostic must be wanted.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(abs)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(abs)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{a}, loader.Fset)
	wants := readWants(t, abs)

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.File || w.line != d.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a %s diagnostic matching %q, got none", w.file, w.line, a.Name, w.pattern)
		}
	}
}

func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dir      string
	}{
		{MapIter, "mapiter"},
		{FloatEq, "floateq"},
		{GlobalRand, "globalrand"},
		{ErrDrop, "errdrop"},
		{MetricName, "metricname"},
		{LockGuard, "lockguard"},
		{CtxFlow, filepath.Join("ctxflow", "server")},
		{CtxFlow, filepath.Join("ctxflow", "lib")},
		{LockOrder, "lockorder"},
		{Directive, "directive"},
	}
	for _, c := range cases {
		t.Run(c.analyzer.Name+"/"+filepath.Base(c.dir), func(t *testing.T) {
			runFixture(t, c.analyzer, filepath.Join("testdata", "src", c.dir))
		})
	}
}

// TestSelfLint runs the full analyzer suite over the entire module —
// including internal/lint itself — and requires zero unbaselined
// findings. This is the regression gate: any future map-order,
// float-equality, nil-guard, global-rand, dropped-error, or
// concurrency-contract violation fails here (and in check.sh's herlint
// stage) before it can reach a release. Accepted findings live in the
// committed .herlint-baseline.json, each with a written reason; a stale
// baseline entry fails the test too.
func TestSelfLint(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	root := loader.ModuleRoot()
	if root == "" {
		t.Fatal("not inside a module")
	}
	dirs, err := DiscoverDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 20 {
		t.Fatalf("discovered only %d package dirs — discovery is broken", len(dirs))
	}
	pkgs, errs := loader.LoadDirs(dirs, 4)
	for i, lerr := range errs {
		if lerr != nil {
			t.Fatalf("loading %s: %v", dirs[i], lerr)
		}
	}
	diags := RunParallel(pkgs, All, loader.Fset, 4)
	baseline, err := ReadBaseline(filepath.Join(root, ".herlint-baseline.json"))
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	kept, _, unused := baseline.Apply(diags, root)
	for _, d := range kept {
		t.Errorf("repo must be herlint-clean: %s", d)
	}
	for _, e := range unused {
		t.Errorf("stale baseline entry: [%s] %s: %s", e.Analyzer, e.File, e.Message)
	}
}

func TestDiscoverDirsSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := DiscoverDirs(loader.ModuleRoot())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, string(filepath.Separator)+"testdata"+string(filepath.Separator)) ||
			strings.HasSuffix(d, string(filepath.Separator)+"testdata") {
			t.Errorf("testdata dir leaked into discovery: %s", d)
		}
	}
}

func TestExpandPatterns(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	root := loader.ModuleRoot()

	all, err := ExpandPatterns(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 20 {
		t.Fatalf("default ./... expanded to %d dirs", len(all))
	}

	one, err := ExpandPatterns(root, []string{"internal/obs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || !strings.HasSuffix(one[0], filepath.Join("internal", "obs")) {
		t.Fatalf("single-dir pattern: %v", one)
	}

	sub, err := ExpandPatterns(root, []string{"internal/lint/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 {
		t.Fatalf("internal/lint/... should expand to just the lint package (testdata skipped): %v", sub)
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("")
	if err != nil || len(got) != len(All) {
		t.Fatalf("empty names: %v, %v", got, err)
	}
	got, err = ByName("mapiter,floateq")
	if err != nil || len(got) != 2 || got[0].Name != "mapiter" || got[1].Name != "floateq" {
		t.Fatalf("selection: %v, %v", got, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown analyzer must error")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "mapiter", File: "x.go", Line: 3, Col: 7, Message: "m"}
	if got, want := d.String(), "x.go:3:7: [mapiter] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestIgnoreDirectiveForms(t *testing.T) {
	dir := t.TempDir()
	src := `package fix

func computed() (float64, float64) { return 1, 2 }

func trailing() bool {
	a, b := computed()
	return a == b //herlint:ignore floateq — trailing form
}

func preceding() bool {
	a, b := computed()
	//herlint:ignore floateq — preceding form
	return a == b
}

func wildcard() bool {
	a, b := computed()
	return a == b //herlint:ignore * — wildcard form
}

func unsuppressed() bool {
	a, b := computed()
	return a == b
}
`
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{FloatEq}, loader.Fset)
	if len(diags) != 1 {
		t.Fatalf("expected exactly the unsuppressed finding, got %v", diags)
	}
	if diags[0].Line != 23 {
		t.Errorf("finding at line %d, want 23 (unsuppressed)", diags[0].Line)
	}
}

func ExampleDiagnostic() {
	d := Diagnostic{Analyzer: "floateq", File: "scorers.go", Line: 10, Col: 2, Message: "use feq.Eq"}
	fmt.Println(d)
	// Output: scorers.go:10:2: [floateq] use feq.Eq
}
