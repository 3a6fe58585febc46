package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	// The other contracts herlint once checked are held by types, an
	// executed test or measurements (DESIGN.md §7).
	want := []string{"mapiter", "floateq", "globalrand", "errdrop", "metricname",
		"lockguard", "ctxflow", "lockorder", "directive"}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, name := range want {
		if got, _, _ := strings.Cut(strings.TrimSpace(lines[i]), " "); got != name {
			t.Errorf("-list line %d names %q, want %q", i, got, name)
		}
	}
}

func TestRunCleanPackage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../../internal/feq"}, &out, &errb); code != 0 {
		t.Fatalf("internal/feq should be clean; exit %d\n%s%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output: %s", out.String())
	}
}

func TestRunFindingsAndJSON(t *testing.T) {
	// The floateq fixture is a known-dirty package.
	target := "../../internal/lint/testdata/src/floateq"

	var out, errb bytes.Buffer
	if code := run([]string{target}, &out, &errb); code != 1 {
		t.Fatalf("dirty package should exit 1, got %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[floateq]") {
		t.Errorf("text output missing analyzer tag:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-json", target}, &out, &errb); code != 1 {
		t.Fatalf("-json dirty run should exit 1, got %d\n%s", code, errb.String())
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json reported no findings for a dirty package")
	}
	for _, d := range diags {
		if d.Analyzer != "floateq" || d.Line == 0 || d.File == "" || d.Message == "" {
			t.Errorf("incomplete JSON diagnostic: %+v", d)
		}
	}
}

func TestRunOnlySelection(t *testing.T) {
	target := "../../internal/lint/testdata/src/floateq"
	var out, errb bytes.Buffer
	// With only mapiter selected, the floateq fixture is clean.
	if code := run([]string{"-only", "mapiter", target}, &out, &errb); code != 0 {
		t.Fatalf("-only mapiter over floateq fixture should be clean, got %d\n%s", code, out.String())
	}
	if code := run([]string{"-only", "bogus", target}, &out, &errb); code != 2 {
		t.Fatalf("unknown analyzer should exit 2, got %d", code)
	}
}

func TestRunBadDir(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./does-not-exist"}, &out, &errb); code != 2 {
		t.Fatalf("missing dir should exit 2, got %d", code)
	}
}

// TestRunTypeCheckErrorExitsTwo pins the exit-code contract's third
// band: a package that fails to compile is a load error (2), not a
// finding (1).
func TestRunTypeCheckErrorExitsTwo(t *testing.T) {
	dir := t.TempDir()
	src := "package broken\n\nfunc f() { return undefinedIdent }\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{dir}, &out, &errb); code != 2 {
		t.Fatalf("type-check error should exit 2, got %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "type-checking") {
		t.Errorf("stderr should mention type-checking:\n%s", errb.String())
	}
}

// TestRunBaselineLifecycle walks the committed-baseline mechanism end
// to end over the known-dirty floateq fixture: -write-baseline emits a
// TODO skeleton, -baseline rejects it until the reasons are written,
// accepts it afterwards (exit 0, findings suppressed), and flags a
// stale entry once its finding disappears.
func TestRunBaselineLifecycle(t *testing.T) {
	target := "../../internal/lint/testdata/src/floateq"
	blPath := filepath.Join(t.TempDir(), "baseline.json")

	var out, errb bytes.Buffer
	if code := run([]string{"-write-baseline", blPath, target}, &out, &errb); code != 0 {
		t.Fatalf("-write-baseline should exit 0, got %d\n%s", code, errb.String())
	}

	// The skeleton's TODO reasons are not justifications.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", blPath, target}, &out, &errb); code != 2 {
		t.Fatalf("TODO-reason baseline should exit 2, got %d\n%s", code, errb.String())
	}

	data, err := os.ReadFile(blPath)
	if err != nil {
		t.Fatal(err)
	}
	justified := strings.ReplaceAll(string(data),
		"TODO: justify why this finding is accepted",
		"fixture: accepted for the baseline lifecycle test")
	if justified == string(data) {
		t.Fatalf("skeleton has no TODO reasons to fill in:\n%s", data)
	}
	if err := os.WriteFile(blPath, []byte(justified), 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", blPath, target}, &out, &errb); code != 0 {
		t.Fatalf("justified baseline should exit 0, got %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "suppressed by baseline") {
		t.Errorf("stderr should report the suppressed count:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("suppressed findings must not reach stdout:\n%s", out.String())
	}

	// An entry whose finding no longer exists is itself a failure: the
	// baseline must not rot. Point the same baseline at a clean package.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-baseline", blPath, "../../internal/feq"}, &out, &errb); code != 1 {
		t.Fatalf("stale baseline entries should exit 1, got %d\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "stale baseline entry") {
		t.Errorf("stderr should flag stale entries:\n%s", errb.String())
	}
}

// TestRunSARIFOutput asserts the -sarif report is well-formed 2.1.0:
// findings become results, baseline-suppressed findings carry
// suppressions with the written justification.
func TestRunSARIFOutput(t *testing.T) {
	target := "../../internal/lint/testdata/src/floateq"
	dir := t.TempDir()
	sarifPath := filepath.Join(dir, "report.sarif")
	blPath := filepath.Join(dir, "baseline.json")

	var out, errb bytes.Buffer
	if code := run([]string{"-sarif", sarifPath, target}, &out, &errb); code != 1 {
		t.Fatalf("dirty package should still exit 1 with -sarif, got %d\n%s", code, errb.String())
	}
	var report struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID       string `json:"ruleId"`
				Suppressions []struct {
					Justification string `json:"justification"`
				} `json:"suppressions"`
			} `json:"results"`
		} `json:"runs"`
	}
	readReport := func() {
		t.Helper()
		data, err := os.ReadFile(sarifPath)
		if err != nil {
			t.Fatal(err)
		}
		report.Runs = nil
		if err := json.Unmarshal(data, &report); err != nil {
			t.Fatalf("SARIF output is not valid JSON: %v", err)
		}
	}
	readReport()
	if report.Version != "2.1.0" || len(report.Runs) != 1 {
		t.Fatalf("unexpected SARIF shape: version %q, %d runs", report.Version, len(report.Runs))
	}
	if len(report.Runs[0].Results) == 0 {
		t.Fatal("SARIF report has no results for a dirty package")
	}
	found := false
	for _, r := range report.Runs[0].Tool.Driver.Rules {
		if r.ID == "floateq" {
			found = true
		}
	}
	if !found {
		t.Error("SARIF rules missing floateq")
	}

	// Baseline the findings: they must stay in the SARIF report, marked
	// suppressed with the baseline's justification.
	if code := run([]string{"-write-baseline", blPath, target}, &out, &errb); code != 0 {
		t.Fatalf("-write-baseline exit %d\n%s", code, errb.String())
	}
	data, err := os.ReadFile(blPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blPath, []byte(strings.ReplaceAll(string(data),
		"TODO: justify why this finding is accepted",
		"fixture: accepted for the SARIF suppression test")), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-sarif", sarifPath, "-baseline", blPath, target}, &out, &errb); code != 0 {
		t.Fatalf("baselined -sarif run should exit 0, got %d\n%s", code, errb.String())
	}
	readReport()
	suppressed := 0
	for _, r := range report.Runs[0].Results {
		for _, s := range r.Suppressions {
			if s.Justification == "" {
				t.Error("suppression without justification in SARIF output")
			}
			suppressed++
		}
	}
	if suppressed == 0 {
		t.Error("baselined findings missing from SARIF suppressions")
	}
}
