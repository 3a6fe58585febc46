package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunAPair smokes the full hercli pipeline once (generate, train,
// learn thresholds, answer) in apair mode — the mode that exercises the
// parallel engine end to end. One run only: training dominates the cost.
func TestRunAPair(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline training takes ~15s")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dataset", "Synthetic", "-entities", "10", "-mode", "apair", "-workers", "2"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, re := range []string{
		`(?m)^dataset Synthetic: \d+ tuples, graph \|V\|=\d+ \|E\|=\d+$`,
		`(?m)^learned parameters in .*: sigma=\d+\.\d\d delta=\d+\.\d\d k=\d+`,
		`(?m)^APair: \d+ matches with 2 workers in .* \(\d+ supersteps, \d+ candidate pairs\)$`,
	} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Errorf("output missing %s:\n%s", re, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"unknown dataset", []string{"-dataset", "Nope"}, 2, `unknown dataset "Nope"`},
		{"bad flag", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("run = %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.msg) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.msg)
			}
		})
	}
}

// TestRunViewSubcommands smokes `hercli views` and `hercli extract`
// (no training: they only generate, extract and print). The direct view
// is a row of the same table as the rule view, and extracts like one.
func TestRunViewSubcommands(t *testing.T) {
	file := filepath.Join(t.TempDir(), "small.view")
	rules := "view smallparts\nvertex part where size = 1 label part_name\nattrs part part_name brand\n"
	if err := os.WriteFile(file, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	common := []string{"-dataset", "Synthetic", "-entities", "10", "-views", file}
	runOK := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(append(args, common...), &stdout, &stderr); code != 0 {
			t.Fatalf("run %v = %d, stderr:\n%s", args, code, stderr.String())
		}
		return stdout.String()
	}

	views := runOK("views")
	for _, re := range []string{
		`(?m)^VIEW +RULES +\|V\| +\|E\| +GEN$`,
		`(?m)^direct +[1-9]\d* +[1-9]\d* +[1-9]\d* +1$`,
		`(?m)^smallparts +1 +\d+ +\d+ +0$`,
	} {
		if !regexp.MustCompile(re).MatchString(views) {
			t.Errorf("views output missing %s:\n%s", re, views)
		}
	}
	if strings.Index(views, "direct") > strings.Index(views, "smallparts") {
		t.Errorf("direct is not listed first:\n%s", views)
	}

	direct := runOK("extract", "-view", "direct")
	if direct != runOK("extract") {
		t.Error("extract defaults to something other than the direct view")
	}
	small := runOK("extract", "-view", "smallparts")
	if !strings.Contains(direct, "\tpart\n") || small == direct || len(small) >= len(direct) {
		t.Errorf("extract: direct %d bytes, smallparts %d bytes", len(direct), len(small))
	}

	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"extract", "-view", "nope"}, common...), &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), `unknown view "nope"`) {
		t.Errorf("extract -view nope = %d, stderr %q", code, stderr.String())
	}
}
