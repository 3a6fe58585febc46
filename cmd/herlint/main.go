// Command herlint runs the project's static-analysis suite
// (internal/lint) over the given package patterns and reports every
// violation of the determinism, seed-reproducibility, and concurrency
// contracts (lockguard, ctxflow, lockorder).
//
// Usage:
//
//	herlint [-json] [-sarif file] [-baseline file] [-write-baseline file]
//	        [-only names] [-list] [packages]
//
// Packages default to ./... relative to the current directory; "dir/..."
// patterns and plain directories are accepted. Loading and analysis run
// on runtime.GOMAXPROCS workers; output order is deterministic (sorted
// by file, line, column, analyzer) regardless of worker count.
//
// Exit status:
//
//	0 — clean: no findings, or every finding matched by the -baseline
//	1 — findings were reported (including stale baseline entries that
//	    no longer match any finding)
//	2 — usage, package-load, or type-check errors
//
// With -json, findings are emitted as a JSON array (empty array when
// clean), one object per finding:
//
//	[
//	  {
//	    "analyzer": "lockguard",          // Analyzer name (-list)
//	    "file": "/abs/path/to/file.go",   // absolute file path
//	    "line": 42,                       // 1-based line
//	    "col": 7,                         // 1-based column
//	    "message": "read of \"cur\" ..."  // human-readable finding
//	  }
//	]
//
// Baseline-suppressed findings are excluded from both text and JSON
// output (their count goes to stderr); -sarif writes a SARIF 2.1.0
// report that includes them with `suppressions` entries carrying the
// baseline's written justification. -write-baseline snapshots the
// current findings as a baseline skeleton whose TODO reasons must be
// filled in before -baseline will accept the file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"her/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("herlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	sarifPath := fs.String("sarif", "", "write a SARIF 2.1.0 report to this file")
	baselinePath := fs.String("baseline", "", "subtract the accepted findings in this baseline file")
	writeBaseline := fs.String("write-baseline", "", "snapshot current findings as a baseline skeleton and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: herlint [-json] [-sarif file] [-baseline file] [-write-baseline file] [-only names] [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := lint.ByName(*only)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var baseline *lint.Baseline
	if *baselinePath != "" {
		baseline, err = lint.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	dirs, err := lint.ExpandPatterns(cwd, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	workers := runtime.GOMAXPROCS(0)
	pkgs, loadErrs := loader.LoadDirs(dirs, workers)
	for _, lerr := range loadErrs {
		if lerr != nil {
			fmt.Fprintln(stderr, lerr)
			return 2
		}
	}

	diags := lint.RunParallel(pkgs, analyzers, loader.Fset, workers)

	if *writeBaseline != "" {
		if err := lint.WriteBaseline(*writeBaseline, diags, loader.ModuleRoot()); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stderr, "herlint: wrote %d finding(s) to %s; fill in the TODO reasons before using it with -baseline\n", len(diags), *writeBaseline)
		return 0
	}

	var suppressed []lint.SuppressedDiagnostic
	if baseline != nil {
		var unused []lint.BaselineEntry
		diags, suppressed, unused = baseline.Apply(diags, loader.ModuleRoot())
		for _, e := range unused {
			// A stale entry is a finding: the accepted debt it documented
			// is gone and the baseline must be updated to match.
			fmt.Fprintf(stderr, "herlint: stale baseline entry: [%s] %s: %s\n", e.Analyzer, e.File, e.Message)
		}
		if len(suppressed) > 0 {
			fmt.Fprintf(stderr, "herlint: %d finding(s) suppressed by baseline %s\n", len(suppressed), *baselinePath)
		}
		if len(unused) > 0 && len(diags) == 0 {
			return 1
		}
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		werr := lint.WriteSARIF(f, analyzers, diags, suppressed, loader.ModuleRoot())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, werr)
			return 2
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "herlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}
