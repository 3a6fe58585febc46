// Command herbench regenerates the paper's tables and figures (see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for the recorded
// results). Examples:
//
//	herbench -exp tableV
//	herbench -exp fig6d -entities 150 -workers 1,2,4,8
//	herbench -exp all -entities 100
//
// Speed is measured by the repository benchmark instead (serving path
// and sequential/BSP/async APair alike); see benchmark/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"her/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment id: "+strings.Join(experiments.ExperimentIDs(), ", ")+", or all")
	entities := flag.Int("entities", 0, "override matchable-entity count per dataset (0 = dataset default)")
	workers := flag.String("workers", "", "comma-separated worker counts for parallel experiments, e.g. 1,2,4,8,16")
	trials := flag.Int("trials", 0, "random-search trials for threshold selection (0 = default)")
	seed := flag.Int64("seed", 0, "model seed (0 = default)")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()

	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.Config{
		Entities:     *entities,
		SearchTrials: *trials,
		Seed:         *seed,
		CSV:          *csvOut,
	}
	if *workers != "" {
		for _, part := range strings.Split(*workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "herbench: bad worker count %q\n", part)
				os.Exit(2)
			}
			cfg.Workers = append(cfg.Workers, n)
		}
	}

	start := time.Now()
	if err := experiments.Run(*exp, cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "herbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n[%s completed in %s]\n", *exp, time.Since(start).Round(time.Millisecond))
}
