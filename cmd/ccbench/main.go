// Command ccbench runs the reproduction experiments (docs/paper-map.md)
// and prints their tables as markdown. The full suite regenerates every
// figure and analytic result of the paper:
//
//	ccbench -exp all            # everything (parallel across the pool)
//	ccbench -exp T45 -seed 7    # one experiment
//	ccbench -list               # list experiment IDs
//	ccbench -exp all -quick     # reduced sizes (smoke run)
//	ccbench -j 4                # explicit worker-pool width
//	ccbench -j 1                # serial reference run
//
// Experiments fan their independent (topology, daemon, seed) cells across
// a worker pool sized by GOMAXPROCS. Performance is measured by the
// bench/ module, not here.
//
// The process exits non-zero if any checked paper claim fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/par"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment ID or 'all'")
		seed     = flag.Int64("seed", 1, "base random seed")
		quick    = flag.Bool("quick", false, "reduced sizes")
		list     = flag.Bool("list", false, "list experiments and exit")
		workers  = flag.Int("j", 0, "worker-pool width (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache", "", "verdict-store directory: serve the MC experiment's exhaustive cells from cache and persist fresh ones (shared with cccheck -cache and ccserve)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.What)
		}
		return
	}

	if *workers > 0 {
		par.Workers = *workers
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick, CacheDir: *cacheDir}
	results, err := experiments.RunAll(ids, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := 0
	for _, res := range results {
		if !res.Ok() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) had failing claims\n", failed)
		os.Exit(1)
	}
}
