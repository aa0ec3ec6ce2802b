// Command ccbench runs the reproduction experiments (docs/paper-map.md)
// and prints their tables as markdown. The full suite regenerates every
// figure and analytic result of the paper:
//
//	ccbench -exp all            # everything (parallel across the pool)
//	ccbench -exp T45 -seed 7    # one experiment
//	ccbench -list               # list experiment IDs
//	ccbench -exp all -quick     # reduced sizes (smoke run)
//	ccbench -parallel=false     # serial reference run
//	ccbench -j 4                # explicit worker-pool width
//	ccbench -bench-json BENCH_step.json           # microbenchmark only → JSON
//	ccbench -bench-json B.json -exp T2            # benchmark + experiments
//
// Experiments fan their independent (topology, daemon, seed) cells across
// a worker pool sized by GOMAXPROCS; -bench-json times the engine step
// hot path and writes machine-readable numbers so the perf trajectory is
// tracked across PRs (experiments also run only if -exp is given
// explicitly alongside it).
//
// The process exits non-zero if any checked paper claim fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/par"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment ID or 'all'")
		seed        = flag.Int64("seed", 1, "base random seed")
		quick       = flag.Bool("quick", false, "reduced sizes")
		list        = flag.Bool("list", false, "list experiments and exit")
		parallel    = flag.Bool("parallel", true, "fan experiments and their cells across the worker pool")
		workers     = cliutil.Workers(flag.CommandLine, "j", 0, "worker-pool width (0 = GOMAXPROCS)")
		cacheDir    = flag.String("cache", "", "verdict-store directory: serve the MC experiment's exhaustive cells from cache and persist fresh ones (shared with cccheck -cache and ccserve)")
		storeEngine = flag.String("store-engine", "dir", "store backend for -cache: dir or log")
		benchJSON   = flag.String("bench-json", "", "run the engine-step microbenchmark and write JSON to this path")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.What)
		}
		return
	}

	nworkers, err := workers.Value()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch {
	case !*parallel:
		par.Workers = 1
	case nworkers > 0:
		par.Workers = nworkers
	}

	if *benchJSON != "" {
		if err := writeStepBench(*benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("wrote engine-step benchmark to %s\n", *benchJSON)
		// Bench-only unless the user explicitly asked for experiments too.
		expSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "exp" {
				expSet = true
			}
		})
		if !expSet || *exp == "" {
			return
		}
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

	cfg := experiments.Config{Seed: *seed, Quick: *quick, CacheDir: *cacheDir, StoreEngine: *storeEngine}
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

// stepBench is one machine-readable engine-step measurement.
type stepBench struct {
	Name        string  `json:"name"`
	NsPerStep   float64 `json:"ns_per_step"`
	AllocsPerOp float64 `json:"allocs_per_step"`
	BytesPerOp  float64 `json:"bytes_per_step"`
	Steps       int     `json:"steps_timed"`
}

type stepBenchFile struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []stepBench `json:"benchmarks"`
}

// writeStepBench times the engine step hot path on the shared workload
// table (experiments.StepBenchWorkloads, the same configuration the
// BenchmarkStep* suite measures) and writes BENCH_step.json.
func writeStepBench(path string) error {
	out := stepBenchFile{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, w := range experiments.StepBenchWorkloads() {
		r := experiments.NewStepRunner(w.Variant, w.NewH(), false)
		// b.Fatal has no test framework to report to inside a standalone
		// testing.Benchmark, so track failure out-of-band: a quiescing
		// workload must error out rather than emit bogus near-zero numbers.
		quiesced := false
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N && !quiesced; i++ {
				if r.Run(1) == 0 {
					quiesced = true
				}
			}
		})
		if quiesced || br.N == 0 {
			return fmt.Errorf("ccbench: workload %s quiesced during the step benchmark", w.Name)
		}
		out.Benchmarks = append(out.Benchmarks, stepBench{
			Name:        w.Name,
			NsPerStep:   float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: float64(br.MemAllocs) / float64(br.N),
			BytesPerOp:  float64(br.MemBytes) / float64(br.N),
			Steps:       br.N,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
