// Command ccsim runs one committee-coordination algorithm on one
// topology and reports what happened: meetings convened, fairness and
// concurrency statistics, and any specification violations caught by the
// runtime monitors.
//
//	ccsim -alg cc2 -topo ring:10 -steps 20000
//	ccsim -alg cc1 -topo fig1 -random-init          # snap-stabilization run
//	ccsim -alg dining -topo triples:4               # related-work baseline
//	ccsim -topo custom:'{0,1};{1,2,3};{3,4}' -alg cc3
//	ccsim -alg cc2 -topo ring:16 -runs 32           # 32 seeds across the pool
//	ccsim -topo scenario:14 -random-init -runs 64   # randomized scenario harness
//
// With -runs N > 1 the command fans N independent replicas (seeds
// seed..seed+N-1) across the experiment worker pool and prints an
// aggregate table instead of a single-run report. Each replica parses
// -topo with its own seed, so a random family (scenario, kuniform,
// mixed, bipartite, density) draws a fresh topology per replica while a
// fixed family is the same for all. A replica that reports violations
// is named by its seed and topology; re-run it alone with that -seed
// and -runs 1 to see the violations.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	var (
		algName    = flag.String("alg", "cc2", "cc1 | cc2 | cc3 | dining | token-ring")
		topo       = flag.String("topo", "fig1", "topology spec (see internal/hypergraph.Parse)")
		steps      = flag.Int("steps", 10000, "max steps")
		seed       = flag.Int64("seed", 1, "random seed")
		disc       = flag.Int("disc", 2, "voluntary discussion length")
		randomInit = flag.Bool("random-init", false, "start from an arbitrary configuration (CC only)")
		daemonName = flag.String("daemon", "weakly-fair", "weakly-fair | synchronous | central | random")
		runs       = flag.Int("runs", 1, "independent replicas fanned across the worker pool, seeds seed..seed+runs-1; each parses -topo with its own seed, so a random family such as scenario:14 draws a fresh topology per replica")
		workers    = flag.Int("j", 0, "worker-pool width (0 = GOMAXPROCS)")
	)
	flag.Parse()

	h, err := hypergraph.Parse(*topo, rand.New(rand.NewSource(*seed)))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mkDaemon := func() sim.Daemon {
		switch *daemonName {
		case "weakly-fair":
			return &sim.WeaklyFair{MaxAge: 6}
		case "synchronous":
			return sim.Synchronous{}
		case "central":
			return &sim.Central{}
		case "random":
			return sim.RandomSubset{P: 0.5}
		}
		fmt.Fprintf(os.Stderr, "unknown daemon %q\n", *daemonName)
		os.Exit(2)
		return nil
	}
	mkDaemon() // validate the name before any run starts
	switch *algName {
	case "cc1", "cc2", "cc3", "dining", "token-ring":
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
		os.Exit(2)
	}

	if *workers > 0 {
		par.Workers = *workers
	}

	fmt.Printf("topology: %s\n", h)
	fmt.Printf("minMM=%d  MaxMin=%d  MaxHEdge=%d  Theorem5Bound=%d  Theorem8Bound=%d\n",
		firstOf(h.MinMaximalMatching()), h.MaxMin(), h.MaxHEdge(), h.Theorem5Bound(), h.Theorem8Bound())

	if *runs > 1 {
		runReplicas(*algName, *topo, mkDaemon, *steps, *seed, *disc, *randomInit, *runs)
		return
	}

	switch *algName {
	case "cc1", "cc2", "cc3":
		r, chk := oneCCRun(*algName, h, mkDaemon(), *steps, *seed, *disc, *randomInit)
		fmt.Printf("\n%s after %d steps (%d rounds):\n", r.Alg.Variant, r.Engine.Steps(), r.Engine.Rounds())
		fmt.Printf("  total convenes:    %d\n", r.TotalConvenes())
		fmt.Printf("  per committee:     %v\n", r.Convenes)
		fmt.Printf("  per professor:     %v\n", r.ProfMeetings)
		fmt.Printf("  max wait (rounds): %v\n", r.MaxWaitRounds)
		fmt.Printf("  mean concurrency:  %.2f (peak %d)\n", r.MeanConcurrency(), r.PeakConcurrency)
		fmt.Printf("  meetings now:      %v\n", r.Alg.Meetings(r.Config()))
		report(chk.Violations)
	case "dining", "token-ring":
		r, viols := oneBaselineRun(*algName, h, mkDaemon(), *steps, *seed, *disc)
		fmt.Printf("\n%s after %d steps (%d rounds):\n", r.Alg.Kind, r.Engine.Steps(), r.Engine.Rounds())
		fmt.Printf("  total convenes:   %d\n", r.TotalConvenes())
		fmt.Printf("  per committee:    %v\n", r.Convenes)
		fmt.Printf("  per professor:    %v\n", r.ProfMeetings)
		fmt.Printf("  mean concurrency: %.2f (peak %d)\n", r.MeanConcurrency(), r.PeakConcurrency)
		report(viols)
	}
}

func oneCCRun(algName string, h *hypergraph.H, d sim.Daemon, steps int, seed int64, disc int, randomInit bool) (*core.Runner, *spec.Checker[core.State]) {
	variant := map[string]core.Variant{"cc1": core.CC1, "cc2": core.CC2, "cc3": core.CC3}[algName]
	alg := core.New(variant, h, nil)
	env := core.NewAlwaysClient(h.N(), disc)
	r := core.NewRunner(alg, d, env, seed, randomInit)
	chk := r.Checker(0)
	r.Run(steps)
	return r, chk
}

func oneBaselineRun(algName string, h *hypergraph.H, d sim.Daemon, steps int, seed int64, disc int) (*baseline.Runner, []spec.Violation) {
	kind := baseline.Dining
	if algName == "token-ring" {
		kind = baseline.TokenRing
	}
	a := baseline.New(kind, h, disc)
	r := baseline.NewRunner(a, d, seed)
	chk := spec.NewChecker(a.Probe(), 0)
	chk.Check(0, r.Engine.Config())
	r.Engine.Observe(func(step int, cfg []baseline.BState, _ []sim.Exec) {
		chk.Check(step, cfg)
	})
	r.Run(steps)
	return r, chk.Violations
}

// replica is the aggregate-relevant outcome of one replica.
type replica struct {
	topo       string
	convenes   int
	meanConc   float64
	peakConc   int
	minProf    int
	violations int
}

// runReplicas fans independent (seed) cells of the same configuration
// across the shared worker pool and prints aggregate statistics. Each
// replica parses topoSpec with its own seed.
func runReplicas(algName, topoSpec string, mkDaemon func() sim.Daemon, steps int, seed int64, disc int, randomInit bool, runs int) {
	cells := par.Map(runs, func(i int) replica {
		s := seed + int64(i)
		h, err := hypergraph.Parse(topoSpec, rand.New(rand.NewSource(s)))
		if err != nil {
			panic(err) // unreachable: main parsed the same spec
		}
		switch algName {
		case "cc1", "cc2", "cc3":
			r, chk := oneCCRun(algName, h, mkDaemon(), steps, s, disc, randomInit)
			return replica{
				topo: h.String(), convenes: r.TotalConvenes(), meanConc: r.MeanConcurrency(),
				peakConc: r.PeakConcurrency, minProf: r.MinProfMeetings(),
				violations: len(chk.Violations),
			}
		case "dining", "token-ring":
			r, viols := oneBaselineRun(algName, h, mkDaemon(), steps, s, disc)
			return replica{
				topo: h.String(), convenes: r.TotalConvenes(), meanConc: r.MeanConcurrency(),
				peakConc: r.PeakConcurrency, minProf: r.MinProfMeetings(),
				violations: len(viols),
			}
		}
		panic("unreachable: -alg validated in main") // validated before the fan-out
	})

	convs := make([]int, runs)
	totalConv, totalViol, peak := 0, 0, 0
	var sumConc float64
	minProf := -1
	topos := map[string]bool{}
	for i, c := range cells {
		convs[i] = c.convenes
		totalConv += c.convenes
		sumConc += c.meanConc
		totalViol += c.violations
		topos[c.topo] = true
		if c.peakConc > peak {
			peak = c.peakConc
		}
		if minProf == -1 || c.minProf < minProf {
			minProf = c.minProf
		}
	}
	sort.Ints(convs)
	fmt.Printf("\n%s × %d replicas (seeds %d..%d, %d steps each, %d workers):\n",
		algName, runs, seed, seed+int64(runs)-1, steps, par.Workers)
	if len(topos) > 1 {
		fmt.Printf("  topologies:        %d distinct, one drawn per replica seed\n", len(topos))
	}
	fmt.Printf("  convenes:          total %d  mean %.1f  min %d  median %d  max %d\n",
		totalConv, float64(totalConv)/float64(runs), convs[0], convs[runs/2], convs[runs-1])
	fmt.Printf("  mean concurrency:  %.2f (peak %d)\n", sumConc/float64(runs), peak)
	fmt.Printf("  min meetings/prof: %d\n", minProf)
	if totalViol > 0 {
		fmt.Printf("  VIOLATIONS: %d across replicas\n", totalViol)
		for i, c := range cells {
			if c.violations > 0 {
				fmt.Printf("    seed %d  %s: %d violations\n", seed+int64(i), c.topo, c.violations)
			}
		}
		os.Exit(1)
	}
	fmt.Printf("  violations:        none\n")
}

func firstOf(a int, _ []int) int { return a }

func report(violations []spec.Violation) {
	if len(violations) == 0 {
		fmt.Println("  violations:        none")
		return
	}
	fmt.Printf("  VIOLATIONS (%d):\n", len(violations))
	for i, v := range violations {
		if i == 10 {
			fmt.Printf("    ... and %d more\n", len(violations)-10)
			break
		}
		fmt.Printf("    %s\n", v)
	}
	os.Exit(1)
}
