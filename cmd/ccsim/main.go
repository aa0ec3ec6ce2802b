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
	_, isCC := variants[*algName]
	if _, ok := baselines[*algName]; !ok && !isCC {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
		os.Exit(2)
	}
	if *randomInit && !isCC {
		fmt.Fprintf(os.Stderr, "the %s baseline is not self-stabilizing: -random-init applies to cc1, cc2 and cc3 only\n", *algName)
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

	o := simulate(*algName, h, mkDaemon(), *steps, *seed, *disc, *randomInit)
	c := &o.counts
	fmt.Printf("\n%s after %d steps (%d rounds):\n", o.name, c.Steps, c.Rounds)
	fmt.Printf("  total convenes:    %d\n", c.TotalConvenes())
	fmt.Printf("  per committee:     %v\n", c.Convenes)
	fmt.Printf("  per professor:     %v\n", c.ProfMeetings)
	fmt.Printf("  max wait (rounds): %v\n", c.MaxWaitRounds())
	fmt.Printf("  mean concurrency:  %.2f (peak %d)\n", c.MeanConcurrency(), c.PeakConcurrency)
	fmt.Printf("  meetings now:      %v\n", o.meetings)
	report(o.violations)
}

var (
	variants  = map[string]core.Variant{"cc1": core.CC1, "cc2": core.CC2, "cc3": core.CC3}
	baselines = map[string]baseline.Kind{"dining": baseline.Dining, "token-ring": baseline.TokenRing}
)

// outcome is one monitored run of any of the five algorithms.
type outcome struct {
	name       string
	topo       string
	counts     spec.Counts
	meetings   []int // committees meeting at the end
	violations []spec.Violation
}

// simulate runs algName on h under the runtime monitors.
func simulate(algName string, h *hypergraph.H, d sim.Daemon, steps int, seed int64, disc int, randomInit bool) outcome {
	if kind, ok := baselines[algName]; ok {
		a := baseline.New(kind, h, disc)
		r := baseline.NewRunner(a, d, seed)
		chk := r.Checker(0)
		r.Run(steps)
		return outcome{kind.String(), h.String(), r.Counts, a.Meetings(r.Engine.Config()), chk.Violations}
	}
	alg := core.New(variants[algName], h, nil)
	r := core.NewRunner(alg, d, core.NewAlwaysClient(h.N(), disc), seed, randomInit)
	chk := r.Checker(0)
	r.Run(steps)
	return outcome{alg.Variant.String(), h.String(), r.Counts, alg.Meetings(r.Config()), chk.Violations}
}

// runReplicas fans independent (seed) cells of the same configuration
// across the shared worker pool and prints aggregate statistics. Each
// replica parses topoSpec with its own seed.
func runReplicas(algName, topoSpec string, mkDaemon func() sim.Daemon, steps int, seed int64, disc int, randomInit bool, runs int) {
	cells := par.Map(runs, func(i int) outcome {
		s := seed + int64(i)
		h, err := hypergraph.Parse(topoSpec, rand.New(rand.NewSource(s)))
		if err != nil {
			panic(err) // unreachable: main parsed the same spec
		}
		return simulate(algName, h, mkDaemon(), steps, s, disc, randomInit)
	})

	convs := make([]int, runs)
	totalConv, totalViol, peak := 0, 0, 0
	var sumConc float64
	minProf := -1
	topos := map[string]bool{}
	for i, o := range cells {
		c := &o.counts
		convs[i] = c.TotalConvenes()
		totalConv += convs[i]
		sumConc += c.MeanConcurrency()
		totalViol += len(o.violations)
		topos[o.topo] = true
		peak = max(peak, c.PeakConcurrency)
		if minProf == -1 || c.MinProfMeetings() < minProf {
			minProf = c.MinProfMeetings()
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
		for i, o := range cells {
			if len(o.violations) > 0 {
				fmt.Printf("    seed %d  %s: %d violations\n", seed+int64(i), o.topo, len(o.violations))
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
