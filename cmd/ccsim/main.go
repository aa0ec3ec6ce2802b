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
//	ccsim -alg cc1 -topo fig3 -frames 12            # Figure 3 style frames
//	ccsim -alg cc2 -topo ring:6 -frames 4 -every 5  # a frame every 5 steps
//	ccsim -alg cc1 -topo fig3 -idle 4               # professor 4 never requests
//
// With -frames N a single CC run also prints its first N configurations
// as frames, like the paper's example computation (Figure 3): every
// professor's status, edge pointer and token flags, and the committees
// meeting. A frame is printed at the start and at each convene or
// terminate event, or every K steps with -every K. After the last frame
// the run goes on to -steps and reports as usual. -idle masks
// professors (paper ids) that never request; it applies to cc1, whose
// Maximal Concurrency does not assume every professor requests.
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
	"os"
	"sort"
	"strconv"
	"strings"

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
		nFrames    = flag.Int("frames", 0, "print the run's first N configurations as Figure 3 style frames (CC algorithms, single run)")
		every      = flag.Int("every", 0, "with -frames: a frame every K steps instead of one per convene or terminate event")
		idleSpec   = flag.String("idle", "", "comma-separated professor ids (paper ids) that never request (cc1 only, single run)")
	)
	flag.Parse()

	h, err := hypergraph.ParseSeeded(*topo, *seed)
	if err != nil {
		usagef("%v", err)
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
		usagef("unknown daemon %q", *daemonName)
		return nil
	}
	mkDaemon() // validate the name before any run starts
	_, isCC := variants[*algName]
	if _, ok := baselines[*algName]; !ok && !isCC {
		usagef("unknown algorithm %q", *algName)
	}
	if *randomInit && !isCC {
		usagef("the %s baseline is not self-stabilizing: -random-init applies to cc1, cc2 and cc3 only", *algName)
	}
	if *nFrames > 0 && !isCC {
		usagef("-frames renders CC configurations: it applies to cc1, cc2 and cc3 only")
	}
	if *every != 0 && *nFrames <= 0 {
		usagef("-every needs -frames N")
	}
	if (*nFrames > 0 || *idleSpec != "") && *runs > 1 {
		usagef("-frames and -idle apply to a single run (-runs 1)")
	}
	var idle []bool
	if *idleSpec != "" {
		if *algName != "cc1" {
			usagef("-idle only applies to cc1 (CC2/CC3 assume always-requesting professors)")
		}
		idle = make([]bool, h.N())
		for _, f := range strings.Split(*idleSpec, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				usagef("bad -idle entry %q", f)
			}
			v := h.VertexByID(id)
			if v < 0 {
				usagef("-idle: topology %s has no professor with id %d", *topo, id)
			}
			idle[v] = true
		}
	}

	if *workers > 0 {
		par.Workers = *workers
	}

	fmt.Printf("topology: %s\n", h)
	printBounds(h)

	if *runs > 1 {
		runReplicas(*algName, *topo, mkDaemon, *steps, *seed, *disc, *randomInit, *runs)
		return
	}

	o := simulate(*algName, h, mkDaemon(), *steps, *seed, *disc, *randomInit, idle, framer{*nFrames, *every})
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

// simulate runs algName on h under the runtime monitors. For a CC
// algorithm, idle (nil = none) masks professors that never request and
// fr prints the first frames of the run.
func simulate(algName string, h *hypergraph.H, d sim.Daemon, steps int, seed int64, disc int, randomInit bool, idle []bool, fr framer) outcome {
	if kind, ok := baselines[algName]; ok {
		a := baseline.New(kind, h, disc)
		r := baseline.NewRunner(a, d, seed)
		chk := r.Checker(0)
		r.Run(steps)
		return outcome{kind.String(), h.String(), r.Counts, a.Meetings(r.Engine.Config()), chk.Violations}
	}
	alg := core.New(variants[algName], h, nil)
	var env core.Env = core.NewAlwaysClient(h.N(), disc)
	if idle != nil {
		env = &core.Masked{Env: env, Idle: idle}
	}
	r := core.NewRunner(alg, d, env, seed, randomInit)
	chk := r.Checker(0)
	fr.run(r, steps)
	r.Run(steps - r.Engine.Steps())
	return outcome{alg.Variant.String(), h.String(), r.Counts, alg.Meetings(r.Config()), chk.Violations}
}

// runReplicas fans independent (seed) cells of the same configuration
// across the shared worker pool and prints aggregate statistics. Each
// replica parses topoSpec with its own seed.
func runReplicas(algName, topoSpec string, mkDaemon func() sim.Daemon, steps int, seed int64, disc int, randomInit bool, runs int) {
	cells := par.Map(runs, func(i int) outcome {
		s := seed + int64(i)
		h, err := hypergraph.ParseSeeded(topoSpec, s)
		if err != nil {
			panic(err) // unreachable: main parsed the same spec
		}
		return simulate(algName, h, mkDaemon(), steps, s, disc, randomInit, nil, framer{})
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

// minMMBudget caps the maximal matchings the header enumerates for
// minMM, whose count grows exponentially with the topology (about 1.3×
// per process on a committee ring: every ring up to 49 committees fits,
// in well under a second).
const minMMBudget = 1 << 20

// printBounds prints the header's matching line: minMM from one capped
// enumeration, and Theorems 5 and 8's bounds from it. Past the budget
// minMM and both bounds are reported as skipped.
func printBounds(h *hypergraph.H) {
	minMM, _, exact := h.MinMaximalMatchingWithin(minMMBudget)
	if !exact {
		fmt.Printf("minMM=skipped (over %d maximal matchings)  MaxMin=%d  MaxHEdge=%d  Theorem5Bound=skipped  Theorem8Bound=skipped\n",
			minMMBudget, h.MaxMin(), h.MaxHEdge())
		return
	}
	fmt.Printf("minMM=%d  MaxMin=%d  MaxHEdge=%d  Theorem5Bound=%d  Theorem8Bound=%d\n",
		minMM, h.MaxMin(), h.MaxHEdge(), h.Theorem5BoundOf(minMM), h.Theorem8BoundOf(minMM))
}

func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// framer prints the first n configurations of a CC run as frames: one
// at the start, then one per convene and terminate event, or one every
// `every` steps when every > 0.
type framer struct{ n, every int }

// run prints the initial frame and drives r until n frames are out, the
// run reaches steps, or it quiesces.
func (f framer) run(r *core.Runner, steps int) {
	if f.n <= 0 {
		return
	}
	alg, h := r.Alg, r.Alg.H
	ids := func(vs []int) string {
		out := make([]int, len(vs))
		for j, v := range vs {
			out[j] = h.ID(v)
		}
		return fmt.Sprint(out)
	}
	printed := 0
	frame := func(step int, label string) {
		printed++
		fmt.Printf("--- frame %d (step %d%s) ---\n", printed, step, label)
		cfg := r.Config()
		for p := 0; p < h.N(); p++ {
			ptr := "⊥"
			if cfg[p].P != core.NoEdge {
				ptr = ids(h.Edge(cfg[p].P))
			}
			marks := ""
			if cfg[p].T {
				marks += " [T]"
			}
			if alg.Token(cfg, p) {
				marks += " (token)"
			}
			if cfg[p].L {
				marks += " [L]"
			}
			fmt.Printf("  prof %-2d  %-8s P=%-12s%s\n", h.ID(p), cfg[p].S, ptr, marks)
		}
		meets := alg.Meetings(cfg)
		if len(meets) == 0 {
			fmt.Println("  meetings: none")
		} else {
			parts := make([]string, len(meets))
			for i, e := range meets {
				parts[i] = ids(h.Edge(e))
			}
			fmt.Printf("  meetings: %s\n", strings.Join(parts, " "))
		}
		fmt.Println()
	}

	frame(0, ", initial")
	if f.every <= 0 {
		r.OnConvene(func(step, e int) {
			if printed < f.n {
				frame(step, ", convene")
			}
		})
		r.OnTerminate(func(step, e int) {
			if printed < f.n {
				frame(step, ", terminate")
			}
		})
	}
	for printed < f.n && r.Engine.Steps() < steps {
		k := 1
		if f.every > 0 {
			k = min(f.every, steps-r.Engine.Steps())
		}
		if r.Run(k) == 0 {
			break
		}
		if f.every > 0 {
			frame(r.Engine.Steps(), "")
		}
	}
}

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
