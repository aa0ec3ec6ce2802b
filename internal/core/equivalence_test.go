package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// The runner NewRunner builds — incremental enabled-set maintenance,
// actions picked by the Kernel — must be observationally identical to
// the reference: the guard walk over a full rescan. Same Exec trace
// step for step, same configurations, same round accounting — across
// every daemon, every algorithm variant, random initial configurations
// and many seeds. This is the soundness witness for the Locality
// declaration in (*Alg).Program, for the EnvTracker-based cache
// invalidation and for the kernel's committee stamps and token-layer
// memo.

func equivDaemons() []struct {
	name string
	mk   func() sim.Daemon
} {
	return []struct {
		name string
		mk   func() sim.Daemon
	}{
		{"synchronous", func() sim.Daemon { return sim.Synchronous{} }},
		{"central-rr", func() sim.Daemon { return &sim.Central{} }},
		{"central-random", func() sim.Daemon { return sim.CentralRandom{} }},
		{"random-subset", func() sim.Daemon { return sim.RandomSubset{P: 0.4} }},
		{"weakly-fair", func() sim.Daemon { return &sim.WeaklyFair{MaxAge: 5} }},
	}
}

// tracedRunner builds a Runner over its own Alg/Env instances (so the
// pair share nothing) and records every step's executions. ref selects
// the reference side: the guard walk over a full rescan (NoLocality);
// otherwise it is the runner NewRunner builds. masked wraps the env in
// a Masked that keeps every third professor from requesting in.
func tracedRunner(variant core.Variant, h *hypergraph.H, d sim.Daemon, seed int64, ref, masked bool, trace *[][]sim.Exec) *core.Runner {
	alg := core.New(variant, h, nil)
	var env core.Env = core.NewClient(h.N(), 1, 1, 3, seed+1000)
	if masked {
		idle := make([]bool, h.N())
		for p := 0; p < h.N(); p += 3 {
			idle[p] = true
		}
		env = &core.Masked{Env: env, Idle: idle}
	}
	var r *core.Runner
	if ref {
		alg.NoLocality = true
		r = core.NewGuardWalkRunner(alg, d, env, seed, true)
	} else {
		r = core.NewRunner(alg, d, env, seed, true)
	}
	r.Engine.Observe(func(step int, cfg []core.State, execs []sim.Exec) {
		*trace = append(*trace, append([]sim.Exec(nil), execs...))
	})
	return r
}

func TestIncrementalTraceEquivalence(t *testing.T) {
	h := hypergraph.Figure1()
	steps := 300
	for _, variant := range []core.Variant{core.CC1, core.CC2, core.CC3} {
		for _, d := range equivDaemons() {
			for seed := int64(1); seed <= 10; seed++ {
				name := fmt.Sprintf("%v/%s/seed%d", variant, d.name, seed)
				var tFull, tIncr [][]sim.Exec
				full := tracedRunner(variant, h, d.mk(), seed, true, false, &tFull)
				incr := tracedRunner(variant, h, d.mk(), seed, false, false, &tIncr)
				full.Run(steps)
				incr.Run(steps)
				if !reflect.DeepEqual(tFull, tIncr) {
					for i := range tFull {
						if i >= len(tIncr) || !reflect.DeepEqual(tFull[i], tIncr[i]) {
							t.Fatalf("%s: traces diverge at step %d: full=%v incr=%v", name, i+1, at(tFull, i), at(tIncr, i))
						}
					}
					t.Fatalf("%s: incremental trace has %d extra steps", name, len(tIncr)-len(tFull))
				}
				if !reflect.DeepEqual(full.Config(), incr.Config()) {
					t.Fatalf("%s: final configurations diverge", name)
				}
				if full.Engine.Rounds() != incr.Engine.Rounds() {
					t.Fatalf("%s: rounds diverge: full=%d incr=%d", name, full.Engine.Rounds(), incr.Engine.Rounds())
				}
				if full.TotalConvenes() != incr.TotalConvenes() {
					t.Fatalf("%s: convene counts diverge", name)
				}
			}
		}
	}
}

func at(tr [][]sim.Exec, i int) any {
	if i < len(tr) {
		return tr[i]
	}
	return "<missing>"
}

// TestIncrementalEquivalenceAcrossTopologies widens the topology set at a
// reduced seed count (the weakly fair daemon is the default throughout
// the experiments, so it gets the coverage). The masked rows run
// Figure 3's Masked env, whose forwarded change tracking keeps the
// incremental side's cache per-process.
func TestIncrementalEquivalenceAcrossTopologies(t *testing.T) {
	for _, tc := range []struct {
		h      *hypergraph.H
		masked bool
	}{
		{hypergraph.CommitteeRing(8), false},
		{hypergraph.CommitteePath(7), false},
		{hypergraph.Figure3(), false},
		{hypergraph.Star(6), false},
		{hypergraph.Figure3(), true},
		{hypergraph.CommitteeRing(8), true},
	} {
		h := tc.h
		for _, variant := range []core.Variant{core.CC1, core.CC2} {
			for seed := int64(1); seed <= 3; seed++ {
				var tFull, tIncr [][]sim.Exec
				full := tracedRunner(variant, h, &sim.WeaklyFair{MaxAge: 5}, seed, true, tc.masked, &tFull)
				incr := tracedRunner(variant, h, &sim.WeaklyFair{MaxAge: 5}, seed, false, tc.masked, &tIncr)
				full.Run(400)
				incr.Run(400)
				if !reflect.DeepEqual(tFull, tIncr) {
					t.Fatalf("%v/%s/masked=%v/seed%d: traces diverge", variant, h, tc.masked, seed)
				}
				if !reflect.DeepEqual(full.Config(), incr.Config()) {
					t.Fatalf("%v/%s/masked=%v/seed%d: final configurations diverge", variant, h, tc.masked, seed)
				}
			}
		}
	}
}

// TestIncrementalEquivalenceUnderFaults injects identical mid-run
// corruption into both engines (MutateProc forces the incremental path
// onto its full-rescan fallback) and requires the suffixes to match.
// The corrupted TC fields (Lid, Dist, A, H) are what invalidates the
// kernel's token-layer memo.
func TestIncrementalEquivalenceUnderFaults(t *testing.T) {
	h := hypergraph.Figure1()
	for seed := int64(1); seed <= 5; seed++ {
		var tFull, tIncr [][]sim.Exec
		full := tracedRunner(core.CC2, h, &sim.WeaklyFair{MaxAge: 5}, seed, true, false, &tFull)
		incr := tracedRunner(core.CC2, h, &sim.WeaklyFair{MaxAge: 5}, seed, false, false, &tIncr)
		corrupt := func(r *core.Runner) {
			// Deterministic corruption: same states injected on each side.
			r.Engine.MutateProc(2, func(s *core.State) {
				s.S, s.P, s.T, s.L = core.Waiting, 1, true, true
				s.TC.A, s.TC.H = true, 0
			})
			r.Engine.MutateProc(4, func(s *core.State) {
				s.S, s.P = core.Done, 0
				s.TC.Lid, s.TC.Dist = -7, 2
			})
		}
		for phase := 0; phase < 3; phase++ {
			full.Run(150)
			incr.Run(150)
			corrupt(full)
			corrupt(incr)
		}
		full.Run(150)
		incr.Run(150)
		if !reflect.DeepEqual(tFull, tIncr) {
			t.Fatalf("seed %d: traces diverge under fault injection", seed)
		}
		if !reflect.DeepEqual(full.Config(), incr.Config()) {
			t.Fatalf("seed %d: final configurations diverge under fault injection", seed)
		}
	}
}

// TestKernelRunnerMatchesGuardWalk pins the kernel-driven runner to the
// guard walk under otherwise identical settings — the same Alg switches,
// Env and Locality on both sides, so the chooser is the only difference
// — across every daemon and variant, the NoMinSize and NoLocality
// ablations, a topology past 64 processes, the masked env and TC
// corruption mid-run. After every step the kernel side's Enabled() must
// also equal the guard walk's enabled set on its own configuration.
func TestKernelRunnerMatchesGuardWalk(t *testing.T) {
	type kcase struct {
		name                  string
		variant               core.Variant
		h                     *hypergraph.H
		daemon                func() sim.Daemon
		noMinSize, noLocality bool
		masked                bool
		steps                 int
	}
	var cases []kcase
	for _, variant := range []core.Variant{core.CC1, core.CC2, core.CC3} {
		for _, d := range equivDaemons() {
			cases = append(cases, kcase{name: fmt.Sprintf("%v/%s", variant, d.name), variant: variant,
				h: hypergraph.Figure1(), daemon: d.mk, steps: 300})
		}
	}
	weak := func() sim.Daemon { return &sim.WeaklyFair{MaxAge: 5} }
	cases = append(cases,
		kcase{name: "CC2/nominsize", variant: core.CC2, h: hypergraph.Figure1(), daemon: weak, noMinSize: true, steps: 300},
		kcase{name: "CC1/nolocality", variant: core.CC1, h: hypergraph.Figure3(), daemon: weak, noLocality: true, steps: 300},
		kcase{name: "CC3/nolocality", variant: core.CC3, h: hypergraph.Figure1(), daemon: weak, noLocality: true, steps: 300},
		kcase{name: "CC2/ring70", variant: core.CC2, h: hypergraph.CommitteeRing(70), daemon: weak, steps: 250},
		kcase{name: "CC1/ring70", variant: core.CC1, h: hypergraph.CommitteeRing(70), daemon: weak, steps: 250},
		kcase{name: "CC1/fig3/masked", variant: core.CC1, h: hypergraph.Figure3(), daemon: weak, masked: true, steps: 300},
	)
	build := func(c kcase, seed int64, kernel bool, trace *[][]sim.Exec) *core.Runner {
		alg := core.New(c.variant, c.h, nil)
		alg.NoMinSize, alg.NoLocality = c.noMinSize, c.noLocality
		var env core.Env = core.NewClient(c.h.N(), 1, 1, 3, seed+1000)
		if c.masked {
			idle := make([]bool, c.h.N())
			idle[c.h.N()-1] = true
			env = &core.Masked{Env: env, Idle: idle}
		}
		var r *core.Runner
		if kernel {
			r = core.NewRunner(alg, c.daemon(), env, seed, true)
		} else {
			r = core.NewGuardWalkRunner(alg, c.daemon(), env, seed, true)
		}
		r.Engine.Observe(func(_ int, _ []core.State, execs []sim.Exec) {
			*trace = append(*trace, append([]sim.Exec(nil), execs...))
		})
		return r
	}
	corrupt := func(r *core.Runner, p int) {
		r.Engine.MutateProc(p, func(s *core.State) {
			s.TC.Lid, s.TC.Dist = -3, 1
			s.TC.A, s.TC.H = !s.TC.A, 1-s.TC.H
		})
	}
	var want []int
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", c.name, seed)
			var tRef, tKer [][]sim.Exec
			ref := build(c, seed, false, &tRef)
			ker := build(c, seed, true, &tKer)
			for step := 0; step < c.steps; step++ {
				if step == c.steps/2 {
					corrupt(ref, step%c.h.N())
					corrupt(ker, step%c.h.N())
				}
				nRef, nKer := ref.Run(1), ker.Run(1)
				if nRef != nKer || !reflect.DeepEqual(tRef, tKer) {
					t.Fatalf("%s: traces diverge at step %d: guard walk %v, kernel %v", name, step+1, at(tRef, len(tRef)-1), at(tKer, len(tKer)-1))
				}
				want = want[:0]
				for p := 0; p < c.h.N(); p++ {
					if ker.Engine.EnabledAction(p) >= 0 {
						want = append(want, p)
					}
				}
				if got := ker.Engine.Enabled(); !slices.Equal(got, want) {
					t.Fatalf("%s step %d: kernel enabled set %v, guard walk %v", name, step+1, got, want)
				}
				if nRef == 0 {
					break
				}
			}
			if !reflect.DeepEqual(ref.Config(), ker.Config()) || ref.Engine.Rounds() != ker.Engine.Rounds() {
				t.Fatalf("%s: final configurations or rounds diverge", name)
			}
		}
	}
}
