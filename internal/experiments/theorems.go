package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/sim"
)

// family is a named topology used across the theorem experiments.
type family struct {
	name string
	h    *hypergraph.H
}

func smallFamilies() []family {
	return []family{
		{"figure1", hypergraph.Figure1()},
		{"figure4", hypergraph.Figure4()},
		{"ring8", hypergraph.CommitteeRing(8)},
		{"path7", hypergraph.CommitteePath(7)},
		{"triples3", hypergraph.ChainOfTriples(3)},
		{"star6", hypergraph.Star(6)},
	}
}

// EXP-T2 — Theorem 2: CC1 ∘ TC is snap-stabilizing, satisfies the
// 2-phase committee coordination spec and Maximal Concurrency.
func init() {
	register(Experiment{
		ID:   "T2",
		What: "Theorem 2: CC1 snap-stabilization + Maximal Concurrency",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "T2"}
			seeds := 10
			steps := 3000
			if cfg.Quick {
				seeds, steps = 4, 1200
			}
			t := &Table{
				Title: "CC1 from arbitrary configurations (safety + progress)",
				Note: "Each cell aggregates runs from uniformly random initial " +
					"configurations under the weakly fair daemon. Snap-stabilization: " +
					"zero violations for meetings convened during the runs.",
				Header: []string{"topology", "runs", "violations", "total convenes", "min convenes/run"},
			}
			for _, f := range smallFamilies() {
				type cell struct{ viol, convenes int }
				cells := par.Map(seeds, func(s int) cell {
					alg := core.New(core.CC1, f.h, nil)
					env := core.NewAlwaysClient(f.h.N(), 2)
					r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, cfg.Seed+int64(s), true)
					chk := r.Checker(0)
					r.Run(steps)
					return cell{viol: len(chk.Violations), convenes: r.TotalConvenes()}
				})
				viol, total, minc := 0, 0, -1
				for _, c := range cells {
					viol += c.viol
					total += c.convenes
					if minc == -1 || c.convenes < minc {
						minc = c.convenes
					}
				}
				t.AddRow(f.name, seeds, viol, total, minc)
				if viol > 0 {
					res.failf("%s: %d specification violations", f.name, viol)
				}
				if minc == 0 {
					res.failf("%s: some run convened no meeting (progress)", f.name)
				}
			}

			// Maximal Concurrency (Definition 2): under never-terminating
			// meetings with every professor requesting, CC1 must keep
			// convening until no committee has all members waiting — i.e.
			// Π becomes (and stays) empty, equivalently the frozen
			// meetings form a *maximal* matching of H. This is the
			// schedule-independent form of Definition 2.
			t2 := &Table{
				Title:  "Definition 2: infinite meetings saturate to a maximal matching",
				Note:   "Each run goes on until nothing is enabled; the meetings it freezes with must be a maximal matching (Π = ∅).",
				Header: []string{"topology", "seed", "quiesced", "meetings form maximal matching", "#meetings"},
			}
			satFamilies := []family{
				{"path6", hypergraph.CommitteePath(6)},
				{"ring8", hypergraph.CommitteeRing(8)},
				{"figure1", hypergraph.Figure1()},
			}
			satCells := par.Map(len(satFamilies)*seeds, func(i int) quiescence {
				return quiesce(core.New(core.CC1, satFamilies[i/seeds].h, nil), cfg.Seed+int64(i%seeds), false, 40000)
			})
			for i, c := range satCells {
				f, s := satFamilies[i/seeds], i%seeds
				maximal := f.h.IsMaximalMatching(c.meetings, nil)
				t2.AddRow(f.name, s, c.quiesced, maximal, len(c.meetings))
				if !c.quiesced {
					res.failf("%s seed %d: never quiesced (meetings %v)", f.name, s, c.meetings)
				}
				if c.quiesced && !maximal {
					res.failf("%s seed %d: frozen meetings %v not a maximal matching", f.name, s, c.meetings)
				}
			}
			res.Tables = []*Table{t, t2}
			return res
		},
	})
}

// EXP-T3 — Theorem 3: CC2 ∘ TC is snap-stabilizing and professor-fair.
func init() {
	register(Experiment{
		ID:   "T3",
		What: "Theorem 3: CC2 snap-stabilization + Professor Fairness",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "T3"}
			steps := 40000
			if cfg.Quick {
				steps = 15000
			}
			t := &Table{
				Title: "CC2 fairness from arbitrary configurations",
				Note: "min/max meetings per professor over the run, and the largest " +
					"gap (in rounds) between successive participations.",
				Header: []string{"topology", "violations", "min meetings", "max meetings", "max wait (rounds)"},
			}
			fams := smallFamilies()
			type cell struct{ viol, min, max, wait int }
			cells := par.Map(len(fams), func(i int) cell {
				f := fams[i]
				alg := core.New(core.CC2, f.h, nil)
				env := core.NewAlwaysClient(f.h.N(), 2)
				r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, cfg.Seed, true)
				chk := r.Checker(0)
				r.Run(steps)
				c := cell{viol: len(chk.Violations), min: r.MinProfMeetings()}
				for p, w := range r.MaxWaitRounds() {
					if len(f.h.EdgesOf(p)) > 0 {
						c.max = max(c.max, r.ProfMeetings[p])
						c.wait = max(c.wait, w)
					}
				}
				return c
			})
			for i, c := range cells {
				f := fams[i]
				t.AddRow(f.name, c.viol, c.min, c.max, c.wait)
				if c.viol > 0 {
					res.failf("%s: %d violations", f.name, c.viol)
				}
				if c.min < 2 {
					res.failf("%s: a professor met only %d times (fairness)", f.name, c.min)
				}
			}
			res.Tables = []*Table{t}
			return res
		},
	})
}

// degreeTable builds the Theorems 4/5 (CC2) or 7/8 (CC3) table.
func degreeTable(variant core.Variant, cfg Config, res *Result) *Table {
	samples, steps := 12, 80000
	if cfg.Quick {
		samples, steps = 4, 40000
	}
	thName, exactName := "minMM-MaxMin+1", "min(MM∪AMM)"
	if variant == core.CC3 {
		thName, exactName = "minMM-MaxHEdge+1", "min(MM∪AMM')"
	}
	t := &Table{
		Title: fmt.Sprintf("Degree of fair concurrency of %s (quiescent meetings under infinite meetings)", variant),
		Note: "Observed = meetings held at quiescence from random arbitrary starts. " +
			"Theorems 4/7: observed ≥ exact combinatorial minimum; Theorems 5/8: exact ≥ analytic bound.",
		Header: []string{"topology", "n", "|E|", "minMM", thName, exactName, "observed min", "observed mean", "quiesced"},
	}
	fams := smallFamilies()
	ms := par.Map(len(fams), func(i int) concurrency {
		return degreeOfFairConcurrency(variant, fams[i].h, samples, steps, cfg.Seed, true, false)
	})
	for i, m := range ms {
		f := fams[i]
		t.AddRow(f.name, f.h.N(), f.h.M(), m.MinMM, m.Bound, m.ExactMin, m.Min, m.Mean, fmt.Sprintf("%d/%d", m.Quiesced, m.Samples))
		if m.Quiesced == 0 {
			res.failf("%s: no run quiesced", f.name)
			continue
		}
		if m.Min < m.ExactMin {
			res.failf("%s: observed degree %d below exact theorem minimum %d", f.name, m.Min, m.ExactMin)
		}
		if m.ExactMin < m.Bound {
			res.failf("%s: exact minimum %d below analytic bound %d", f.name, m.ExactMin, m.Bound)
		}
	}
	return t
}

// EXP-T45 — Theorems 4 and 5.
func init() {
	register(Experiment{
		ID:   "T45",
		What: "Theorems 4 & 5: degree of fair concurrency of CC2",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "T45"}
			res.Tables = []*Table{degreeTable(core.CC2, cfg, res)}
			return res
		},
	})
}

// EXP-T78 — Theorems 7 and 8 (CC3), plus the Committee Fairness witness.
func init() {
	register(Experiment{
		ID:   "T78",
		What: "Theorems 7 & 8: CC3 committee fairness and its degree",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "T78"}
			t := degreeTable(core.CC3, cfg, res)

			steps := 60000
			if cfg.Quick {
				steps = 25000
			}
			t2 := &Table{
				Title:  "Committee Fairness of CC3 (Definition 4)",
				Header: []string{"topology", "min convenes/committee", "max convenes/committee"},
			}
			for _, f := range []family{
				{"figure1", hypergraph.Figure1()},
				{"ring6", hypergraph.CommitteeRing(6)},
			} {
				alg := core.New(core.CC3, f.h, nil)
				env := core.NewAlwaysClient(f.h.N(), 2)
				r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, cfg.Seed, true)
				r.Run(steps)
				min, max := -1, 0
				for _, c := range r.Convenes {
					if min == -1 || c < min {
						min = c
					}
					if c > max {
						max = c
					}
				}
				t2.AddRow(f.name, min, max)
				if min < 1 {
					res.failf("%s: some committee never convened under CC3", f.name)
				}
			}
			res.Tables = []*Table{t, t2}
			return res
		},
	})
}

// EXP-T6 — Theorem 6: waiting time O(maxDisc · n) rounds.
func init() {
	register(Experiment{
		ID:   "T6",
		What: "Theorem 6: waiting time of CC2 is O(maxDisc × n) rounds",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "T6"}
			ns := []int{4, 8, 12, 16, 24}
			discs := []int{1, 4, 8}
			steps := 60000
			if cfg.Quick {
				ns = []int{4, 8, 12}
				discs = []int{1, 4}
				steps = 25000
			}
			t := &Table{
				Title: "Max waiting time on committee rings (rounds)",
				Note: "Theorem 6 predicts O(maxDisc × n); the normalized column " +
					"(maxWait / (maxDisc × n)) should stay bounded as n grows.",
				Header: []string{"n", "maxDisc", "max wait (rounds)", "mean wait", "normalized", "convenes"},
			}
			worst := 0.0
			ws := par.Map(len(ns)*len(discs), func(i int) waiting {
				n, d := ns[i/len(discs)], discs[i%len(discs)]
				return waitingTime(core.CC2, hypergraph.CommitteeRing(n), d, steps, cfg.Seed)
			})
			for i, w := range ws {
				n, d := ns[i/len(discs)], discs[i%len(discs)]
				t.AddRow(n, d, w.MaxRounds, w.MeanRounds, w.NormalizedN, w.Convenes)
				if w.Convenes == 0 {
					res.failf("n=%d disc=%d: no meetings", n, d)
				}
				if w.NormalizedN > worst {
					worst = w.NormalizedN
				}
			}
			// The constant is implementation-specific; the claim checked is
			// boundedness: no configuration should exceed a generous factor.
			if worst > 30 {
				res.failf("normalized waiting time %.1f suggests super-linear growth", worst)
			}
			res.Tables = []*Table{t}
			return res
		},
	})
}
