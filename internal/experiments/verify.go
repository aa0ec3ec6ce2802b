package experiments

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/par"
	"repro/internal/store"
)

// MC — bounded exhaustive model checking of the paper's safety theorems.
// Where every other experiment samples computations, MC enumerates them:
// the full reachable configuration space of CC1/CC2/CC3 on small
// topologies from the entire CC-layer fault family, branching over every
// daemon choice. Checked on every state/transition: Exclusion,
// Synchronization, Essential Discussion (§2.3–2.4 via §2.5
// snap-stabilization), closure of Correct(p) (Lemmas 3/8), the
// one-round convergence bound (Corollaries 3/5, synchronous mode), and
// deadlock-freedom. The baselines are explored from their legitimate
// configuration for contrast — the dining reduction's schedule-dependent
// wedge on the 3-ring is reported but is not a failing claim (the
// related-work algorithms make no stabilization promise).
//
// Every cell is a content-addressed job spec run through campaign.Cell
// — the same lifecycle behind cccheck and ccserve — so with
// Config.Store set, verdicts flow through the shared store in both
// directions.
func init() {
	register(Experiment{
		ID:   "MC",
		What: "exhaustive verification: §2.5 snap-stabilization safety on bounded instances",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "MC"}
			table := &Table{
				Title: "Exhaustive state-space checks",
				Note: "Every initial configuration of the listed fault family, every daemon choice of the " +
					"listed branching mode; a row verifies iff no state or transition violates the spec.",
				Header: []string{"algorithm", "topology", "init family", "daemon branching", "inits", "states", "transitions", "deadlocks", "violations"},
			}

			// Cells fan across the pool, so each explores with one worker
			// (the ExecOptions zero value).
			runCell := func(spec store.JobSpec) (*explore.Result, error) {
				out := campaign.Cell(context.Background(), cfg.Store, spec, campaign.ExecOptions{})
				return out.Result, out.Failure()
			}

			cell := func(alg, topo, init, daemon string) store.JobSpec {
				return store.JobSpec{
					Alg: alg, Topo: topo, Init: init, Daemon: daemon,
					Seed: cfg.Seed, MaxStates: 6_000_000, MaxViolations: 5,
				}
			}
			cells := []store.JobSpec{
				cell("cc1", "ring:3", "cc-full", "central"),
				cell("cc1", "ring:3", "cc-full", "synchronous"),
				cell("cc2", "ring:3", "cc-full", "central"),
				cell("cc2", "ring:3", "cc-full", "synchronous"),
				cell("cc2", "ring:3", "cc-full", "all-subsets"),
				cell("cc3", "ring:3", "cc-full", "central"),
				cell("cc2", "star:4", "cc", "all-subsets"),
			}
			if !cfg.Quick {
				cells = append(cells,
					cell("cc1", "ring:3", "cc-full", "all-subsets"),
					cell("cc3", "ring:3", "cc-full", "all-subsets"),
					// Central/all-subsets branching over the triples fault
					// space exceeds the state budget; the synchronous mode
					// completes and carries the convergence-bound check.
					cell("cc2", "triples:3", "cc", "synchronous"),
				)
			}

			type outcome struct {
				r   *explore.Result
				err error
			}
			results := par.Map(len(cells), func(i int) outcome {
				r, err := runCell(cells[i])
				return outcome{r, err}
			})
			for i, o := range results {
				c := cells[i].Canonical()
				if o.err != nil {
					res.failf("MC %s: %v", c, o.err)
					continue
				}
				r := o.r
				table.AddRow(c.Alg, c.Topo, c.Init, c.Daemon,
					r.Inits, r.States, r.Transitions, r.Deadlocks, len(r.Violations))
				switch {
				case !r.Ok(): // before Truncated: hitting the violations cap also truncates
					res.failf("MC %s/%s/%s: %s", c.Alg, c.Topo, c.Daemon, r.Violations[0])
				case r.Truncated:
					res.failf("MC %s/%s/%s: exploration truncated (%s) — raise the bound", c.Alg, c.Topo, c.Daemon, r.Summary())
				case r.Deadlocks > 0:
					res.failf("MC %s/%s/%s: %d deadlocks", c.Alg, c.Topo, c.Daemon, r.Deadlocks)
				}
			}
			res.Tables = append(res.Tables, table)

			// Baselines, for contrast (informational: no stabilization claim).
			bt := &Table{
				Title: "Baselines from the legitimate configuration (contrast, not a claim)",
				Note: "The dining reduction wedges under some central schedules on the 3-ring; " +
					"the snap-stabilizing algorithms above verify deadlock-free on the same topology.",
				Header: []string{"algorithm", "topology", "states", "transitions", "deadlocks", "spec violations"},
			}
			for _, alg := range []string{"dining", "token-ring"} {
				spec := store.JobSpec{
					Alg: alg, Topo: "ring:3", Init: "legit", Daemon: "central",
					MaxStates: 2_000_000, MaxViolations: 5, NoDeadlock: true,
				}
				r, err := runCell(spec)
				if err != nil {
					res.failf("MC baseline %s: %v", alg, err)
					continue
				}
				specViol := 0
				for _, v := range r.Violations {
					if v.Kind != explore.KindDeadlock {
						specViol++
					}
				}
				bt.AddRow(alg, "ring:3", r.States, r.Transitions, r.Deadlocks, specViol)
				if specViol > 0 {
					res.failf("MC baseline %s: spec violation from the legitimate configuration: %s",
						alg, r.Violations[0])
				}
			}
			res.Tables = append(res.Tables, bt)
			return res
		},
	})
}
