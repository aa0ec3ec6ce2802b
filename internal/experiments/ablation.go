package experiments

import (
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/sim"
)

// EXP-ABL — ablations of the paper's explicit design choices:
//
//  1. CC2's token holders select a *smallest* incident committee; the
//     paper says the restriction "is used only to slightly enhance the
//     concurrency" (§5.1). We measure the degree of fair concurrency
//     with and without it on topologies mixing small and large
//     committees: without the restriction the holder may camp on a big
//     committee, blocking more professors and lowering the quiescent
//     meeting count.
//  2. The nondeterministic committee choice in Step21/Step13 ("P_p := ε
//     such that ε ∈ FreeEdges_p") — deterministic first-index versus
//     uniformly random — to confirm liveness does not hinge on the
//     choice strategy.
func init() {
	register(Experiment{
		ID:   "ABL",
		What: "Ablations: CC2 min-size committee rule; free-edge choice strategy",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "ABL"}
			samples, steps := 16, 80000
			if cfg.Quick {
				samples, steps = 8, 40000
			}

			// Mixed-size topologies where min-size has something to do:
			// a small committee and a large one share each token stop.
			mixed := []family{
				{"figure1", hypergraph.Figure1()},
				{"figure4", hypergraph.Figure4()},
				{"triples+pairs", hypergraph.MustNew(8, []hypergraph.Edge{
					{0, 1}, {1, 2, 3, 4}, {4, 5}, {5, 6, 7}, {0, 7},
				})},
			}
			t := &Table{
				Title: "Ablation 1: CC2 token target = MinEdges vs any incident committee",
				Note: "Degree of fair concurrency (min/mean quiescent meetings over random " +
					"starts). The paper predicts the min-size rule helps concurrency.",
				Header: []string{"topology", "min (MinEdges)", "mean (MinEdges)", "min (any)", "mean (any)"},
			}
			var sumWith, sumWithout float64
			type pair struct{ withMin, without concurrency }
			pairs := par.Map(len(mixed), func(i int) pair {
				return pair{
					withMin: degreeOfFairConcurrency(core.CC2, mixed[i].h, samples, steps, cfg.Seed, false, false),
					without: degreeOfFairConcurrency(core.CC2, mixed[i].h, samples, steps, cfg.Seed, false, true),
				}
			})
			for i, f := range mixed {
				withMin, without := pairs[i].withMin, pairs[i].without
				t.AddRow(f.name, withMin.Min, withMin.Mean, without.Min, without.Mean)
				if withMin.Quiesced == 0 || without.Quiesced == 0 {
					res.failf("%s: runs did not quiesce (min=%d/%d)", f.name, withMin.Quiesced, without.Quiesced)
				}
				sumWith += withMin.Mean
				sumWithout += without.Mean
				// Sanity: the ablated variant must still satisfy the
				// Theorem 5 bound (the proof never uses the min rule).
				if without.Quiesced > 0 && without.Min < f.h.Theorem5Bound() {
					res.failf("%s: ablated CC2 fell below the Theorem 5 bound", f.name)
				}
			}
			// The paper only claims a *slight* enhancement (§5.1); with a
			// finite sample the reproduction claim is one-sided with a
			// noise margin: across the mixed topologies the min-size rule
			// must not be worse, and usually shows a visible edge.
			if sumWithout > sumWith+0.10 {
				res.failf("min-size rule hurt aggregate concurrency (%.2f with vs %.2f without)", sumWith, sumWithout)
			}

			// Ablation 2: choice strategy.
			t2 := &Table{
				Title:  "Ablation 2: free-edge choice (Step21/Step13) — first-index vs random",
				Header: []string{"algorithm", "topology", "choice", "convenes/100 rounds", "min meetings/prof"},
			}
			tsteps := 30000
			if cfg.Quick {
				tsteps = 12000
			}
			type gridCell struct {
				variant core.Variant
				f       family
				name    string
				fn      core.ChoiceFunc
			}
			var grid []gridCell
			for _, variant := range []core.Variant{core.CC1, core.CC2} {
				for _, f := range []family{{"ring8", hypergraph.CommitteeRing(8)}, {"figure1", hypergraph.Figure1()}} {
					for _, choice := range []struct {
						name string
						fn   core.ChoiceFunc
					}{{"first", core.ChooseFirst}, {"random", core.ChooseRandom}} {
						grid = append(grid, gridCell{variant, f, choice.name, choice.fn})
					}
				}
			}
			outs := par.Map(len(grid), func(i int) throughput {
				g := grid[i]
				alg := core.New(g.variant, g.f.h, nil)
				alg.Choose = g.fn
				env := core.NewAlwaysClient(g.f.h.N(), 2)
				r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, cfg.Seed, false)
				r.Run(tsteps)
				return profileOf(&r.Counts)
			})
			for i, g := range grid {
				o := outs[i]
				t2.AddRow(g.variant.String(), g.f.name, g.name, o.ConvenesPer100R, o.MinProfMeetings)
				if o.Convenes == 0 {
					res.failf("%v/%s/%s: no meetings", g.variant, g.f.name, g.name)
				}
				if g.variant == core.CC2 && o.MinProfMeetings == 0 {
					res.failf("%v/%s/%s: fairness lost under this choice strategy", g.variant, g.f.name, g.name)
				}
			}
			res.Tables = []*Table{t, t2}
			return res
		},
	})
}
