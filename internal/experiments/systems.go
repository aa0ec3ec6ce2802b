package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/sim"
)

// EXP-SNAP — §2.5: snap-stabilization under mid-run fault bursts, with
// the non-stabilizing baselines as a negative control (their runs from
// corrupted states produce violations or wedge — which is exactly what
// the monitors and the comparison are for).
func init() {
	register(Experiment{
		ID:   "SNAP",
		What: "§2.5: snap-stabilization vs non-stabilizing baselines under faults",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "SNAP"}
			bursts, stepsPer := 5, 1500
			if cfg.Quick {
				bursts, stepsPer = 3, 800
			}
			h := hypergraph.Figure1()
			t := &Table{
				Title: "Fault bursts (3 random processes fully corrupted per burst)",
				Note: "Snap-stabilizing algorithms: zero violations among meetings convened " +
					"after each burst, and meetings keep convening. Baselines (negative " +
					"control): corruption yields violations and/or a wedged system.",
				Header: []string{"system", "bursts", "violations", "convenes after faults", "recovered"},
			}
			variants := []core.Variant{core.CC1, core.CC2, core.CC3}
			type cell struct {
				viol, convs int
				recovered   bool
			}
			cells := par.Map(len(variants), func(i int) cell {
				variant := variants[i]
				alg := core.New(variant, h, nil)
				env := core.NewAlwaysClient(h.N(), 2)
				r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, cfg.Seed, false)
				inj := fault.New(alg, cfg.Seed+100)
				c := cell{recovered: true}
				r.Run(stepsPer)
				for b := 0; b < bursts; b++ {
					inj.CorruptRandom(r, 3)
					chk := r.Checker(0)
					before := r.TotalConvenes()
					r.Run(stepsPer)
					c.viol += len(chk.Violations)
					got := r.TotalConvenes() - before
					c.convs += got
					if got == 0 {
						c.recovered = false
					}
				}
				return c
			})
			for i, c := range cells {
				variant := variants[i]
				t.AddRow(variant.String(), bursts, c.viol, c.convs, c.recovered)
				if c.viol > 0 {
					res.failf("%v: %d violations after faults", variant, c.viol)
				}
				if !c.recovered {
					res.failf("%v: a burst wedged the system", variant)
				}
			}
			// Negative control: corrupt the dining baseline's state.
			for _, kind := range []baseline.Kind{baseline.Dining, baseline.TokenRing} {
				a := baseline.New(kind, h, 2)
				r := baseline.NewRunner(a, &sim.WeaklyFair{MaxAge: 6}, cfg.Seed)
				chk := r.Checker(0)
				r.Run(stepsPer)
				// Corrupt: scramble clubs, phases and fork state.
				rng := r.Engine.RNG()
				for i := 0; i < 6; i++ {
					p := rng.Intn(a.NumProcs())
					r.Engine.MutateProc(p, func(dst *baseline.BState) {
						if p < h.N() {
							dst.S = uint8(rng.Intn(3))
							if eps := h.EdgesOf(p); len(eps) > 0 && rng.Intn(2) == 0 {
								dst.Club = eps[rng.Intn(len(eps))]
							} else {
								dst.Club = -1
							}
						} else {
							dst.Phase = uint8(rng.Intn(4))
							for j := range dst.Fork {
								dst.Fork[j] = rng.Intn(2) == 0
								dst.Dirty[j] = rng.Intn(2) == 0
							}
							dst.HasTok = rng.Intn(2) == 0
						}
					})
				}
				before := r.TotalConvenes()
				violBefore := len(chk.Violations)
				r.Run(4 * stepsPer)
				broke := len(chk.Violations) > violBefore
				wedged := r.TotalConvenes() == before
				t.AddRow(kind.String()+" (corrupted)", 1, len(chk.Violations)-violBefore,
					r.TotalConvenes()-before, !wedged)
				if !broke && !wedged {
					// Not a reproduction failure per se — corruption can be
					// harmless — but across seeds at least the contrast
					// should be visible; record as informational only.
					_ = broke
				}
			}
			res.Tables = []*Table{t}
			return res
		},
	})
}

// EXP-TOKEN — Property 1: TC convergence.
func init() {
	register(Experiment{
		ID:   "TOKEN",
		What: "Property 1: token-circulation stabilization",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "TOKEN"}
			samples, maxSteps := 10, 30000
			if cfg.Quick {
				samples, maxSteps = 4, 20000
			}
			t := &Table{
				Title: "TC stabilization from random states (CC1 as release driver)",
				Note: "Steps until leader election + chain corrections converge and a " +
					"single token remains; spurious initial tokens are destroyed autonomously.",
				Header: []string{"topology", "n", "converged", "max spurious tokens at start", "mean steps", "max steps"},
			}
			fams := []family{
				{"path6", hypergraph.CommitteePath(6)},
				{"ring8", hypergraph.CommitteeRing(8)},
				{"figure1", hypergraph.Figure1()},
				{"figure3", hypergraph.Figure3()},
				{"ring16", hypergraph.CommitteeRing(16)},
			}
			if cfg.Quick {
				kept := fams[:0]
				for _, f := range fams {
					if f.h.N() <= 10 {
						kept = append(kept, f)
					}
				}
				fams = kept
			}
			ms := par.Map(len(fams), func(i int) tokenStats {
				return tokenConvergence(fams[i].h, samples, maxSteps, cfg.Seed)
			})
			for i, m := range ms {
				f := fams[i]
				t.AddRow(f.name, f.h.N(), fmt.Sprintf("%d/%d", m.Converged, m.Samples),
					m.MaxHoldersStart, m.MeanSteps, m.MaxSteps)
				if m.Converged != m.Samples {
					res.failf("%s: only %d/%d runs converged", f.name, m.Converged, m.Samples)
				}
			}
			res.Tables = []*Table{t}
			return res
		},
	})
}

// EXP-CONC — the algorithm comparison (the paper's §1/§6 motivation):
// CC1 maximizes concurrency; CC2/CC3 trade it for fairness; the token
// ring serializes; the oracle upper-bounds everyone.
func init() {
	register(Experiment{
		ID:   "CONC",
		What: "Concurrency & throughput: CC1/CC2/CC3 vs baselines vs oracle",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "CONC"}
			steps := 40000
			if cfg.Quick {
				steps = 12000
			}
			topologies := []family{
				{"ring12", hypergraph.CommitteeRing(12)},
				{"disjoint4x2", hypergraph.DisjointCommittees(4, 2)},
				{"figure1", hypergraph.Figure1()},
				{"grid3x3", hypergraph.Grid(3, 3)},
			}
			if cfg.Quick {
				topologies = topologies[:2]
			}
			var tables []*Table
			// One parallel cell per (topology, algorithm): six systems on
			// each topology, all independent runs.
			systems := []string{"CC1", "CC2", "CC3", "dining", "token-ring", "oracle"}
			cells := par.Map(len(topologies)*len(systems), func(i int) throughput {
				f, sysName := topologies[i/len(systems)], systems[i%len(systems)]
				switch sysName {
				case "CC1", "CC2", "CC3":
					variant := map[string]core.Variant{"CC1": core.CC1, "CC2": core.CC2, "CC3": core.CC3}[sysName]
					return measureThroughput(variant, f.h, 2, steps, cfg.Seed, false)
				case "dining":
					return baselineProfile(baseline.Dining, f.h, 2, steps, cfg.Seed)
				case "token-ring":
					return baselineProfile(baseline.TokenRing, f.h, 2, steps, cfg.Seed)
				default:
					return oracle(f.h, 2, steps/10, cfg.Seed)
				}
			})
			for fi, f := range topologies {
				t := &Table{
					Title:  fmt.Sprintf("Comparison on %s (n=%d, |E|=%d, disc=2)", f.name, f.h.N(), f.h.M()),
					Header: []string{"algorithm", "convenes/100 rounds", "mean conc", "peak conc", "min meetings/prof"},
				}
				profiles := map[string]throughput{}
				for si, sysName := range systems {
					p := cells[fi*len(systems)+si]
					profiles[sysName] = p
					if sysName == "oracle" {
						t.AddRow("oracle (upper bound)", p.ConvenesPer100R, p.MeanConcurrency, p.PeakConcurrency, "-")
					} else {
						t.AddRow(sysName, p.ConvenesPer100R, p.MeanConcurrency, p.PeakConcurrency, p.MinProfMeetings)
					}
				}
				po := profiles["oracle"]
				tables = append(tables, t)

				// Shape checks (who wins): on conflict-free topologies the
				// token ring must trail CC1; the oracle bounds everyone's
				// mean concurrency.
				if f.name == "disjoint4x2" {
					if profiles["CC1"].MeanConcurrency <= profiles["token-ring"].MeanConcurrency {
						res.failf("%s: CC1 (%f) did not beat the token ring (%f)", f.name,
							profiles["CC1"].MeanConcurrency, profiles["token-ring"].MeanConcurrency)
					}
				}
				for name, p := range profiles {
					if name != "oracle" && p.MeanConcurrency > po.MeanConcurrency*1.05 {
						res.failf("%s: %s mean concurrency %f exceeds the oracle %f", f.name, name,
							p.MeanConcurrency, po.MeanConcurrency)
					}
				}
				for _, name := range []string{"CC1", "CC2", "CC3", "dining", "token-ring"} {
					if profiles[name].Convenes == 0 {
						res.failf("%s: %s convened nothing", f.name, name)
					}
				}
			}

			// Worst-case concurrency: under never-terminating meetings CC1
			// saturates to a *maximal* matching (Definition 2), while the
			// fair algorithms may stall below it — their guarantee is only
			// the Theorem 5/8 degree. This is the measurable cost of
			// fairness (Theorem 1's trade-off).
			wc := &Table{
				Title: "Worst-case saturation under infinite meetings (min over random starts)",
				Note: "CC1's saturated meeting sets are maximal matchings (≥ minMM); " +
					"CC2/CC3 may quiesce lower, bounded by the degree of fair concurrency.",
				Header: []string{"topology", "minMM", "CC1 min saturated", "CC2 min quiescent", "CC3 min quiescent"},
			}
			samples := 8
			if cfg.Quick {
				samples = 3
			}
			for _, f := range []family{
				{"ring8", hypergraph.CommitteeRing(8)},
				{"path7", hypergraph.CommitteePath(7)},
			} {
				minMM, _ := f.h.MinMaximalMatching()
				sats := par.Map(samples, func(s int) quiescence {
					return quiesce(core.New(core.CC1, f.h, nil), cfg.Seed+int64(s), false, 40000)
				})
				cc1Min := -1
				for s, out := range sats {
					if !out.quiesced {
						res.failf("%s seed %d: CC1 did not saturate", f.name, s)
						continue
					}
					if !f.h.IsMaximalMatching(out.meetings, nil) {
						res.failf("%s seed %d: CC1 froze with %v, not a maximal matching", f.name, s, out.meetings)
					}
					if k := len(out.meetings); cc1Min == -1 || k < cc1Min {
						cc1Min = k
					}
				}
				m2 := degreeOfFairConcurrency(core.CC2, f.h, samples, 60000, cfg.Seed, false, false)
				m3 := degreeOfFairConcurrency(core.CC3, f.h, samples, 60000, cfg.Seed, false, false)
				wc.AddRow(f.name, minMM, cc1Min, m2.Min, m3.Min)
				if cc1Min < minMM {
					res.failf("%s: CC1 saturated below minMM (%d < %d): not a maximal matching", f.name, cc1Min, minMM)
				}
				if m2.Quiesced > 0 && m2.Min < m2.Bound {
					res.failf("%s: CC2 quiesced below its Theorem 5 bound", f.name)
				}
			}
			tables = append(tables, wc)
			res.Tables = tables
			return res
		},
	})
}
