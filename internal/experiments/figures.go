package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/sim"
)

// EXP-F1 — Figure 1: the example hypergraph and its underlying
// communication network.
func init() {
	register(Experiment{
		ID:   "F1",
		What: "Figure 1: hypergraph H and underlying network G_H",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "F1"}
			h := hypergraph.Figure1()
			t1 := &Table{
				Title:  "Hypergraph H (paper Figure 1(a))",
				Header: []string{"committee", "members (paper ids)"},
			}
			for i, e := range h.Edges() {
				ids := make([]int, len(e))
				for j, v := range e {
					ids[j] = h.ID(v)
				}
				t1.AddRow(i, fmt.Sprint(ids))
			}
			t2 := &Table{
				Title:  "Underlying network G_H (paper Figure 1(b))",
				Header: []string{"edge (paper ids)"},
			}
			// The paper lists EE = {1,2},{1,3},{1,4},{2,3},{2,4},{2,5},
			// {3,4},{3,6},{4,5},{4,6}.
			want := [][2]int{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {2, 5}, {3, 4}, {3, 6}, {4, 5}, {4, 6}}
			got := h.UnderlyingEdges()
			if len(got) != len(want) {
				res.failf("G_H has %d edges, paper lists %d", len(got), len(want))
			}
			for i, e := range got {
				pe := [2]int{h.ID(e[0]), h.ID(e[1])}
				t2.AddRow(fmt.Sprintf("{%d,%d}", pe[0], pe[1]))
				if i < len(want) && pe != want[i] {
					res.failf("G_H edge %d is {%d,%d}, paper lists {%d,%d}", i, pe[0], pe[1], want[i][0], want[i][1])
				}
			}
			res.Tables = []*Table{t1, t2}
			return res
		},
	})
}

// alternatingEnv drives the Theorem 1 starvation schedule on Figure 2,
// replaying the impossibility proof's computation A → B → C → B → ...:
// exactly one of the meetings {1,2} and {3,4} dissolves at a time, and
// only while the other is in session, so at every instant a member of
// committee {1,3,5} is busy and professor 5 starves under CC1. A small
// phase machine enforces the strict alternation; the §4.2 contract —
// RequestOut eventually holds for a professor stuck in a terminated
// meeting, and for any meeting not part of the alternation — is
// preserved, so a fair algorithm (CC2) escapes the schedule via its
// token priority and convenes {1,3,5}.
type alternatingEnv struct {
	alg      *core.Alg
	out      []bool
	phase    int // 0: wait for both; 1: dissolve {1,2}; 2: wait re-convene {1,2}; 3: dissolve {3,4}; 4: wait re-convene {3,4}
	phaseAge int
}

// phaseTimeout bounds how long the adversary may stall a phase: the
// problem statement requires all meetings to terminate in finite time,
// so the schedule can delay terminations but not hold meetings hostage.
// CC1 cycles phases far faster than this (its starvation needs no
// stalling); CC2's locks stall the re-convene phases, the timeout
// releases the hostage meeting, and the token priority convenes {1,3,5}.
const phaseTimeout = 100 // must stay below core.IdleTicks so a stalled phase unwedges before quiescence is declared

func (e *alternatingEnv) RequestIn(int) bool    { return true }
func (e *alternatingEnv) RequestOut(p int) bool { return e.out[p] }

func (e *alternatingEnv) Update(cfg []core.State, _ int) {
	// e0 = {0,1} (paper {1,2}), e2 = {2,3} (paper {3,4}).
	m0 := e.alg.EdgeMeets(cfg, 0)
	m2 := e.alg.EdgeMeets(cfg, 2)
	dissolved := func(edge int) bool {
		for _, q := range e.alg.H.Edge(edge) {
			if cfg[q].P == edge {
				return false
			}
		}
		return true
	}
	prev := e.phase
	switch e.phase {
	case 0:
		if m0 && m2 {
			e.phase = 1
		}
	case 1:
		if dissolved(0) {
			e.phase = 2
		}
	case 2:
		if m0 {
			e.phase = 3
		}
	case 3:
		if dissolved(2) {
			e.phase = 4
		}
	case 4:
		if m2 {
			e.phase = 1
		}
	}
	if e.phase != prev {
		e.phaseAge = 0
	} else {
		e.phaseAge++
	}
	stalled := e.phaseAge > phaseTimeout
	for p := range e.out {
		done := cfg[p].S == core.Done
		// §4.2 contract: a professor stuck in a terminated meeting, in
		// any meeting outside the alternation pair (e.g. {1,3,5} under
		// CC2), or in a meeting the schedule can no longer legally stall,
		// must eventually request out.
		base := done && (!e.alg.Meeting(cfg, p) || (cfg[p].P != 0 && cfg[p].P != 2) || stalled)
		switch {
		case p == 0 || p == 1:
			e.out[p] = base || (done && e.phase == 1)
		case p == 2 || p == 3:
			e.out[p] = base || (done && e.phase == 3)
		default:
			e.out[p] = done
		}
	}
}

// figure2Run runs variant for steps steps under Theorem 1's schedule
// (alternatingEnv) on Figure 2's hypergraph.
func figure2Run(variant core.Variant, seed int64, steps int) *core.Runner {
	h := hypergraph.Figure2()
	alg := core.New(variant, h, nil)
	env := &alternatingEnv{alg: alg, out: make([]bool, h.N())}
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, seed, false)
	// Start from the proof's configuration A: professors 1,2 already
	// meet in {1,2}; everyone else is waiting. (The impossibility proof
	// constructs its computation from A — if the run instead starts
	// idle, committee {1,3,5} can legitimately convene once before the
	// overlap is established.)
	for v := 0; v < h.N(); v++ {
		r.Engine.MutateProc(v, func(dst *core.State) {
			if v == 0 || v == 1 {
				dst.S, dst.P = core.Waiting, 0
			} else {
				dst.S, dst.P = core.Looking, core.NoEdge
			}
		})
	}
	r.SyncEnv()
	r.Run(steps)
	return r
}

// EXP-F2 — Figure 2 / Theorem 1: Maximal Concurrency and Professor
// Fairness are incompatible. CC1 (maximally concurrent) starves
// professor 5 under the proof's schedule; CC2 (fair) breaks the cycle.
func init() {
	register(Experiment{
		ID:   "F2",
		What: "Figure 2 / Theorem 1: impossibility of MaxConc + Fairness",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "F2"}
			steps := 30000
			if cfg.Quick {
				steps = 8000
			}
			t := &Table{
				Title: "Theorem 1 schedule on H = {{1,2},{1,3,5},{3,4}}",
				Note: "Meetings of {1,2} and {3,4} are made to overlap forever " +
					"(each terminates only while the other is in session). " +
					"Under CC1 professor 5 never meets; CC2's token priority " +
					"eventually blocks the cycle and convenes {1,3,5}.",
				Header: []string{"algorithm", "convenes {1,2}", "convenes {3,4}", "convenes {1,3,5}", "prof-5 meetings"},
			}
			variants := []core.Variant{core.CC1, core.CC2}
			type cell struct {
				conv0, conv2, conv1, prof5 int
			}
			cells := par.Map(len(variants), func(i int) cell {
				r := figure2Run(variants[i], cfg.Seed, steps)
				return cell{conv0: r.Convenes[0], conv2: r.Convenes[2], conv1: r.Convenes[1], prof5: r.ProfMeetings[4]}
			})
			for i, variant := range variants {
				c := cells[i]
				t.AddRow(variant.String(), c.conv0, c.conv2, c.conv1, c.prof5)
				switch variant {
				case core.CC1:
					if c.prof5 != 0 {
						res.failf("CC1: professor 5 met %d times under the starvation schedule", c.prof5)
					}
					if c.conv0 < 3 || c.conv2 < 3 {
						res.failf("CC1: the alternating meetings did not keep convening (%d/%d)", c.conv0, c.conv2)
					}
				case core.CC2:
					if c.prof5 == 0 {
						res.failf("CC2: professor 5 starved despite fairness")
					}
				}
			}
			res.Tables = []*Table{t}
			return res
		},
	})
}

// EXP-F3 — Figure 3: the CC1 example computation on the 10-professor
// topology. The replay checks the figure's milestones rather than the
// exact 9 frames (our TC realizes Property 1 with its own concrete token
// walk): professors 1..3 and 5..10 request meetings; professor 4 stays
// disinterested; all named committees convene, and in particular the
// low-identifier committee {5,6} — which loses every identifier
// tie-break — convenes thanks to the token priority (the figure's
// punchline).
func init() {
	register(Experiment{
		ID:   "F3",
		What: "Figure 3: CC1 example computation (milestone replay)",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "F3"}
			h := hypergraph.Figure3()
			alg := core.New(core.CC1, h, nil)
			// Professor 4 (vertex 3) never requests, as in the figure.
			masked := &core.Masked{Env: core.NewClient(h.N(), 1, 1, 2, cfg.Seed+1), Idle: make([]bool, h.N())}
			masked.Idle[3] = true
			r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, masked, cfg.Seed, false)
			steps := 40000
			if cfg.Quick {
				steps = 12000
			}
			firstConvene := make(map[int]int)
			r.OnConvene(func(step, e int) {
				if _, seen := firstConvene[e]; !seen {
					firstConvene[e] = step
				}
			})
			r.Run(steps)
			t := &Table{
				Title: "Figure 3 milestones",
				Note: "Committee {5,6} has the lowest identifiers in its neighborhood " +
					"and convenes only by token priority; professor 4 stays idle.",
				Header: []string{"committee (paper ids)", "first convene step", "convenes"},
			}
			for e := 0; e < h.M(); e++ {
				ids := make([]int, len(h.Edge(e)))
				for j, v := range h.Edge(e) {
					ids[j] = h.ID(v)
				}
				first := "-"
				if s, ok := firstConvene[e]; ok {
					first = fmt.Sprint(s)
				}
				t.AddRow(fmt.Sprint(ids), first, r.Convenes[e])
			}
			// Milestones: every committee not involving professor 4
			// convenes at least once; professor 4 never participates.
			for e := 0; e < h.M(); e++ {
				if h.Edge(e).Contains(3) {
					if r.Convenes[e] != 0 {
						res.failf("committee %d involves idle professor 4 but convened", e)
					}
					continue
				}
				if r.Convenes[e] == 0 {
					res.failf("committee %v never convened", h.Edge(e))
				}
			}
			if r.ProfMeetings[3] != 0 {
				res.failf("professor 4 (idle) participated in %d meetings", r.ProfMeetings[3])
			}
			// The punchline: {5,6} (edge index 3: vertices {4,5}) convenes.
			if r.Convenes[3] == 0 {
				res.failf("low-identifier committee {5,6} starved despite the token priority")
			}
			res.Tables = []*Table{t}
			return res
		},
	})
}

// EXP-F4 — Figure 4: the lock mechanism of CC2. Professors 3,4,5 are in
// a meeting; the token holder (professor 1) points at {1,2,5,8}; members
// of that committee become locked; professor 9 must therefore choose
// {6,7,9} over {8,9}, improving concurrency.
func init() {
	register(Experiment{
		ID:   "F4",
		What: "Figure 4: CC2 locks route professor 9 to {6,7,9}",
		RunFn: func(cfg Config) *Result {
			res := &Result{ID: "F4"}
			h := hypergraph.Figure4()
			alg := core.New(core.CC2, h, nil)
			env := core.NewInfiniteMeetings(alg, nil)
			r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, cfg.Seed, false)

			// Build the figure's configuration. Edge indices:
			// e0={1,2,5,8}, e1={3,4,5}, e2={6,7,9}, e3={8,9} (paper ids).
			cfgNow := r.Engine.Config()
			set := func(v int, s core.Status, p int, tok bool) {
				st := cfgNow[v]
				st.S, st.P, st.T = s, p, tok
				r.Engine.MutateProc(v, func(dst *core.State) { *dst = st })
			}
			// Professors 3,4,5 (vertices 2,3,4) meet in e1.
			set(2, core.Waiting, 1, false)
			set(3, core.Waiting, 1, false)
			set(4, core.Waiting, 1, false)
			// Token is at vertex 0 (professor 1, the root): point at e0.
			set(0, core.Looking, 0, true)
			// Everyone else looking, unattached.
			for _, v := range []int{1, 5, 6, 7, 8} {
				set(v, core.Looking, core.NoEdge, false)
			}
			r.SyncEnv()

			steps := 4000
			if cfg.Quick {
				steps = 2000
			}
			sawLock8, sawNine := false, false
			converged := r.RunUntil(steps, func(c []core.State) bool {
				if c[7].L { // professor 8 (vertex 7) is a member of e0: locked
					sawLock8 = true
				}
				if c[8].P == 2 { // professor 9 chose {6,7,9}
					sawNine = true
				}
				// Both the convened committee and the published lock bit:
				// professor 8 stays locked as long as the token points at
				// {1,2,5,8}, so the weakly fair daemon publishes L_8
				// eventually even if {6,7,9} convenes first.
				return alg.EdgeMeets(c, 2) && sawLock8
			})
			t := &Table{
				Title:  "Figure 4 outcome",
				Header: []string{"check", "result"},
			}
			t.AddRow("professor 8 locked (member of token committee)", sawLock8)
			t.AddRow("professor 9 pointed at {6,7,9} (not {8,9})", sawNine)
			t.AddRow("{6,7,9} convened while {3,4,5} still meets", converged)
			t.AddRow("meetings at end", fmt.Sprint(alg.Meetings(r.Config())))
			if !sawLock8 {
				res.failf("professor 8 never became locked")
			}
			if !sawNine {
				res.failf("professor 9 never selected {6,7,9}")
			}
			if !converged {
				res.failf("{6,7,9} did not convene")
			}
			// Exclusion sanity: e1 must still be meeting (infinite).
			if !alg.EdgeMeets(r.Config(), 1) {
				res.failf("the infinite meeting {3,4,5} dissolved")
			}
			res.Tables = []*Table{t}
			return res
		},
	})
}
