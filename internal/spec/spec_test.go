package spec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hypergraph"
)

// tiny abstract state for driving the checker directly.
type pstate struct {
	meetingEdge int // edge the professor is meeting in, or -1
	waiting     bool
	done        bool
}

func probeFor(h *hypergraph.H) Probe[pstate] {
	return Probe[pstate]{
		H: h,
		Meets: func(cfg []pstate, e int) bool {
			for _, q := range h.Edge(e) {
				if cfg[q].meetingEdge != e {
					return false
				}
			}
			return true
		},
		Waiting: func(cfg []pstate, p int) bool { return cfg[p].waiting },
		Done:    func(cfg []pstate, p int) bool { return cfg[p].done },
	}
}

// script is a Source whose configuration and round the test sets.
type script struct {
	cfg   []pstate
	round int
}

func (s *script) Config() []pstate { return s.cfg }
func (s *script) Rounds() int      { return s.round }

// monitor starts a tally of a scripted run at cfg and attaches a checker.
func monitor(probe Probe[pstate], window int, cfg []pstate) (*script, *Tally[pstate], *Checker[pstate]) {
	run := &script{cfg: cfg}
	t := NewTally(probe, run)
	return run, t, t.Checker(window)
}

// step makes cfg the run's configuration at the given step and round.
func (s *script) step(t *Tally[pstate], step, round int, cfg []pstate) {
	s.cfg, s.round = cfg, round
	t.Observe(step, cfg)
}

func allIdle(n int) []pstate {
	cfg := make([]pstate, n)
	for i := range cfg {
		cfg[i].meetingEdge = -1
	}
	return cfg
}

func TestCheckerCleanRun(t *testing.T) {
	h := hypergraph.Figure2() // e0={0,1}, e1={0,2,4}, e2={2,3}
	run, tl, c := monitor(probeFor(h), 0, allIdle(5))

	// All members of e0 wait, then convene, then finish essential
	// discussion, then the meeting terminates: no violations.
	cfg2 := allIdle(5)
	cfg2[0].waiting, cfg2[1].waiting = true, true
	run.step(tl, 1, 1, cfg2)

	cfg3 := allIdle(5)
	cfg3[0].meetingEdge, cfg3[1].meetingEdge = 0, 0
	run.step(tl, 2, 2, cfg3)

	cfg4 := allIdle(5)
	cfg4[0].meetingEdge, cfg4[1].meetingEdge = 0, 0
	cfg4[0].done, cfg4[1].done = true, true
	run.step(tl, 3, 3, cfg4)

	cfg5 := allIdle(5)
	cfg5[0].done, cfg5[1].done = true, true // left, marks retained
	run.step(tl, 4, 4, cfg5)

	if !c.Ok() {
		t.Fatalf("clean run flagged: %v", c.Violations)
	}
}

func TestCheckerExclusionViolation(t *testing.T) {
	h := hypergraph.Figure2()
	// e0={0,1} and e1={0,2,4} conflict on professor 0. Make both "meet"
	// (possible only for a buggy algorithm: professor 0 in two meetings).
	// Our abstract state can't point at two edges, so use e1 and e2
	// sharing professor 2: e1={0,2,4}, e2={2,3} — also impossible with a
	// single pointer. Instead build a 4-vertex hypergraph with disjoint
	// pointers but conflicting committees... the simplest way: professor
	// 2 points at e2 while e1's check passes via its members 0,4 — it
	// cannot. So construct a dedicated hypergraph where two distinct
	// edges have the same member set semantics: use a custom probe that
	// reports both edges meeting.
	bad := Probe[pstate]{
		H:       h,
		Meets:   func(cfg []pstate, e int) bool { return e == 0 || e == 1 },
		Waiting: func(cfg []pstate, p int) bool { return true },
		Done:    func(cfg []pstate, p int) bool { return true },
	}
	_, _, c := monitor(bad, 0, allIdle(5))
	if len(c.ByKind(KindExclusion)) == 0 {
		t.Fatal("conflicting simultaneous meetings must be flagged")
	}
}

func TestCheckerSynchronizationViolation(t *testing.T) {
	h := hypergraph.Figure2()
	run, tl, c := monitor(probeFor(h), 0, allIdle(5)) // nobody waiting
	cfg2 := allIdle(5)
	cfg2[0].meetingEdge, cfg2[1].meetingEdge = 0, 0 // e0 convenes from idle members
	run.step(tl, 1, 1, cfg2)
	vs := c.ByKind(KindSync)
	if len(vs) != 2 { // both members 0 and 1 were not waiting
		t.Fatalf("want 2 sync violations, got %v", c.Violations)
	}
	if !strings.Contains(vs[0].Msg, "not waiting") {
		t.Fatalf("unexpected message: %s", vs[0].Msg)
	}
}

func TestCheckerEssentialViolation(t *testing.T) {
	h := hypergraph.Figure2()
	cfg := allIdle(5)
	cfg[0].waiting, cfg[1].waiting = true, true
	run, tl, c := monitor(probeFor(h), 0, cfg)
	cfg2 := allIdle(5)
	cfg2[0].meetingEdge, cfg2[1].meetingEdge = 0, 0
	run.step(tl, 1, 1, cfg2)       // convene fine
	run.step(tl, 2, 2, allIdle(5)) // terminate with nobody done: phase-1 violated
	if len(c.ByKind(KindEssential)) != 2 {
		t.Fatalf("want 2 essential violations, got %v", c.Violations)
	}
}

func TestCheckerInitialMeetingsExempt(t *testing.T) {
	// Snap-stabilization semantics: meetings already in progress at the
	// first observed configuration are pre-fault and not judged for
	// synchronization (they did not convene during the run).
	h := hypergraph.Figure2()
	cfg := allIdle(5)
	cfg[0].meetingEdge, cfg[1].meetingEdge = 0, 0 // meeting at step 0
	run, tl, c := monitor(probeFor(h), 0, cfg)
	run.step(tl, 1, 1, cfg)
	if !c.Ok() {
		t.Fatalf("pre-existing meetings must not be judged: %v", c.Violations)
	}
}

func TestCheckerProgressWindow(t *testing.T) {
	h := hypergraph.Figure2()
	cfg := allIdle(5)
	for p := range cfg {
		cfg[p].waiting = true
	}
	run, tl, c := monitor(probeFor(h), 5, cfg)
	for step := 1; step < 10; step++ {
		run.step(tl, step, step, cfg)
	}
	if len(c.ByKind(KindProgress)) == 0 {
		t.Fatal("stuck all-waiting committees must be flagged")
	}
	// Exactly one violation per edge (fired once at the window).
	if got := len(c.ByKind(KindProgress)); got != h.M() {
		t.Fatalf("want %d progress violations, got %d", h.M(), got)
	}
}

func TestCheckerProgressResetsOnActivity(t *testing.T) {
	h := hypergraph.Figure2()
	waiting := allIdle(5)
	for p := range waiting {
		waiting[p].waiting = true
	}
	idle := allIdle(5)
	run, tl, c := monitor(probeFor(h), 5, idle)
	for step := 1; step < 20; step++ {
		if step%3 == 0 {
			run.step(tl, step, step, idle) // break the continuity
		} else {
			run.step(tl, step, step, waiting)
		}
	}
	if len(c.ByKind(KindProgress)) != 0 {
		t.Fatalf("interrupted waiting must not be flagged: %v", c.Violations)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Step: 3, Kind: KindSync, Msg: "boom"}
	if got := v.String(); got != "step 3: synchronization: boom" {
		t.Fatalf("String() = %q", got)
	}
}

// meeting returns an all-idle configuration in which committee e of h
// meets.
func meeting(h *hypergraph.H, e int) []pstate {
	cfg := allIdle(h.N())
	for _, q := range h.Edge(e) {
		cfg[q].meetingEdge = e
	}
	return cfg
}

// TestTallyCountsAndWaits: convenes, participations and waits in rounds,
// including the wait still open when the counts are read — a professor
// who never meets has waited the whole run.
func TestTallyCountsAndWaits(t *testing.T) {
	h := hypergraph.Figure2() // e0={0,1}, e1={0,2,4}, e2={2,3}
	run := &script{cfg: allIdle(5)}
	tl := NewTally(probeFor(h), run)
	convened := 0
	tl.OnConvene(func(step, e int) { convened++ })
	for i, c := range []struct {
		round int
		cfg   []pstate
	}{
		{10, meeting(h, 0)}, // professors 0,1
		{12, allIdle(5)},
		{15, meeting(h, 2)}, // professors 2,3
		{17, allIdle(5)},
		{30, meeting(h, 0)},
		{50, allIdle(5)},
	} {
		run.step(tl, i+1, c.round, c.cfg)
	}
	if tl.ProfMeetings[0] != 2 || tl.ProfMeetings[2] != 1 || tl.ProfMeetings[4] != 0 {
		t.Fatalf("counts: %v", tl.ProfMeetings)
	}
	if tl.Convenes[0] != 2 || tl.Convenes[1] != 0 || tl.Terminates[0] != 2 || convened != 3 {
		t.Fatalf("committee counts: convenes %v terminates %v hooks %d", tl.Convenes, tl.Terminates, convened)
	}
	if tl.TotalConvenes() != 3 || tl.MinProfMeetings() != 0 || tl.MinCommitteeConvenes() != 0 {
		t.Fatalf("total %d, min prof %d, min committee %d", tl.TotalConvenes(), tl.MinProfMeetings(), tl.MinCommitteeConvenes())
	}
	if tl.Steps != 6 || tl.Rounds != 50 || tl.PeakConcurrency != 1 || tl.MeanConcurrency() != 0.5 {
		t.Fatalf("steps %d rounds %d peak %d mean %f", tl.Steps, tl.Rounds, tl.PeakConcurrency, tl.MeanConcurrency())
	}
	// Professor 0: gaps 10 and 20, then 20 still open -> 20. Professor 2:
	// 15, then 35 open. Professor 4 never met: the whole run.
	if got, want := tl.MaxWaitRounds(), []int{20, 20, 35, 35, 50}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("max waits %v, want %v", got, want)
	}
}
