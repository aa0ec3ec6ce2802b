package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/hypergraph"
	"repro/internal/sim"
	"repro/internal/spec"
)

func run(kind baseline.Kind, h *hypergraph.H, steps int, seed int64) (*baseline.Runner, *spec.Checker[baseline.BState]) {
	a := baseline.New(kind, h, 2)
	r := baseline.NewRunner(a, &sim.WeaklyFair{MaxAge: 6}, seed)
	chk := r.Checker(0)
	r.Run(steps)
	return r, chk
}

func TestDiningConvenesAndIsSafe(t *testing.T) {
	for _, h := range []*hypergraph.H{
		hypergraph.Figure1(),
		hypergraph.CommitteeRing(6),
		hypergraph.ChainOfTriples(3),
	} {
		r, chk := run(baseline.Dining, h, 8000, 3)
		if r.TotalConvenes() < 5 {
			t.Fatalf("dining on %v convened only %d meetings", h, r.TotalConvenes())
		}
		if !chk.Ok() {
			t.Fatalf("dining on %v: %v", h, chk.Violations[0])
		}
	}
}

func TestDiningNoStarvation(t *testing.T) {
	// Hygienic dining: every professor keeps participating.
	h := hypergraph.CommitteeRing(6)
	r, _ := run(baseline.Dining, h, 30000, 5)
	if r.MinProfMeetings() < 3 {
		t.Fatalf("some professor starved: %v", r.ProfMeetings)
	}
}

func TestTokenRingConvenesAndIsSafe(t *testing.T) {
	for _, h := range []*hypergraph.H{
		hypergraph.Figure1(),
		hypergraph.CommitteeRing(6),
	} {
		r, chk := run(baseline.TokenRing, h, 12000, 7)
		if r.TotalConvenes() < 5 {
			t.Fatalf("token ring on %v convened only %d meetings", h, r.TotalConvenes())
		}
		if !chk.Ok() {
			t.Fatalf("token ring on %v: %v", h, chk.Violations[0])
		}
	}
}

// TestBaselineRunnerWaitAccounting: the baselines report through the
// same tally as the CC runner, so its invariants hold for them too —
// every professor who met has a wait recorded, and a committee's
// terminates trail its convenes by at most the meeting still open.
func TestBaselineRunnerWaitAccounting(t *testing.T) {
	h := hypergraph.CommitteeRing(5)
	for _, kind := range []baseline.Kind{baseline.Dining, baseline.TokenRing} {
		r := baseline.NewRunner(baseline.New(kind, h, 2), &sim.WeaklyFair{MaxAge: 6}, 4)
		terms := 0
		r.OnTerminate(func(step, e int) { terms++ })
		r.Run(20000)
		waits := r.MaxWaitRounds()
		for p := 0; p < h.N(); p++ {
			if r.ProfMeetings[p] > 0 && waits[p] <= 0 {
				t.Fatalf("%v: professor %d met %d times but has no wait recorded", kind, p, r.ProfMeetings[p])
			}
		}
		total := 0
		for e := 0; e < h.M(); e++ {
			total += r.Terminates[e]
			if d := r.Convenes[e] - r.Terminates[e]; d < 0 || d > 1 {
				t.Fatalf("%v: committee %d: convenes %d vs terminates %d", kind, e, r.Convenes[e], r.Terminates[e])
			}
		}
		if terms == 0 || terms != total {
			t.Fatalf("%v: %d terminate hooks fired, %d terminates counted", kind, terms, total)
		}
	}
}

func TestBStateClone(t *testing.T) {
	s := baseline.BState{Fork: []bool{true}, Dirty: []bool{false}, Asked: []bool{true}}
	c := s.Clone()
	c.Fork[0] = false
	if !s.Fork[0] {
		t.Fatal("Clone must deep-copy fork arrays")
	}
}

func TestKindString(t *testing.T) {
	if baseline.Dining.String() != "dining" || baseline.TokenRing.String() != "token-ring" {
		t.Fatal("Kind.String broken")
	}
}
