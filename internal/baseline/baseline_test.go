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

func TestTokenRingSerializesConcurrency(t *testing.T) {
	// On disjoint committees the oracle and dining reach full
	// concurrency; the single token keeps the ring baseline visibly
	// below dining — the §3.1 motivation for maximal concurrency. (Use a
	// conflict-free topology so the gap is purely the token's fault.)
	h := hypergraph.DisjointCommittees(4, 2)
	ring := baseline.Profile(baseline.TokenRing, h, 2, 20000, 9)
	dine := baseline.Profile(baseline.Dining, h, 2, 20000, 9)
	if ring.Convenes == 0 || dine.Convenes == 0 {
		t.Fatalf("no meetings: ring=%d dining=%d", ring.Convenes, dine.Convenes)
	}
	if ring.MeanConcurrency >= dine.MeanConcurrency {
		t.Fatalf("token ring should serialize: ring=%.3f dining=%.3f",
			ring.MeanConcurrency, dine.MeanConcurrency)
	}
}

func TestOracleUpperBound(t *testing.T) {
	h := hypergraph.DisjointCommittees(5, 2)
	res := baseline.Oracle(h, 2, 1000, 1)
	// Disjoint committees: the oracle saturates at all 5 meetings.
	if res.PeakConcurrency != 5 {
		t.Fatalf("oracle peak = %d, want 5", res.PeakConcurrency)
	}
	if res.MeanConcurrency < 4.0 {
		t.Fatalf("oracle mean concurrency = %f, want near 5", res.MeanConcurrency)
	}
	if res.Convenes == 0 {
		t.Fatal("oracle convened nothing")
	}
}

func TestOracleRespectsExclusion(t *testing.T) {
	// On a star every committee conflicts: oracle concurrency is at most 1.
	h := hypergraph.Star(6)
	res := baseline.Oracle(h, 1, 500, 2)
	if res.PeakConcurrency > 1 {
		t.Fatalf("oracle violated exclusion on a star: peak=%d", res.PeakConcurrency)
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
