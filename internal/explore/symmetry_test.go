package explore

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// The symmetry battery. Declared automorphism groups are validated two
// ways: equivariance spot checks (succ(π(s)) == π(succ(s)) as sets)
// over engine-reachable states, and the differential property that a
// reduced run reports the same verdict with an orbit-count-consistent
// state total (reduced <= unreduced <= |G ∪ {id}| * reduced). The CC
// ring witness test proves the *absence* of a declaration is a
// theorem, not laziness: the paper's identifier-based tie-breaks make
// the rotation a non-automorphism, and the test exhibits a concrete
// state where the successor sets diverge.

func TestTokenRingDeclaresRotations(t *testing.T) {
	for n := 3; n <= 6; n++ {
		factory, err := Baseline(baseline.TokenRing, hypergraph.CommitteeRing(n), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(factory().Syms); got != n-1 {
			t.Fatalf("ring:%d: %d rotations declared, want %d", n, got, n-1)
		}
	}
	// Dining must not declare: its fork orientation and request
	// tie-break read the committee index order.
	dining, err := Baseline(baseline.Dining, hypergraph.CommitteeRing(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dining().Syms) != 0 {
		t.Fatal("dining declared rotations despite index-order tie-breaks")
	}
	// Star has no ring rotation.
	star, err := Baseline(baseline.TokenRing, hypergraph.Star(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(star().Syms) != 0 {
		t.Fatal("token-ring on a star declared rotations")
	}
}

// TestTokenRingRotationEquivariance: every declared rotation commutes
// with the successor relation on engine-reachable configurations, in
// every branching mode.
func TestTokenRingRotationEquivariance(t *testing.T) {
	factory, err := Baseline(baseline.TokenRing, hypergraph.CommitteeRing(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := factory()
	eng := sim.NewEngine(m.Prog, &sim.WeaklyFair{MaxAge: 4}, 17)
	for step := 0; step < 80; step++ {
		for _, mode := range []sim.SelectionMode{sim.SelectCentral, sim.SelectSynchronous, sim.SelectAllSubsets} {
			if err := CheckEquivariance(m, eng.Config(), mode); err != nil {
				t.Fatalf("step %d, %s: %v", step, mode, err)
			}
		}
		if eng.Step() == nil {
			break
		}
	}
}

// TestTokenRingSymmetryDifferential: the reduced exploration reports
// the same verdict and an orbit-count-consistent state total.
func TestTokenRingSymmetryDifferential(t *testing.T) {
	for _, tc := range []struct {
		n    int
		mode sim.SelectionMode
	}{
		{3, sim.SelectCentral},
		{3, sim.SelectAllSubsets}, // also re-finds the simultaneous-schedule wedge in both runs
		{4, sim.SelectCentral},
	} {
		factory, err := Baseline(baseline.TokenRing, hypergraph.CommitteeRing(tc.n), 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Mode: tc.mode, CheckDeadlock: true}
		full := Explore(factory, opts)
		opts.Symmetry = true
		red := Explore(factory, opts)
		if !red.Symmetry {
			t.Fatalf("ring:%d/%s: symmetry did not engage", tc.n, tc.mode)
		}
		if full.Truncated || red.Truncated {
			t.Fatalf("ring:%d/%s: unexpected truncation", tc.n, tc.mode)
		}
		if full.Verdict() != red.Verdict() || full.Ok() != red.Ok() ||
			(full.Deadlocks > 0) != (red.Deadlocks > 0) {
			t.Fatalf("ring:%d/%s: verdicts diverged:\n  full:    %s\n  reduced: %s",
				tc.n, tc.mode, full.Summary(), red.Summary())
		}
		if red.States > full.States || full.States > tc.n*red.States {
			t.Fatalf("ring:%d/%s: orbit-inconsistent state totals: reduced %d, full %d, group order %d",
				tc.n, tc.mode, red.States, full.States, tc.n)
		}
		if red.States == full.States {
			t.Fatalf("ring:%d/%s: symmetry reduced nothing (%d states)", tc.n, tc.mode, red.States)
		}
	}
}

// TestCCDisjointBlockSymmetry: the CC algorithms do admit exact
// symmetry on disjoint:K,S topologies (id comparisons never cross
// components), and the reduction is differential-tested the same way.
func TestCCDisjointBlockSymmetry(t *testing.T) {
	// Two components keep the product state space tractable (the
	// reachable space of disjoint:K,S is the per-component space to the
	// K-th power); the group-declaration shape is asserted for K=3 too.
	h := hypergraph.DisjointCommittees(2, 2)
	factory := mustCC(t, core.CC2, h, CCOptions{Init: InitCC})
	m := factory()
	if got := len(m.Syms); got != 1 { // 2! - 1
		t.Fatalf("disjoint:2,2: %d block permutations declared, want 1", got)
	}
	three := mustCC(t, core.CC2, hypergraph.DisjointCommittees(3, 2), CCOptions{Init: InitCC})
	if got := len(three().Syms); got != 5 { // 3! - 1
		t.Fatalf("disjoint:3,2: %d block permutations declared, want 5", got)
	}

	// Equivariance over engine-reachable states.
	eng := sim.NewEngine(m.Prog, &sim.WeaklyFair{MaxAge: 4}, 23)
	for step := 0; step < 60; step++ {
		if err := CheckEquivariance(m, eng.Config(), sim.SelectCentral); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if eng.Step() == nil {
			break
		}
	}

	// Differential: same verdict, orbit-consistent totals, group order 2.
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true}
	full := Explore(factory, opts)
	opts.Symmetry = true
	red := Explore(factory, opts)
	if full.Truncated || red.Truncated {
		t.Fatalf("unexpected truncation:\n  full:    %s\n  reduced: %s", full.Summary(), red.Summary())
	}
	if full.Verdict() != red.Verdict() || !full.Ok() || !red.Ok() {
		t.Fatalf("verdicts diverged:\n  full:    %s\n  reduced: %s", full.Summary(), red.Summary())
	}
	if red.States > full.States || full.States > 2*red.States || red.States == full.States {
		t.Fatalf("orbit-inconsistent totals: reduced %d, full %d", red.States, full.States)
	}
	// InitRandom must not declare symmetry: corrupted leader ids cross
	// components.
	random := mustCC(t, core.CC2, h, CCOptions{Init: InitRandom, RandomCount: 4})
	if len(random().Syms) != 0 {
		t.Fatal("InitRandom declared block symmetry despite foreign-id corruption")
	}
}

// TestCCRingRotationNotAnAutomorphism is the asymmetry witness: the
// rotation of a CC ring fails equivariance on a reachable state —
// which is exactly why the CC factory declares no rotation group and
// cccheck -symmetry refuses CC rings. If this test ever fails to find
// a witness, the refusal has become too conservative and should be
// revisited.
func TestCCRingRotationNotAnAutomorphism(t *testing.T) {
	h := hypergraph.CommitteeRing(3)
	factory := mustCC(t, core.CC2, h, CCOptions{Init: InitLegit})
	m := factory()
	if len(m.Syms) != 0 {
		t.Fatal("CC on a ring declared rotations; the id tie-breaks make that unsound")
	}
	alg, _ := newCCProg(core.CC2, h)
	m.Syms = ccRingRotationSyms(alg) // deliberately unsound, for the witness
	if len(m.Syms) == 0 {
		t.Fatal("no candidate rotations built")
	}
	eng := sim.NewEngine(m.Prog, &sim.WeaklyFair{MaxAge: 4}, 5)
	for step := 0; step < 200; step++ {
		if err := CheckEquivariance(m, eng.Config(), sim.SelectCentral); err != nil {
			t.Logf("witness found at step %d: %v", step, err)
			return
		}
		if eng.Step() == nil {
			break
		}
	}
	t.Fatal("no equivariance witness found: CC ring rotation looked like an automorphism; reconsider declaring it")
}

// ccRingRotationSyms builds the (unsound!) rotation maps for a CC model
// on a committee ring. Never declared on a Model: it exists so the
// asymmetry-witness test can demonstrate that the rotation fails
// equivariance — i.e. that refusing -symmetry for CC rings is a
// theorem, not a limitation of the implementation.
func ccRingRotationSyms(alg *core.Alg) []func(dst, src []core.State) {
	gv, ge, ok := ringRotationPerms(alg.H)
	if !ok {
		return nil
	}
	var syms []func(dst, src []core.State)
	vp, ep := gv, ge
	for !isIdentity(vp) {
		syms = append(syms, ccPermSym(alg, vp, ep))
		vp, ep = composePerm(gv, vp), composePerm(ge, ep)
	}
	return syms
}
