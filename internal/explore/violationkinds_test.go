package explore

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The violation-kind battery: every kind of violation the explorer
// reports is reported the same way by the frozen oracle (Reference),
// the scalar path and the batch pipeline at one and three workers.
// The clean battery cells report none, and the seeded -mutate values
// break only Essential Discussion, closure and convergence, so the
// models here are broken on purpose for the other kinds:
//
//   - Synchronization by a program mutation of the baselines: a
//     professor may rejoin a committee whose meeting is in session,
//     while its other members are done;
//   - Exclusion by a spec mutation, because no program can break it:
//     Meets needs every member's single club (or pointer) at the
//     committee, so two committees that share a member never meet
//     together. The mutated Meets ignores the pointer.

// rejoinSession mutates a baseline program in place: PJoin also takes
// an incident committee in session — the dissolving meeting whose
// members may be done — so the rejoin convenes it with a done member.
func rejoinSession(h *hypergraph.H, prog *sim.Program[baseline.BState]) {
	target := func(cfg []baseline.BState, p int) int {
		for _, e := range h.EdgesOf(p) {
			if ph := cfg[h.N()+e].Phase; (ph == baseline.CGather || ph == baseline.CSession) && cfg[p].Club != e {
				return e
			}
		}
		return -1
	}
	for i := range prog.Actions {
		if prog.Actions[i].Name == "PJoin" {
			prog.Actions[i].Guard = func(cfg []baseline.BState, p int) bool {
				return p < h.N() && cfg[p].S == baseline.PWaiting && cfg[p].Club == -1 && target(cfg, p) != -1
			}
			prog.Actions[i].Body = func(cfg []baseline.BState, p int, next *baseline.BState, _ *rand.Rand) {
				next.Club = target(cfg, p)
				next.Age = 0
			}
			return
		}
	}
	panic("rejoinSession: no PJoin action")
}

// rejoinBaseline is the baseline of kind on h with rejoinSession
// applied to the model's program and to every worker's kernel.
func rejoinBaseline(t *testing.T, kind baseline.Kind, h *hypergraph.H) func() *Model[baseline.BState] {
	base, err := Baseline(kind, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	return func() *Model[baseline.BState] {
		m := base()
		rejoinSession(h, m.Prog)
		m.Kernel = func() sim.BatchKernel[baseline.BState] {
			prog := baseline.New(kind, h, 1).Program()
			rejoinSession(h, prog)
			return sim.NewProgramKernel(prog)
		}
		return m
	}
}

// anyPointerMeets mutates a model's Meets: committee e meets when every
// member is waiting or done, wherever its pointer is, so conflicting
// committees meet together as soon as their members all wait.
func anyPointerMeets[S sim.Cloneable[S]](m *Model[S]) {
	probe := m.Probe
	m.Probe.Meets = func(cfg []S, e int) bool {
		for _, q := range probe.H.Edge(e) {
			if !probe.Waiting(cfg, q) && !probe.Done(cfg, q) {
				return false
			}
		}
		return true
	}
	// The columnar CC kernel caches its own Meets; hidden behind
	// plainKernel, the pipeline reads the mutated one through
	// genericChecker.
	if k := m.Kernel; k != nil {
		m.Kernel = func() sim.BatchKernel[S] { return plainKernel[S]{k()} }
	}
}

// keylessJSON is normJSON with the trace keys dropped: the oracle
// leaves them nil.
func keylessJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	c := *res
	c.Violations = make([]Violation, len(res.Violations))
	for i, v := range res.Violations {
		v.Trace = append([]TraceStep(nil), v.Trace...)
		for j := range v.Trace {
			v.Trace[j].Key = nil
		}
		c.Violations[i] = v
	}
	return normJSON(t, &c)
}

// assertKinds runs factory under opts on the oracle, the scalar path at
// one worker and the batch pipeline at one and three workers, requires
// the four reports to be identical but for trace keys, and requires
// every kind in want among the violations.
func assertKinds[S sim.Cloneable[S]](t *testing.T, factory func() *Model[S], opts Options, want ...string) {
	t.Helper()
	ref := keylessJSON(t, Reference(factory, opts))
	var res *Result
	for _, leg := range []struct {
		workers int
		scalar  bool
	}{{1, true}, {1, false}, {3, false}} {
		o := opts
		o.Workers, o.DisableBatch = leg.workers, leg.scalar
		res = Explore(factory, o)
		if got := keylessJSON(t, res); !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d scalar=%v differs from the oracle:\n%s\nvs\n%s", leg.workers, leg.scalar, got, ref)
		}
	}
	kinds := map[string]bool{}
	for _, v := range res.Violations {
		kinds[v.Kind] = true
	}
	for _, k := range want {
		if !kinds[k] {
			t.Fatalf("no %s violation among %v", k, res.Violations)
		}
	}
}

// TestViolationKindsAgree drives each violation kind through every
// emission site of both expansion paths: Exclusion in the state scan,
// Synchronization and Essential Discussion in the per-selection event
// check (under all-subsets, behind the projection pass), and closure
// next to convergence in the per-selection Correct walk.
func TestViolationKindsAgree(t *testing.T) {
	modes := []sim.SelectionMode{sim.SelectCentral, sim.SelectSynchronous, sim.SelectAllSubsets}
	for _, kind := range []baseline.Kind{baseline.Dining, baseline.TokenRing} {
		// The synchronous daemon moves a leaver and the dissolving
		// committee together, so no rejoin finds the meeting in session.
		for _, mode := range []sim.SelectionMode{sim.SelectCentral, sim.SelectAllSubsets} {
			t.Run("rejoin/"+kind.String()+"/"+mode.String(), func(t *testing.T) {
				factory := rejoinBaseline(t, kind, hypergraph.CommitteeRing(3))
				assertKinds(t, factory, Options{Mode: mode, MaxViolations: 6}, spec.KindSync)
			})
		}
	}
	for _, mode := range modes {
		t.Run("any-pointer/cc2/"+mode.String(), func(t *testing.T) {
			cc := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitLegit})
			factory := func() *Model[core.State] {
				m := cc()
				anyPointerMeets(m)
				return m
			}
			assertKinds(t, factory, Options{Mode: mode, CheckClosure: true, MaxViolations: 8}, spec.KindExclusion)
		})
		t.Run("any-pointer/dining/"+mode.String(), func(t *testing.T) {
			base, err := Baseline(baseline.Dining, hypergraph.CommitteeRing(3), 1)
			if err != nil {
				t.Fatal(err)
			}
			factory := func() *Model[baseline.BState] {
				m := base()
				anyPointerMeets(m)
				return m
			}
			assertKinds(t, factory, Options{Mode: mode, MaxViolations: 64}, spec.KindExclusion, spec.KindSync)
		})
	}
	t.Run("joint-move/closure+convergence", func(t *testing.T) {
		opts := Options{Mode: sim.SelectSynchronous, CheckClosure: true, CheckConvergence: true, MaxViolations: 16}
		assertKinds(t, jointMoveCC(t), opts, KindClosure, KindConvergence)
	})
}
