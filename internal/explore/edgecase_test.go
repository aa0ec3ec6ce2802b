package explore

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// Edge cases of the reporting contract: an empty frontier, bound hits,
// and the verdict wording. A truncated run must always say "bounded"
// and never "verified" — a state bound is evidence, not proof.

func TestVerdictTable(t *testing.T) {
	h := hypergraph.CommitteeRing(3)
	for _, tc := range []struct {
		name      string
		opts      Options
		ccOpts    CCOptions
		verdict   string
		truncated bool
	}{
		{
			name:    "clean full run is verified",
			opts:    Options{Mode: sim.SelectCentral, CheckDeadlock: true},
			ccOpts:  CCOptions{Init: InitCC},
			verdict: "verified",
		},
		{
			name:      "max-states hit is bounded",
			opts:      Options{Mode: sim.SelectCentral, MaxStates: 1000},
			ccOpts:    CCOptions{Init: InitCCFull},
			verdict:   "bounded",
			truncated: true,
		},
		{
			name:      "max-depth hit is bounded",
			opts:      Options{Mode: sim.SelectCentral, MaxDepth: 2},
			ccOpts:    CCOptions{Init: InitCC},
			verdict:   "bounded",
			truncated: true,
		},
		{
			name:      "max-branch hit is bounded",
			opts:      Options{Mode: sim.SelectAllSubsets, MaxBranch: 3},
			ccOpts:    CCOptions{Init: InitCC},
			verdict:   "bounded",
			truncated: true,
		},
		{
			name:      "violation cap is bounded and violated",
			opts:      Options{Mode: sim.SelectCentral, MaxViolations: 1, CheckDeadlock: true},
			ccOpts:    CCOptions{Init: InitLegit, Mutation: MutationLeaveEarly},
			verdict:   "violated",
			truncated: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			factory := mustCC(t, core.CC2, h, tc.ccOpts)
			res := Explore(factory, tc.opts)
			if res.Verdict() != tc.verdict {
				t.Fatalf("verdict %q, want %q: %s", res.Verdict(), tc.verdict, res.Summary())
			}
			if res.Truncated != tc.truncated {
				t.Fatalf("truncated %v, want %v: %s", res.Truncated, tc.truncated, res.Summary())
			}
			sum := res.Summary()
			if tc.truncated && strings.Contains(sum, "verified") {
				t.Fatalf("truncated run claims verification: %s", sum)
			}
			if !strings.Contains(sum, tc.verdict) {
				t.Fatalf("summary does not state the verdict: %s", sum)
			}
		})
	}
}

// TestEmptyFrontier: a model with no initial configurations must
// terminate immediately with zero states and a (vacuously) verified
// result, not panic or report bounds.
func TestEmptyFrontier(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitLegit})
	empty := func() *Model[core.State] {
		m := factory()
		m.Inits = func(yield func(cfg []core.State) bool) {}
		return m
	}
	res := Explore(empty, Options{Mode: sim.SelectCentral, CheckDeadlock: true})
	if res.Inits != 0 || res.States != 0 || res.Transitions != 0 || res.Depth != 0 {
		t.Fatalf("empty frontier explored something: %s", res.Summary())
	}
	if !res.Ok() || res.Truncated || res.Verdict() != "verified" {
		t.Fatalf("empty frontier verdict: %s", res.Summary())
	}
}

// TestWordLimitEdge: the explorer's size rule on both sides of each of
// its bounds. The model at a bound is explored by the batch pipeline
// (its keys run to dozens of words) and matches the scalar path and the
// oracle on a bounded run; the model one step past it is refused with
// the rule's message, naming the bound it broke.
func TestWordLimitEdge(t *testing.T) {
	type build func(t *testing.T, h *hypergraph.H) error
	cc := func(t *testing.T, h *hypergraph.H) error {
		factory, err := CC(core.CC2, h, CCOptions{Init: InitLegit})
		if err == nil {
			assertEngages(t, factory, Options{})
			assertKinds(t, factory, Options{Mode: sim.SelectCentral, MaxStates: 200, CheckDeadlock: true, CheckClosure: true})
		}
		return err
	}
	base := func(kind baseline.Kind) build {
		return func(t *testing.T, h *hypergraph.H) error {
			factory, err := Baseline(kind, h, 1)
			if err == nil {
				assertEngages(t, factory, Options{})
				assertKinds(t, factory, Options{Mode: sim.SelectCentral, MaxStates: 200, CheckDeadlock: true})
			}
			return err
		}
	}
	for _, tc := range []struct {
		name    string
		build   build
		in, out *hypergraph.H
		what    string
	}{
		{"cc processes", cc, hypergraph.CommitteeRing(64), hypergraph.CommitteeRing(65), "65 processes"},
		{"cc committees", cc, hypergraph.CompletePairs(11), hypergraph.CompletePairs(12), "66 committees"},
		{"baseline processes", base(baseline.TokenRing), hypergraph.CommitteeRing(32), hypergraph.CommitteeRing(33), "66 processes"},
		{"dining block", base(baseline.Dining), hypergraph.Star(22), hypergraph.Star(23), "a 67-bit process block"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.build(t, tc.in); err != nil {
				t.Fatalf("%s refused: %v", tc.in, err)
			}
			err := tc.build(t, tc.out)
			if err == nil || !strings.Contains(err.Error(), tc.what) || !strings.Contains(err.Error(), "at most 64 processes, 64 committees and 64 bits per process") {
				t.Fatalf("%s: got %v, want the size rule naming %s", tc.out, err, tc.what)
			}
		})
	}
}

// TestDecodedStatesDriveSimAndDaemons: configurations decoded out of
// the arena must feed sim.EnabledOf, sim.Apply and every daemon's
// Select directly — no re-encoding, no engine state. This pins the
// contract that arena-decoded buffers are first-class configurations.
func TestDecodedStatesDriveSimAndDaemons(t *testing.T) {
	h := hypergraph.CommitteeRing(3)
	factory := mustCC(t, core.CC2, h, CCOptions{Init: InitCC})
	m := factory()

	// Build a small arena by hand from the init stream.
	vs := NewVisited(m.Codec.Words)
	enc := make([]uint64, m.Codec.Words)
	pos := uint64(0)
	m.Inits(func(cfg []core.State) bool {
		m.Codec.Encode(enc, cfg)
		vs.Probe(enc, hashWords(enc), pos, -1, nil)
		pos++
		return pos < 64
	})
	for _, f := range vs.Drain() {
		vs.Promote(f)
	}
	vs.Reset()

	daemons := []sim.Daemon{
		sim.Synchronous{}, &sim.Central{}, sim.CentralRandom{},
		sim.RandomSubset{P: 0.5}, &sim.WeaklyFair{MaxAge: 4},
	}
	rng := rand.New(rand.NewSource(9))
	cfg := make([]core.State, h.N())
	next := make([]core.State, h.N())
	selBuf := make([]int, 0, h.N())
	checked := 0
	for id := int32(0); id < int32(vs.States()); id++ {
		m.Codec.Decode(cfg, vs.Key(id))
		en := sim.EnabledOf(m.Prog, cfg, nil)
		if len(en) == 0 {
			continue
		}
		checked++
		for _, d := range daemons {
			sel := d.Select(selBuf[:0], en, 0, rng)
			if len(sel) == 0 {
				t.Fatalf("daemon %s selected nothing from %v", d.Name(), en)
			}
			sim.Apply(m.Prog, cfg, next, sel, rng)
			// The applied successor must be a valid, re-encodable state.
			m.Codec.Encode(enc, next)
		}
	}
	if checked == 0 {
		t.Fatal("no enabled configurations decoded")
	}
}
