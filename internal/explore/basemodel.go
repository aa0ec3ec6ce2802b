package explore

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// Baseline adapts the related-work baselines (dining, token-ring) to the
// explorer. The baselines are *not* self-stabilizing, so only the
// legitimate initial configuration is seeded — which is precisely the
// interesting contrast: the CC algorithms verify from arbitrary initial
// configurations, the baselines only from their hand-prepared one.
// There is no Correct(p) predicate either, so the closure and
// convergence checks are unavailable; exclusion, synchronization,
// essential discussion and deadlock-freedom still apply.
//
// The token-ring baseline on a committee ring additionally declares the
// rotation group: its guards are purely structural (no identifier
// order), so process rotation is a full automorphism and -symmetry
// explores it modulo rotation. Dining does not qualify — its initial
// fork orientation and request tie-break read the committee index order
// (see symmetry.go).
func Baseline(kind baseline.Kind, h *hypergraph.H, disc int) (func() *Model[baseline.BState], error) {
	if err := CheckBaseline(h); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s/%s", kind, h)
	layout := newBaseLayout(h, disc, kind == baseline.Dining)
	var syms []func(dst, src []baseline.BState)
	if kind == baseline.TokenRing {
		syms = tokenRingSyms(h)
	}
	return func() *Model[baseline.BState] {
		a := baseline.New(kind, h, disc)
		prog := a.Program()
		n := prog.NumProcs
		// Batch kernel: the generic scalar kernel — no columnar
		// speedups, but the same bulk apply-once/patch-per-selection
		// expansion structure, which keeps the baselines in the batch
		// differential battery. Requires the incremental codec (every
		// per-process block ≤ 64 bits) and an enabled set that fits a
		// word; kernels are per-worker scratch, so each gets a fresh
		// program.
		var kernel func() sim.BatchKernel[baseline.BState]
		if layout.incr && n <= 64 {
			kernel = func() sim.BatchKernel[baseline.BState] {
				return sim.NewProgramKernel(baseline.New(kind, h, disc).Program())
			}
		}
		return &Model[baseline.BState]{
			Name:  name,
			Prog:  prog,
			Probe: a.Probe(),
			Codec: baseCodec(layout),
			Inits: func(yield func(cfg []baseline.BState) bool) {
				cfg := make([]baseline.BState, n)
				for p := 0; p < n; p++ {
					cfg[p] = prog.Init(p, nil)
				}
				yield(cfg)
			},
			Render: func(cfg []baseline.BState) string { return renderBase(a, cfg) },
			Syms:   syms,
			Kernel: kernel,
		}
	}, nil
}

// CheckBaseline reports what Baseline rejects about a topology without
// building a model: the state codec's size bound.
func CheckBaseline(h *hypergraph.H) error {
	if h.N()+h.M() > 250 {
		return fmt.Errorf("explore: topology too large for the state codec (n+m=%d; max 250)", h.N()+h.M())
	}
	return nil
}

func renderBase(a *baseline.Alg, cfg []baseline.BState) string {
	var b strings.Builder
	n := a.H.N()
	status := []string{"id", "wa", "do"}
	phase := []string{"think", "hungry", "gather", "sess"}
	for p := 0; p < n; p++ {
		if p > 0 {
			b.WriteString("  ")
		}
		club := "⊥"
		if cfg[p].Club >= 0 {
			club = fmt.Sprint(cfg[p].Club)
		}
		fmt.Fprintf(&b, "p%d:%s→%s", p, status[cfg[p].S], club)
	}
	for e := 0; e < a.H.M(); e++ {
		c := &cfg[n+e]
		marks := ""
		if c.HasTok {
			marks += "*"
		}
		fmt.Fprintf(&b, "  c%d:%s%s", e, phase[c.Phase], marks)
	}
	if meets := a.Meetings(cfg); len(meets) > 0 {
		fmt.Fprintf(&b, "  meets=%v", meets)
	}
	return b.String()
}
