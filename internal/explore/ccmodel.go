package explore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// This file adapts CC1/CC2/CC3 ∘ TC to the explorer: a canonical state
// codec, the initial-configuration families, a renderer for
// counterexample traces, and the seeded guard mutations used to prove
// the checker can catch real bugs.
//
// Environment: guards read Env.RequestIn/RequestOut, which must be
// frozen for exploration. The adapter uses the *eager* environment —
// both predicates constantly true — the choice that maximizes enabled
// actions: professors always want in, and always agree to leave. Every
// transition possible under any other stable environment whose
// predicates currently answer the same is covered; the spec properties
// checked here are safety properties of the algorithm, not of a
// particular client behaviour.
//
// Nondeterministic statement resolution ("P_p := ε ∈ FreeEdges_p") is
// pinned to core.ChooseFirst so Apply is a pure function of the
// configuration and the selection.

// InitMode selects the family of initial configurations.
type InitMode int

const (
	// InitLegit seeds the single canonical fault-free configuration —
	// exploration then proves closure of the legitimate space.
	InitLegit InitMode = iota
	// InitCC seeds every assignment of the CC-layer status and pointer
	// variables (S_p, P_p) over the stabilized token layer: the space of
	// configurations after transient faults hit the committee layer.
	InitCC
	// InitCCFull additionally ranges the T_p and L_p bits (L only for
	// CC2/CC3) — the full CC-layer fault space over a stabilized token
	// layer.
	InitCCFull
	// InitRandom seeds RandomCount configurations drawn uniformly from
	// the *entire* composed state space, token layer included — the §2.5
	// adversary's arbitrary corruption.
	InitRandom
)

func (m InitMode) String() string {
	switch m {
	case InitLegit:
		return "legit"
	case InitCC:
		return "cc"
	case InitCCFull:
		return "cc-full"
	case InitRandom:
		return "random"
	}
	return fmt.Sprintf("init(%d)", int(m))
}

// ParseInitMode parses the cccheck -init flag value.
func ParseInitMode(s string) (InitMode, error) {
	switch s {
	case "legit":
		return InitLegit, nil
	case "cc":
		return InitCC, nil
	case "cc-full":
		return InitCCFull, nil
	case "random":
		return InitRandom, nil
	}
	return 0, fmt.Errorf("explore: unknown init mode %q (legit | cc | cc-full | random)", s)
}

// CCOptions parameterize the CC model construction.
type CCOptions struct {
	Init        InitMode
	RandomCount int   // initial configurations for InitRandom (default 256)
	Seed        int64 // randomness for InitRandom
	// Mutation, if non-empty, deliberately breaks a guard (see MutateCC)
	// so the checker's counterexample machinery can be demonstrated.
	Mutation string
}

// CC returns a Model factory for the given variant over h. Each call of
// the factory builds an independent Alg (guards use per-Alg scratch, so
// one instance per worker); the binary codec layout is topology-only
// and shared read-only across workers.
func CC(variant core.Variant, h *hypergraph.H, opts CCOptions) (func() *Model[core.State], error) {
	if err := CheckCC(h, opts.Mutation); err != nil {
		return nil, err
	}
	layoutAlg, layoutProg := newCCProg(variant, h)
	// Apply the mutation once, eagerly, so the factory below cannot fail.
	if opts.Mutation != "" {
		if err := MutateCC(layoutAlg, layoutProg, opts.Mutation); err != nil {
			return nil, err
		}
	}
	if opts.RandomCount <= 0 {
		opts.RandomCount = 256
	}
	name := fmt.Sprintf("%s/%s", variant, h)
	if opts.Mutation != "" {
		name = fmt.Sprintf("%s+mutate:%s", variant, opts.Mutation)
	}
	layout := newCCLayout(layoutAlg)
	doms := ccInitDomains(layoutAlg, opts.Init)
	// Block permutations of order-isomorphic single-committee components
	// are the only id-order-preserving (hence sound) CC automorphisms —
	// see symmetry.go. InitRandom can plant foreign leader ids, which
	// reintroduces cross-component id comparisons, so it is excluded.
	var syms []func(dst, src []core.State)
	if opts.Init != InitRandom {
		syms = ccBlockSyms(layoutAlg)
	}
	// Correct(p) reads only the closed G_H neighborhood of p (the same
	// locality every CC ∘ TC guard declares), so its dependency
	// neighborhood is p plus its co-members.
	deps := make([][]int, h.N())
	for p := range deps {
		nb := h.Neighbors(p)
		deps[p] = append(append(make([]int, 0, len(nb)+1), nb...), p)
	}
	return func() *Model[core.State] {
		alg, prog := newCCProg(variant, h)
		if opts.Mutation != "" {
			if err := MutateCC(alg, prog, opts.Mutation); err != nil {
				panic(err) // validated above
			}
		}
		return &Model[core.State]{
			Name:        name,
			Prog:        prog,
			Probe:       alg.Probe(),
			Codec:       ccCodec(layout),
			Inits:       ccInits(alg, opts, doms),
			InitDomains: doms,
			Correct:     alg.Correct,
			Render:      func(cfg []core.State) string { return renderCC(alg, cfg) },
			Syms:        syms,
			Deps:        func(p int) []int { return deps[p] },
			Kernel:      ccKernel(variant, h, opts),
		}
	}, nil
}

// CheckCC reports what CC rejects about a topology and a mutation name
// without building a model: the explorer's size rule (checkWord) and an
// unknown mutation. Within 64 processes and 64 committees a CC process
// block is at most 51 bits, so only the two counts are tested.
func CheckCC(h *hypergraph.H, mutation string) error {
	if err := checkWord(h.N(), h.M(), 0); err != nil {
		return err
	}
	if mutation != "" && !slices.Contains(Mutations(), mutation) {
		return unknownMutation(mutation)
	}
	return nil
}

// ccKernel picks the batch kernel for the model: the columnar
// core.Kernel for the pristine program, the generic scalar kernel when
// a mutation rewrote guards (core.NewKernel hardcodes the transcribed
// guard semantics and must not silently shadow a deliberately broken
// program — its action-name validation would also reject skip-stab
// outright).
func ccKernel(variant core.Variant, h *hypergraph.H, opts CCOptions) func() sim.BatchKernel[core.State] {
	return func() sim.BatchKernel[core.State] {
		alg, prog := newCCProg(variant, h)
		if opts.Mutation != "" {
			if err := MutateCC(alg, prog, opts.Mutation); err != nil {
				panic(err) // validated by CC
			}
			return sim.NewProgramKernel(prog)
		}
		return core.NewKernel(alg, prog)
	}
}

// newCCProg builds an Alg with the frozen eager environment and
// deterministic choice resolution, plus its program.
func newCCProg(variant core.Variant, h *hypergraph.H) (*core.Alg, *sim.Program[core.State]) {
	env := core.NewScripted(h.N())
	for p := range env.In {
		env.In[p] = true
		env.Out[p] = true
	}
	alg := core.New(variant, h, env)
	alg.Choose = core.ChooseFirst
	return alg, alg.Program(false)
}

// --- Initial-configuration families ------------------------------------------

// ccInits streams the model's initial-configuration family; doms is
// ccInitDomains' answer for it.
func ccInits(alg *core.Alg, opts CCOptions, doms [][]core.State) func(yield func(cfg []core.State) bool) {
	h := alg.H
	n := h.N()
	switch opts.Init {
	case InitLegit:
		return func(yield func([]core.State) bool) {
			cfg := make([]core.State, n)
			for p := 0; p < n; p++ {
				cfg[p] = alg.LegitState(p)
			}
			yield(cfg)
		}
	case InitRandom:
		return func(yield func([]core.State) bool) {
			rng := rand.New(rand.NewSource(opts.Seed))
			cfg := make([]core.State, n)
			for i := 0; i < opts.RandomCount; i++ {
				for p := 0; p < n; p++ {
					cfg[p] = alg.RandomState(p, rng)
				}
				if !yield(cfg) {
					return
				}
			}
		}
	default: // InitCC, InitCCFull
		return productInits(doms)
	}
}

// ccInitDomains returns the per-process domains of the product
// families (InitCC, InitCCFull) over the stabilized token layer, and
// nil for the others.
func ccInitDomains(alg *core.Alg, init InitMode) [][]core.State {
	if init != InitCC && init != InitCCFull {
		return nil
	}
	doms := make([][]core.State, alg.H.N())
	for p := range doms {
		doms[p] = alg.EnumStates(p, init == InitCCFull)
	}
	return doms
}

// productInits streams the mixed-radix product of doms in index order,
// process 0 fastest: an odometer over the per-process domains.
func productInits[S any](doms [][]S) func(yield func(cfg []S) bool) {
	return func(yield func([]S) bool) {
		cfg := make([]S, len(doms))
		for p, d := range doms {
			if len(d) == 0 {
				return
			}
			cfg[p] = d[0]
		}
		idx := make([]int, len(doms))
		for yield(cfg) {
			p := 0
			for ; p < len(doms); p++ {
				idx[p]++
				if idx[p] < len(doms[p]) {
					cfg[p] = doms[p][idx[p]]
					break
				}
				idx[p] = 0
				cfg[p] = doms[p][0]
			}
			if p == len(doms) {
				return
			}
		}
	}
}

// --- Rendering ----------------------------------------------------------------

// renderCC pretty-prints a configuration for counterexample traces.
func renderCC(alg *core.Alg, cfg []core.State) string {
	var b strings.Builder
	for p := range cfg {
		if p > 0 {
			b.WriteString("  ")
		}
		ptr := "⊥"
		if cfg[p].P != core.NoEdge {
			ptr = fmt.Sprint(cfg[p].P)
		}
		marks := ""
		if cfg[p].T {
			marks += "T"
		}
		if cfg[p].L {
			marks += "L"
		}
		if alg.Token(cfg, p) {
			marks += "*"
		}
		if marks != "" {
			marks = "[" + marks + "]"
		}
		fmt.Fprintf(&b, "p%d:%s→%s%s", p, shortStatus(cfg[p].S), ptr, marks)
	}
	if meets := alg.Meetings(cfg); len(meets) > 0 {
		fmt.Fprintf(&b, "  meets=%v", meets)
	}
	return b.String()
}

func shortStatus(s core.Status) string {
	switch s {
	case core.Idle:
		return "id"
	case core.Looking:
		return "lo"
	case core.Waiting:
		return "wa"
	case core.Done:
		return "do"
	}
	return "??"
}

// --- Seeded mutations ---------------------------------------------------------

// Mutations deliberately break one guard of the transcribed algorithm.
// They exist to demonstrate that the exhaustive checker detects real
// bugs with a counterexample trace — a checker that only ever says "ok"
// proves nothing about itself.
const (
	// MutationLeaveEarly weakens Step4's guard from LeaveMeeting(p) ∧
	// RequestOut(p) to S_p = done ∧ RequestOut(p): a professor leaves as
	// soon as its own essential discussion ends, violating Essential
	// Discussion (the meeting terminates while other members still wait).
	MutationLeaveEarly = "leave-early"
	// MutationSkipStab removes the stabilization actions (Stab / Stab1,
	// Stab2): from corrupted initial configurations incorrect processes
	// are never repaired, violating the convergence bound (and typically
	// deadlocking part of the system).
	MutationSkipStab = "skip-stab"
)

// Mutations lists the supported mutation names.
func Mutations() []string { return []string{MutationLeaveEarly, MutationSkipStab} }

// MutateCC applies the named mutation to prog in place.
func MutateCC(alg *core.Alg, prog *sim.Program[core.State], name string) error {
	switch name {
	case MutationLeaveEarly:
		for i := range prog.Actions {
			if prog.Actions[i].Name == "Step4" {
				prog.Actions[i].Guard = func(cfg []core.State, p int) bool {
					return cfg[p].S == core.Done && alg.Env.RequestOut(p)
				}
				return nil
			}
		}
		return fmt.Errorf("explore: mutation %q found no Step4 action", name)
	case MutationSkipStab:
		kept := prog.Actions[:0]
		removed := 0
		for _, a := range prog.Actions {
			if a.Name == "Stab" || a.Name == "Stab1" || a.Name == "Stab2" {
				removed++
				continue
			}
			kept = append(kept, a)
		}
		prog.Actions = kept
		if removed == 0 {
			return fmt.Errorf("explore: mutation %q found no stabilization actions", name)
		}
		return nil
	}
	return unknownMutation(name)
}

func unknownMutation(name string) error {
	return fmt.Errorf("explore: unknown mutation %q (supported: %s)", name, strings.Join(Mutations(), ", "))
}
