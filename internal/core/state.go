// Package core implements the paper's committee-coordination algorithms:
//
//   - CC1 ∘ TC (§4, Algorithm 1): snap-stabilizing, satisfies Exclusion,
//     Synchronization, Progress, 2-Phase Discussion and Maximal
//     Concurrency (Theorem 2);
//   - CC2 ∘ TC (§5, Algorithm 2): snap-stabilizing, satisfies Exclusion,
//     Synchronization, 2-Phase Discussion and Professor Fairness under
//     the assumption that professors wait for meetings infinitely often
//     (Theorem 3);
//   - CC3 ∘ TC (§5.4): the CC2 variant where a token holder sequentially
//     selects a new incident committee on each acquisition, additionally
//     satisfying Committee Fairness (Theorem 7).
//
// Every process runs the identical local algorithm; the hypergraph and
// the process identifiers are the only per-process inputs. The token
// module TC (package token) supplies the Token(p) input predicate and
// the ReleaseToken(p) statement; its stabilizing actions are fairly
// composed with the CC actions in the same sim.Program, exactly as the
// paper's CC ∘ TC composition.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/hypergraph"
	"repro/internal/token"
)

// Status is the status variable S_p.
type Status uint8

const (
	// Idle: the professor has no interest in meeting (CC1 only; CC2/CC3
	// assume always-requesting professors, so idle does not occur there).
	Idle Status = iota
	// Looking: the professor requests a meeting and is searching for an
	// available committee. Looking and Waiting together form the
	// "waiting" state of the original problem statement (§2.3).
	Looking
	// Waiting: the professor agreed on a committee and waits for it to
	// convene.
	Waiting
	// Done: the professor performed its essential discussion and is in
	// the voluntary-discussion phase.
	Done
)

func (s Status) String() string {
	switch s {
	case Idle:
		return "idle"
	case Looking:
		return "looking"
	case Waiting:
		return "waiting"
	case Done:
		return "done"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// NoEdge is the ⊥ value of the edge pointer P_p.
const NoEdge = -1

// TokenState aliases the TC-layer state type for callers that inspect
// the composed state without importing the token package.
type TokenState = token.State

// State is the full per-process state of CC ∘ TC. Fields L and R are used
// only by CC2/CC3 but live in the shared type so that all three variants
// run in the same engine instantiation.
type State struct {
	S Status // status S_p
	P int    // edge pointer P_p ∈ E_p ∪ {NoEdge}
	T bool   // token mirror T_p
	L bool   // lock bit L_p (CC2/CC3)
	R int    // round-robin committee cursor (CC3)

	TC token.State // composed token-circulation state
}

// Clone returns a deep copy (sim.Cloneable).
func (s State) Clone() State {
	c := s
	c.TC = s.TC.Clone()
	return c
}

// Variant selects the algorithm.
type Variant uint8

const (
	CC1 Variant = iota + 1
	CC2
	CC3
)

func (v Variant) String() string {
	switch v {
	case CC1:
		return "CC1"
	case CC2:
		return "CC2"
	case CC3:
		return "CC3"
	}
	return fmt.Sprintf("variant(%d)", uint8(v))
}

// ChoiceFunc picks one of the candidate edges in an action body whose
// statement is nondeterministic in the paper ("P_p := ε such that
// ε ∈ FreeEdges_p"). options is non-empty and sorted ascending.
// Implementations must treat options as read-only: it may alias
// precomputed topology tables (hypergraph.H incidence/MinEdges, shared
// across engines and parallel experiment cells) or engine scratch.
type ChoiceFunc func(p int, options []int, rng *rand.Rand) int

// ChooseFirst picks the lowest-indexed candidate (deterministic default).
func ChooseFirst(_ int, options []int, _ *rand.Rand) int { return options[0] }

// ChooseRandom picks uniformly.
func ChooseRandom(_ int, options []int, rng *rand.Rand) int {
	return options[rng.Intn(len(options))]
}

// Alg binds a variant to a hypergraph, a token module, an environment and
// a choice strategy, and produces the composed sim.Program.
type Alg struct {
	Variant Variant
	H       *hypergraph.H
	TC      *token.Module
	Env     Env
	Choose  ChoiceFunc

	// OnEssential, if non-nil, is invoked from Step32/Step3 bodies when
	// process p performs its essential discussion in committee e — the
	// paper's 〈EssentialDiscussion〉 hook (Definition 1, Phase 1).
	OnEssential func(p, e int)

	// NoMinSize ablates CC2's design choice of restricting a token
	// holder's selection to a smallest incident committee — the paper
	// notes the restriction "is used only to slightly enhance the
	// concurrency" (§5.1). With NoMinSize the holder picks among all its
	// committees; the ABL experiment measures the resulting drop in the
	// degree of fair concurrency. Ignored by CC1 and CC3.
	NoMinSize bool

	// NoLocality omits the sim.Locality declaration from Program, forcing
	// the engine onto the full-rescan path. Every guard of CC ∘ TC reads
	// only the closed G_H neighborhood of its process, so the two paths
	// are observationally identical; the equivalence tests assert exactly
	// that by running both side by side.
	NoLocality bool

	// Predicate scratch, reused across guard evaluations so the engine
	// hot path stays allocation-free. Guards run on the engine's single
	// goroutine; an Alg must therefore not be shared by concurrently
	// running engines (the parallel experiment runner builds one Alg per
	// cell). The aliasing is safe because every nested use re-derives the
	// same deterministic contents for the same (cfg, p) arguments.
	scEdges []int
	scNodes []int
	scTN    []int
	scTP    []int
	scSeen  []bool

	viewBase *State     // identity of the cfg buffer viewFn reads
	viewFn   token.View // cached closure over that buffer
}

// New creates an Alg for the given variant over hypergraph h. The token
// module is derived from h's underlying communication network and
// identifiers. env may be nil for callers that construct a Runner (which
// installs one).
func New(variant Variant, h *hypergraph.H, env Env) *Alg {
	n := h.N()
	adj := make([][]int, n)
	ids := make([]int, n)
	for v := 0; v < n; v++ {
		adj[v] = h.Neighbors(v)
		ids[v] = h.ID(v)
	}
	return &Alg{
		Variant: variant,
		H:       h,
		TC:      token.New(adj, ids),
		Env:     env,
		Choose:  ChooseFirst,
	}
}

// tcView adapts a CC configuration to the token module's view. The
// closure is cached per configuration buffer: the engine mutates its
// configuration in place, so the buffer identity is stable across steps
// and the hot path allocates no closures.
func (a *Alg) tcView(cfg []State) token.View {
	if len(cfg) == 0 {
		return func(q int) *token.State { return nil }
	}
	if a.viewBase != &cfg[0] {
		c := cfg
		a.viewBase = &c[0]
		a.viewFn = func(q int) *token.State { return &c[q].TC }
	}
	return a.viewFn
}

// Token is the input predicate Token(p) from TC.
func (a *Alg) Token(cfg []State, p int) bool {
	return a.TC.HasToken(a.tcView(cfg), p)
}

// releaseToken is the input statement ReleaseToken_p.
func (a *Alg) releaseToken(cfg []State, p int, next *State) {
	a.TC.ReleaseToken(a.tcView(cfg), p, &next.TC)
}

// --- Shared predicates (identical formulas in Algorithms 1 and 2) -----------

// Ready(p) ≡ ∃ε∈E_p : ∀q∈ε : (P_q = ε ∧ S_q ∈ {looking, waiting}).
func (a *Alg) Ready(cfg []State, p int) bool {
	for _, e := range a.H.EdgesOf(p) {
		if a.allMembers(cfg, e, func(q int) bool {
			return cfg[q].P == e && (cfg[q].S == Looking || cfg[q].S == Waiting)
		}) {
			return true
		}
	}
	return false
}

// Meeting(p) ≡ ∃ε∈E_p : ∀q∈ε : (P_q = ε ∧ S_q ∈ {waiting, done}).
func (a *Alg) Meeting(cfg []State, p int) bool {
	for _, e := range a.H.EdgesOf(p) {
		if a.EdgeMeets(cfg, e) {
			return true
		}
	}
	return false
}

// EdgeMeets reports whether committee e currently meets (§4.2: every
// member points at e with status in {waiting, done}).
func (a *Alg) EdgeMeets(cfg []State, e int) bool {
	return a.allMembers(cfg, e, func(q int) bool {
		return cfg[q].P == e && (cfg[q].S == Waiting || cfg[q].S == Done)
	})
}

// Meetings returns the sorted indices of all committees meeting in cfg.
func (a *Alg) Meetings(cfg []State) []int {
	var out []int
	for e := 0; e < a.H.M(); e++ {
		if a.EdgeMeets(cfg, e) {
			out = append(out, e)
		}
	}
	return out
}

// WaitingAbstract reports whether p is in the original problem's
// "waiting" state (§4.2 maps it to S_p ∈ {looking, waiting}).
func (a *Alg) WaitingAbstract(cfg []State, p int) bool {
	return cfg[p].S == Looking || cfg[p].S == Waiting
}

func (a *Alg) allMembers(cfg []State, e int, pred func(q int) bool) bool {
	for _, q := range a.H.Edge(e) {
		if !pred(q) {
			return false
		}
	}
	return true
}

// maxByID returns the vertex with the greatest identifier in vs (which
// must be non-empty).
func (a *Alg) maxByID(vs []int) int {
	best := vs[0]
	for _, v := range vs[1:] {
		if a.H.ID(v) > a.H.ID(best) {
			best = v
		}
	}
	return best
}

// RandomState draws an arbitrary initial state for p: every variable
// uniformly from its domain (the adversary's corruption after transient
// faults; §2.5). Edge pointers respect their domain E_p ∪ {⊥}.
func (a *Alg) RandomState(p int, rng *rand.Rand) State {
	var s State
	switch a.Variant {
	case CC1:
		s.S = Status(rng.Intn(4)) // idle..done
	default:
		s.S = Status(1 + rng.Intn(3)) // looking..done (no idle in CC2/CC3)
	}
	ep := a.H.EdgesOf(p)
	if len(ep) > 0 && rng.Intn(3) > 0 {
		s.P = ep[rng.Intn(len(ep))]
	} else {
		s.P = NoEdge
	}
	s.T = rng.Intn(2) == 0
	s.L = rng.Intn(2) == 0
	if len(ep) > 0 {
		s.R = rng.Intn(len(ep))
	}
	s.TC = a.TC.RandomState(p, rng)
	return s
}

// LegitState returns a canonical fault-free initial state.
func (a *Alg) LegitState(p int) State {
	s := State{P: NoEdge, TC: a.TC.LegitState(p)}
	if a.Variant == CC1 {
		s.S = Idle
	} else {
		s.S = Looking
	}
	return s
}
