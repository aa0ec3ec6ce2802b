// Package baseline implements the non-stabilizing committee-coordination
// algorithms from the paper's related work (§6), used as comparison
// points by the concurrency experiments:
//
//   - Dining: the Chandy–Misra reduction [2] — each committee is a
//     hygienic dining philosopher on the committee conflict graph; a
//     committee meets while its philosopher eats;
//   - TokenRing: a Bagrodia-style single token circulating over the
//     committees in index order [3]; only the token holder may convene
//     its committee.
//
// The experiments report a centralized greedy oracle beside them as an
// upper bound on achievable concurrency (not a distributed algorithm).
//
// The distributed baselines run in the same guarded-action engine as
// CC1/CC2/CC3, over n professor processes plus m committee-agent
// processes. Two deliberate infidelities, documented here and in
// docs/paper-map.md: (1) committee agents read each other's variables even when
// the corresponding professors are not adjacent (the original algorithms
// are message-passing; manager-to-manager channels are modelled as
// shared variables); (2) the baselines are *not* self-stabilizing — they
// must start from their legitimate initial configuration, which is
// precisely the contrast the EXP-SNAP experiment draws against the
// snap-stabilizing algorithms.
package baseline

import (
	"fmt"
	"math/rand"

	"repro/internal/hypergraph"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Professor statuses. A professor that has joined a convening committee
// (Club set) but not yet performed its essential discussion is still
// PWaiting — mirroring the CC algorithms, where the "waiting" status
// covers both searching and attending, so that the Synchronization
// monitor sees every member waiting at the convene instant (Lemma 2).
const (
	PIdle uint8 = iota
	PWaiting
	PDone
)

// Committee phases.
const (
	CThinking uint8 = iota
	CHungry
	CGather // meeting convened; members joining (E1)
	CSession
)

// BState is the union state of one process: professors use the P-fields,
// committee agents the C-fields.
type BState struct {
	// Professor.
	S    uint8
	Club int // committee currently joined, or -1
	Age  int // steps spent in done (voluntary-discussion clock)

	// Committee agent.
	Phase   uint8
	Fork    []bool // per conflict neighbor: I hold the shared fork
	Dirty   []bool // per conflict neighbor: that fork is dirty
	Asked   []bool // per conflict neighbor: I requested that fork
	HasTok  bool   // token ring
	Handing bool   // token ring: handover in progress
}

// Clone returns a deep copy. The three per-conflict-neighbor vectors
// share one backing array so cloning a committee agent costs a single
// allocation (professors clone for free).
func (s BState) Clone() BState {
	c := s
	k := len(s.Fork)
	if k == 0 {
		return c
	}
	buf := make([]bool, 3*k)
	c.Fork = buf[0*k : 1*k : 1*k]
	c.Dirty = buf[1*k : 2*k : 2*k]
	c.Asked = buf[2*k : 3*k : 3*k]
	copy(c.Fork, s.Fork)
	copy(c.Dirty, s.Dirty)
	copy(c.Asked, s.Asked)
	return c
}

// Kind selects the baseline algorithm.
type Kind uint8

const (
	// Dining is the Chandy–Misra hygienic-dining reduction.
	Dining Kind = iota + 1
	// TokenRing is the single circulating token over committees.
	TokenRing
)

func (k Kind) String() string {
	switch k {
	case Dining:
		return "dining"
	case TokenRing:
		return "token-ring"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Alg is a baseline instance over a hypergraph.
type Alg struct {
	Kind Kind
	H    *hypergraph.H
	// Disc is the number of done-status steps a professor spends before
	// it may leave (the voluntary-discussion length).
	Disc int

	// NoLocality omits the sim.Locality declaration from Program (the
	// cross-check tests run the full-rescan path side by side with the
	// incremental one).
	NoLocality bool

	conflicts [][]int       // committee conflict graph (by edge index)
	cpos      []map[int]int // cpos[c][d] = index of d in conflicts[c]
}

// New builds a baseline algorithm.
func New(kind Kind, h *hypergraph.H, disc int) *Alg {
	a := &Alg{Kind: kind, H: h, Disc: disc, conflicts: h.ConflictGraph()}
	a.cpos = make([]map[int]int, h.M())
	for c := range a.conflicts {
		a.cpos[c] = make(map[int]int, len(a.conflicts[c]))
		for i, d := range a.conflicts[c] {
			a.cpos[c][d] = i
		}
	}
	return a
}

// Node numbering: professors 0..n-1, committee agents n..n+m-1.

// NumProcs returns the process count of the composed program.
func (a *Alg) NumProcs() int { return a.H.N() + a.H.M() }

// commNode maps a committee index to its agent's process id.
func (a *Alg) commNode(e int) int { return a.H.N() + e }

// isComm reports whether process id is a committee agent, returning the
// committee index.
func (a *Alg) isComm(p int) (int, bool) {
	if p >= a.H.N() {
		return p - a.H.N(), true
	}
	return 0, false
}

// Meets reports whether committee e meets: every member has joined it
// (the same abstract definition the CC algorithms use — all members
// attending, in waiting-or-done status — so monitors compare like for
// like).
func (a *Alg) Meets(cfg []BState, e int) bool {
	for _, q := range a.H.Edge(e) {
		if cfg[q].Club != e || (cfg[q].S != PWaiting && cfg[q].S != PDone) {
			return false
		}
	}
	return true
}

// Meetings lists the committees meeting in cfg.
func (a *Alg) Meetings(cfg []BState) []int {
	var out []int
	for e := 0; e < a.H.M(); e++ {
		if a.Meets(cfg, e) {
			out = append(out, e)
		}
	}
	return out
}

// Probe adapts the baseline to the spec monitors.
func (a *Alg) Probe() spec.Probe[BState] {
	return spec.Probe[BState]{
		H:       a.H,
		Meets:   func(cfg []BState, e int) bool { return a.Meets(cfg, e) },
		Waiting: func(cfg []BState, p int) bool { return cfg[p].S == PWaiting },
		Done:    func(cfg []BState, p int) bool { return cfg[p].S == PDone },
	}
}

// --- Professor-side actions (shared by both distributed baselines) ----------

// gatherTarget returns the unique incident committee in Gather phase
// that p has not yet joined, or -1. (Uniqueness: two incident committees
// conflict, and the committee layer never convenes conflicting
// committees together. Session-phase committees are deliberately not
// joinable: their meeting already runs — rejoining a dissolving meeting
// would fake a convene event with a stale done member.)
func (a *Alg) gatherTarget(cfg []BState, p int) int {
	for _, e := range a.H.EdgesOf(p) {
		if cfg[a.commNode(e)].Phase == CGather && cfg[p].Club != e {
			return e
		}
	}
	return -1
}

// allJoined reports whether every member of e has joined it.
func (a *Alg) allJoined(cfg []BState, e int) bool {
	for _, q := range a.H.Edge(e) {
		if cfg[q].Club != e {
			return false
		}
	}
	return true
}

// allDoneOrGone reports whether every member still pointing at e is done.
func (a *Alg) allDoneOrGone(cfg []BState, e int) bool {
	for _, q := range a.H.Edge(e) {
		if cfg[q].Club == e && cfg[q].S != PDone {
			return false
		}
	}
	return true
}

func (a *Alg) profActions() []sim.Action[BState] {
	isProf := func(p int) bool { return p < a.H.N() }
	return []sim.Action[BState]{
		{
			Name: "PReq", // idle professor starts waiting
			Guard: func(cfg []BState, p int) bool {
				return isProf(p) && cfg[p].S == PIdle
			},
			Body: func(cfg []BState, p int, next *BState, _ *rand.Rand) {
				next.S = PWaiting
			},
		},
		{
			Name: "PJoin", // a convening incident committee gathers its members
			Guard: func(cfg []BState, p int) bool {
				return isProf(p) && cfg[p].S == PWaiting && cfg[p].Club == -1 &&
					a.gatherTarget(cfg, p) != -1
			},
			Body: func(cfg []BState, p int, next *BState, _ *rand.Rand) {
				next.Club = a.gatherTarget(cfg, p)
				next.Age = 0 // still PWaiting: the meeting has not convened yet
			},
		},
		{
			Name: "PEssential", // all members joined: perform essential discussion
			Guard: func(cfg []BState, p int) bool {
				return isProf(p) && cfg[p].S == PWaiting && cfg[p].Club != -1 &&
					a.allJoined(cfg, cfg[p].Club)
			},
			Body: func(cfg []BState, p int, next *BState, _ *rand.Rand) {
				next.S = PDone
			},
		},
		{
			Name: "PAge", // voluntary-discussion clock
			Guard: func(cfg []BState, p int) bool {
				return isProf(p) && cfg[p].S == PDone && cfg[p].Age < a.Disc
			},
			Body: func(cfg []BState, p int, next *BState, _ *rand.Rand) {
				next.Age++
			},
		},
		{
			Name: "PLeave", // 2-phase: leave only when every participant is done
			Guard: func(cfg []BState, p int) bool {
				// Not during Gather: leaving before the committee noticed
				// the meeting convened would wedge its phase machine. Any
				// later phase (Session, or already dissolved) is fine.
				return isProf(p) && cfg[p].S == PDone && cfg[p].Age >= a.Disc &&
					cfg[p].Club != -1 && a.allDoneOrGone(cfg, cfg[p].Club) &&
					cfg[a.commNode(cfg[p].Club)].Phase != CGather
			},
			Body: func(cfg []BState, p int, next *BState, _ *rand.Rand) {
				next.S = PIdle
				next.Club = -1
				next.Age = 0
			},
		},
	}
}

// allMembersFree reports whether every member of e is waiting and
// unattached (the committee may convene).
func (a *Alg) allMembersFree(cfg []BState, e int) bool {
	for _, q := range a.H.Edge(e) {
		if cfg[q].S != PWaiting || cfg[q].Club != -1 {
			return false
		}
	}
	return true
}

// someMemberLeft reports whether the meeting of e has started dissolving.
func (a *Alg) someMemberLeft(cfg []BState, e int) bool {
	for _, q := range a.H.Edge(e) {
		if cfg[q].Club != e {
			return true
		}
	}
	return false
}

// conflictBusy reports whether a conflicting committee is currently in
// Gather or Session phase.
func (a *Alg) conflictBusy(cfg []BState, e int) bool {
	for _, d := range a.conflicts[e] {
		ph := cfg[a.commNode(d)].Phase
		if ph == CGather || ph == CSession {
			return true
		}
	}
	return false
}

// commonCommitteeActions returns the phase bookkeeping shared by the
// distributed baselines: Gather → Session once everyone joined, back to
// Thinking once the meeting dissolves.
func (a *Alg) commonCommitteeActions(onDissolve func(next *BState)) []sim.Action[BState] {
	return []sim.Action[BState]{
		{
			Name: "CSession",
			Guard: func(cfg []BState, p int) bool {
				e, ok := a.isComm(p)
				return ok && cfg[p].Phase == CGather && a.allJoined(cfg, e)
			},
			Body: func(cfg []BState, p int, next *BState, _ *rand.Rand) {
				next.Phase = CSession
			},
		},
		{
			Name: "CDissolve",
			Guard: func(cfg []BState, p int) bool {
				e, ok := a.isComm(p)
				return ok && cfg[p].Phase == CSession && a.someMemberLeft(cfg, e)
			},
			Body: func(cfg []BState, p int, next *BState, _ *rand.Rand) {
				next.Phase = CThinking
				if onDissolve != nil {
					onDissolve(next)
				}
			},
		},
	}
}
