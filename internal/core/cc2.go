package core

import (
	"math/rand"

	"repro/internal/sim"
)

// This file transcribes Algorithm 2 (CC2) and its §5.4 variant (CC3).
// CC2 assumes professors wait for meetings infinitely often, so the idle
// status and RequestIn disappear; a token is released only when its
// holder leaves a meeting, which yields Professor Fairness (Theorem 3)
// at the cost of Maximal Concurrency (Theorem 1). The lock bit L_p
// propagates "some committee around you was chosen by a token holder"
// so that unrelated committees keep convening (Figure 4).

// freeEdges2 — FreeEdges_p = {ε ∈ E_p | ∀q ∈ ε :
// (S_q = looking ∧ ¬L_q ∧ ¬T_q)}. Returns Alg-owned scratch (see
// freeEdges1 for the aliasing discipline).
func (a *Alg) freeEdges2(cfg []State, p int) []int {
	out := a.scEdges[:0]
	for _, e := range a.H.EdgesOf(p) {
		if a.allMembers(cfg, e, func(q int) bool {
			return cfg[q].S == Looking && !cfg[q].L && !cfg[q].T
		}) {
			out = append(out, e)
		}
	}
	a.scEdges = out
	return out
}

// freeNodes2 — FreeNodes_p = {q | ∃ε ∈ FreeEdges_p : q ∈ ε}.
func (a *Alg) freeNodes2(cfg []State, p int) []int {
	if a.scSeen == nil {
		a.scSeen = make([]bool, a.H.N())
	}
	out := a.scNodes[:0]
	for _, e := range a.freeEdges2(cfg, p) {
		for _, q := range a.H.Edge(e) {
			if !a.scSeen[q] {
				a.scSeen[q] = true
				out = append(out, q)
			}
		}
	}
	for _, q := range out {
		a.scSeen[q] = false
	}
	a.scNodes = out
	return out
}

// tPointingEdges — TPointingEdges_p = {ε ∈ E_p | ∃q ∈ ε :
// (P_q = ε ∧ T_q ∧ S_q = looking)}.
func (a *Alg) tPointingEdges(cfg []State, p int) []int {
	out := a.scTP[:0]
	for _, e := range a.H.EdgesOf(p) {
		for _, q := range a.H.Edge(e) {
			if cfg[q].P == e && cfg[q].T && cfg[q].S == Looking {
				out = append(out, e)
				break
			}
		}
	}
	a.scTP = out
	return out
}

// locked — Locked(p) ≡ TPointingEdges_p ≠ ∅.
func (a *Alg) locked(cfg []State, p int) bool {
	return len(a.tPointingEdges(cfg, p)) > 0
}

// leaveMeeting2 — LeaveMeeting(p) ≡ ∃ε ∈ E_p : (P_p = ε ∧ S_p = done ∧
// (∀q ∈ ε : (P_q = ε ⇒ S_q ≠ waiting))).
func (a *Alg) leaveMeeting2(cfg []State, p int) bool {
	e := cfg[p].P
	if e == NoEdge || cfg[p].S != Done || !containsEdge(a.H.EdgesOf(p), e) {
		return false
	}
	return a.allMembers(cfg, e, func(q int) bool {
		return cfg[q].P != e || cfg[q].S != Waiting
	})
}

// localMax2 — LocalMax(p) ≡ p = max(FreeNodes_p).
func (a *Alg) localMax2(cfg []State, p int) bool {
	fn := a.freeNodes2(cfg, p)
	if len(fn) == 0 {
		return false
	}
	return a.maxByID(fn) == p
}

// maxToFreeEdge2 — MaxToFreeEdge(p) ≡ ¬Token(p) ∧ ¬Locked(p) ∧
// FreeEdges_p ≠ ∅ ∧ LocalMax(p) ∧ ¬Ready(p) ∧ P_p ∉ FreeEdges_p.
func (a *Alg) maxToFreeEdge2(cfg []State, p int) bool {
	if a.Token(cfg, p) || a.locked(cfg, p) {
		return false
	}
	free := a.freeEdges2(cfg, p)
	if len(free) == 0 || !a.localMax2(cfg, p) || a.Ready(cfg, p) {
		return false
	}
	return !containsEdge(free, cfg[p].P)
}

// joinLocalMax2 — JoinLocalMax(p) ≡ ¬Token(p) ∧ ¬Locked(p) ∧
// FreeEdges_p ≠ ∅ ∧ ¬LocalMax(p) ∧ ¬Ready(p) ∧
// ∃ε ∈ FreeEdges_p : (P_max(FreeNodes_p) = ε ∧ P_p ≠ ε).
func (a *Alg) joinLocalMax2(cfg []State, p int) bool {
	if a.Token(cfg, p) || a.locked(cfg, p) {
		return false
	}
	free := a.freeEdges2(cfg, p)
	if len(free) == 0 || a.localMax2(cfg, p) || a.Ready(cfg, p) {
		return false
	}
	mx := a.maxByID(a.freeNodes2(cfg, p))
	target := cfg[mx].P
	return containsEdge(free, target) && cfg[p].P != target
}

// tokenTarget returns the committee the token holder p must stick to:
// for CC2 a smallest incident committee (MinEdges_p, chosen by the
// pluggable strategy); for CC3 the round-robin cursor's committee
// (§5.4: "every time a process acquires the token, it sequentially
// selects a new incident committee").
func (a *Alg) tokenTarget(cfg []State, p int, rng *rand.Rand) int {
	ep := a.H.EdgesOf(p)
	if len(ep) == 0 {
		return NoEdge
	}
	if a.Variant == CC3 {
		return ep[normCursor(cfg[p].R, len(ep))]
	}
	cands := a.H.MinEdges(p)
	if a.NoMinSize {
		cands = ep
	}
	if a.Choose != nil && rng != nil {
		return a.Choose(p, cands, rng)
	}
	return cands[0]
}

// tokenWants reports whether the token holder's pointer disagrees with
// its target set: CC2's P_p ∉ MinEdges_p, CC3's P_p ≠ E_p[R_p].
func (a *Alg) tokenWants(cfg []State, p int) bool {
	ep := a.H.EdgesOf(p)
	if len(ep) == 0 {
		return false
	}
	if a.Variant == CC3 {
		return cfg[p].P != ep[normCursor(cfg[p].R, len(ep))]
	}
	if a.NoMinSize {
		return !containsEdge(ep, cfg[p].P)
	}
	return !containsEdge(a.H.MinEdges(p), cfg[p].P)
}

// tokenHolderToEdge — TokenHolderToEdge(p) ≡ Token(p) ∧ (S_p = looking) ∧
// ¬Ready(p) ∧ (P_p ∉ MinEdges_p) (CC3: P_p ≠ E_p[R_p]).
func (a *Alg) tokenHolderToEdge(cfg []State, p int) bool {
	return a.Token(cfg, p) && cfg[p].S == Looking && !a.Ready(cfg, p) && a.tokenWants(cfg, p)
}

// joinTokenHolder — JoinTokenHolder(p) ≡ ¬Token(p) ∧ (S_p = looking) ∧
// ¬Ready(p) ∧ Locked(p) ∧ (P_p ∉ TPointingEdges_p).
func (a *Alg) joinTokenHolder(cfg []State, p int) bool {
	if a.Token(cfg, p) || cfg[p].S != Looking || a.Ready(cfg, p) {
		return false
	}
	tp := a.tPointingEdges(cfg, p)
	return len(tp) > 0 && !containsEdge(tp, cfg[p].P)
}

// joinTokenTarget picks the committee for Step12's body. The paper's
// formula reads P_max(TPointingNodes_p); per docs/paper-map.md we
// implement its evident intent — among TPointingEdges_p, the edge
// pointed at by the looking token-holder with the greatest identifier —
// which coincides with the formula whenever the token is unique.
func (a *Alg) joinTokenTarget(cfg []State, p int) int {
	best, bestID := NoEdge, -1
	for _, e := range a.tPointingEdges(cfg, p) {
		for _, q := range a.H.Edge(e) {
			if cfg[q].P == e && cfg[q].T && cfg[q].S == Looking && a.H.ID(q) > bestID {
				best, bestID = e, a.H.ID(q)
			}
		}
	}
	return best
}

// Correct2 — Correct(p) ≡ [(S_p = waiting) ⇒ Ready(p) ∨ Meeting(p)] ∧
// [(S_p = done) ⇒ Meeting(p) ∨ LeaveMeeting(p)].
func (a *Alg) Correct2(cfg []State, p int) bool {
	switch cfg[p].S {
	case Waiting:
		return a.Ready(cfg, p) || a.Meeting(cfg, p)
	case Done:
		return a.Meeting(cfg, p) || a.leaveMeeting2(cfg, p)
	case Idle:
		return false // idle does not exist in CC2/CC3; treat as corrupt
	}
	return true
}

// cc2Actions returns Algorithm 2's action list in the paper's code order
// (Lock first, Stab last). The CC3 variant differs only in the token
// holder's target selection and in advancing the round-robin cursor.
func (a *Alg) cc2Actions() []sim.Action[State] {
	return []sim.Action[State]{
		{
			Name:  "Lock", // Locked(p) ≠ L_p → L_p := Locked(p)
			Guard: func(cfg []State, p int) bool { return a.locked(cfg, p) != cfg[p].L },
			Body: func(cfg []State, p int, next *State, _ *rand.Rand) {
				next.L = a.locked(cfg, p)
			},
		},
		{
			Name:  "Step11", // TokenHolderToEdge(p) → P_p := ε ∈ MinEdges_p
			Guard: func(cfg []State, p int) bool { return a.tokenHolderToEdge(cfg, p) },
			Body: func(cfg []State, p int, next *State, rng *rand.Rand) {
				next.P = a.tokenTarget(cfg, p, rng)
			},
		},
		{
			Name:  "Step12", // JoinTokenHolder(p) → P_p := token holder's edge
			Guard: func(cfg []State, p int) bool { return a.joinTokenHolder(cfg, p) },
			Body: func(cfg []State, p int, next *State, _ *rand.Rand) {
				if e := a.joinTokenTarget(cfg, p); e != NoEdge {
					next.P = e
				}
			},
		},
		{
			Name:  "Step13", // MaxToFreeEdge(p) → P_p := ε ∈ FreeEdges_p
			Guard: func(cfg []State, p int) bool { return a.maxToFreeEdge2(cfg, p) },
			Body: func(cfg []State, p int, next *State, rng *rand.Rand) {
				free := a.freeEdges2(cfg, p)
				next.P = free[0]
				if a.Choose != nil {
					next.P = a.Choose(p, free, rng)
				}
			},
		},
		{
			Name:  "Step14", // JoinLocalMax(p) → P_p := P_max(FreeNodes_p)
			Guard: func(cfg []State, p int) bool { return a.joinLocalMax2(cfg, p) },
			Body: func(cfg []State, p int, next *State, _ *rand.Rand) {
				mx := a.maxByID(a.freeNodes2(cfg, p))
				next.P = cfg[mx].P
			},
		},
		{
			Name:  "Token", // Token(p) ≠ T_p → T_p := Token(p)
			Guard: func(cfg []State, p int) bool { return a.Token(cfg, p) != cfg[p].T },
			Body: func(cfg []State, p int, next *State, _ *rand.Rand) {
				tok := a.Token(cfg, p)
				next.T = tok
				if tok && !cfg[p].T && a.Variant == CC3 {
					// CC3: a fresh acquisition advances the round-robin
					// committee cursor so every incident committee is
					// selected infinitely often (§5.4).
					if m := len(a.H.EdgesOf(p)); m > 0 {
						next.R = (normCursor(cfg[p].R, m) + 1) % m
					}
				}
			},
		},
		{
			Name: "Step2", // Ready(p) ∧ S_p = looking → S_p := waiting
			Guard: func(cfg []State, p int) bool {
				return a.Ready(cfg, p) && cfg[p].S == Looking
			},
			Body: func(cfg []State, p int, next *State, _ *rand.Rand) {
				next.S = Waiting
			},
		},
		{
			Name: "Step3", // Meeting(p) ∧ S_p = waiting → 〈Essential〉; S_p := done
			Guard: func(cfg []State, p int) bool {
				return a.Meeting(cfg, p) && cfg[p].S == Waiting
			},
			Body: func(cfg []State, p int, next *State, _ *rand.Rand) {
				if a.OnEssential != nil {
					a.OnEssential(p, cfg[p].P)
				}
				next.S = Done
			},
		},
		{
			Name: "Step4", // LeaveMeeting(p) ∧ RequestOut(p) → leave; release token
			Guard: func(cfg []State, p int) bool {
				return a.leaveMeeting2(cfg, p) && a.Env.RequestOut(p)
			},
			Body: func(cfg []State, p int, next *State, _ *rand.Rand) {
				next.S = Looking
				next.P = NoEdge
				next.T = false
				if a.Token(cfg, p) {
					a.releaseToken(cfg, p, next)
				}
			},
		},
		{
			Name:  "Stab", // ¬Correct(p) → S_p := looking; P_p := ⊥
			Guard: func(cfg []State, p int) bool { return !a.Correct2(cfg, p) },
			Body: func(cfg []State, p int, next *State, _ *rand.Rand) {
				next.S = Looking
				next.P = NoEdge
			},
		},
	}
}

// normCursor maps an arbitrary (possibly corrupted) cursor into [0, m).
func normCursor(r, m int) int {
	if m <= 0 {
		return 0
	}
	r %= m
	if r < 0 {
		r += m
	}
	return r
}
