package core

import (
	"fmt"
	"math/rand"

	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/token"
)

// This file is the batch/SoA guard kernel for CC ∘ TC: a
// sim.BatchKernel that evaluates every guard of a configuration in one
// columnar pass instead of walking the action list's guard closures per
// process. The committee-layer predicates (Ready, Meeting, EdgeMeets,
// FreeEdges, LeaveMeeting, TPointingEdges) all quantify over the members
// of incident committees, so the scalar path re-derives the same member
// scans once per guard per process; the kernel instead gathers the S/P/
// T/L fields into struct-of-arrays columns and computes every per-edge
// predicate in a single member pass per edge, shared by all processes
// and all guards. The action *bodies* are not reimplemented: Apply runs
// the Program's own scalar bodies, so the kernel can only diverge from
// the scalar engine in guard selection — exactly what the FuzzBatchGuards
// target and the three-way differential battery pin down.
//
// Beyond sim.BatchKernel, the kernel implements the explorer's extended
// checker interface (see internal/explore): cached EdgeMeets/Correct
// vectors for the parent configuration, and merged-view PostMeets/
// PostCorrect/SpecNeutral for successor configurations, which read the
// recorded post-state S/P columns for selected processes and the parent
// columns for the rest — the batch counterpart of re-evaluating the spec
// predicates on a materialized successor.

// Kernel is the columnar guard evaluator for one Alg. Like the Alg's own
// predicate scratch it is single-goroutine state: one Kernel per worker.
// Its columns are a handful of bytes each and rewritten for every
// expanded configuration, so they are par.PrivateSlices: made with plain
// make, two workers' kernels pack their columns into the same cache
// lines and every store evicts the other worker's copy.
type Kernel struct {
	alg  *Alg
	prog *sim.Program[State]
	rng  *rand.Rand
	h    *hypergraph.H
	n, m int

	// Action indices resolved by name at construction (the chooser
	// hardcodes the priority walk, so the program must be the unmutated
	// Alg.Program output — validated in NewKernel).
	cc1                                               bool
	aLock, aStep11, aStep12, aStep13, aStep14, aToken int
	aStep2, aStep3, aStep4, aStab                     int
	aStep1, aStep21, aStep22, aToken1, aToken2        int
	aStep31, aStep32, aStab1, aStab2                  int
	aTCLE, aTCNorm, aTCChainFix, aTCJoin, aTCResume   int

	// Static topology tables: isEdgeOf[p*m+e] ⟺ e ∈ E_p, and (CC2 with
	// min-size selection) isMin[p*m+e] ⟺ e ∈ MinEdges_p.
	isEdgeOf []bool
	isMin    []bool

	// Parent-configuration columns, gathered by Eval.
	colS []Status
	colP []int32
	colT []bool
	colL []bool

	// Per-edge predicates of the parent configuration, one member pass
	// per edge:
	//   meets[e]  — EdgeMeets: ∀q∈e: P_q=e ∧ S_q∈{waiting,done}
	//   readyE[e] — Ready witness: ∀q∈e: P_q=e ∧ S_q∈{looking,waiting}
	//   freeE[e]  — FreeEdges membership (CC1: ∀q: S_q=looking;
	//               CC2/CC3: ∀q: S_q=looking ∧ ¬L_q ∧ ¬T_q)
	//   exitE[e]  — LeaveMeeting member clause (CC1: ∀q: P_q≠e ∨ S_q=done;
	//               CC2/CC3: ∀q: P_q≠e ∨ S_q≠waiting)
	//   tPtE[e]   — TPointingEdges membership (CC2/CC3):
	//               ∃q∈e: P_q=e ∧ T_q ∧ S_q=looking
	meets, readyE, freeE, exitE, tPtE []bool

	// Per-process derived predicates (ORs over E_p plus the token bit
	// and the Correct value), and the chosen action per process.
	ready, meeting, lockedP, hasFree, tok, correct []bool
	acts                                           []int

	// Successor S/P columns recorded by Apply, and the selection mask
	// the merged Post* reads resolve against.
	postS   []Status
	postP   []int32
	selMask uint64
}

// NewKernel builds the columnar kernel for alg and its (unmutated)
// program. It panics if the action list does not match Alg.Program's
// layout — a mutated or foreign program must use the generic
// sim.NewProgramKernel instead, or the hardcoded guards would silently
// disagree with the program's.
func NewKernel(alg *Alg, prog *sim.Program[State]) *Kernel {
	h := alg.H
	n, m := h.N(), h.M()
	if n > 64 {
		panic(fmt.Sprintf("core: NewKernel over %d processes (max 64)", n))
	}
	k := &Kernel{
		alg: alg, prog: prog, rng: rand.New(rand.NewSource(1)),
		h: h, n: n, m: m, cc1: alg.Variant == CC1,
		isEdgeOf: par.PrivateSlice[bool](n * m),
		colS:     par.PrivateSlice[Status](n),
		colP:     par.PrivateSlice[int32](n),
		colT:     par.PrivateSlice[bool](n),
		colL:     par.PrivateSlice[bool](n),
		meets:    par.PrivateSlice[bool](m),
		readyE:   par.PrivateSlice[bool](m),
		freeE:    par.PrivateSlice[bool](m),
		exitE:    par.PrivateSlice[bool](m),
		tPtE:     par.PrivateSlice[bool](m),
		ready:    par.PrivateSlice[bool](n),
		meeting:  par.PrivateSlice[bool](n),
		lockedP:  par.PrivateSlice[bool](n),
		hasFree:  par.PrivateSlice[bool](n),
		tok:      par.PrivateSlice[bool](n),
		correct:  par.PrivateSlice[bool](n),
		acts:     par.PrivateSlice[int](n),
		postS:    par.PrivateSlice[Status](n),
		postP:    par.PrivateSlice[int32](n),
	}
	for p := 0; p < n; p++ {
		for _, e := range h.EdgesOf(p) {
			k.isEdgeOf[p*m+e] = true
		}
	}
	if !k.cc1 && alg.Variant == CC2 && !alg.NoMinSize {
		k.isMin = par.PrivateSlice[bool](n * m)
		for p := 0; p < n; p++ {
			for _, e := range h.MinEdges(p) {
				k.isMin[p*m+e] = true
			}
		}
	}
	idx := func(name string) int {
		for i, a := range prog.Actions {
			if a.Name == name {
				return i
			}
		}
		panic(fmt.Sprintf("core: NewKernel: program has no %q action (mutated or foreign program; use sim.NewProgramKernel)", name))
	}
	want := 15
	if len(prog.Actions) != want {
		panic(fmt.Sprintf("core: NewKernel: program has %d actions, want %d (mutated or foreign program; use sim.NewProgramKernel)", len(prog.Actions), want))
	}
	k.aTCResume, k.aTCJoin, k.aTCChainFix = idx("TC-Resume"), idx("TC-Join"), idx("TC-ChainFix")
	k.aTCNorm, k.aTCLE = idx("TC-Norm"), idx("TC-LE")
	if k.cc1 {
		k.aStep1, k.aStep21, k.aStep22 = idx("Step1"), idx("Step21"), idx("Step22")
		k.aToken1, k.aToken2 = idx("Token1"), idx("Token2")
		k.aStep31, k.aStep32, k.aStep4 = idx("Step31"), idx("Step32"), idx("Step4")
		k.aStab1, k.aStab2 = idx("Stab1"), idx("Stab2")
	} else {
		k.aLock, k.aStep11, k.aStep12 = idx("Lock"), idx("Step11"), idx("Step12")
		k.aStep13, k.aStep14, k.aToken = idx("Step13"), idx("Step14"), idx("Token")
		k.aStep2, k.aStep3, k.aStep4 = idx("Step2"), idx("Step3"), idx("Step4")
		k.aStab = idx("Stab")
	}
	return k
}

// inEp reports e ∈ E_p for an arbitrary (possibly corrupt) edge value.
func (k *Kernel) inEp(p int, e int32) bool {
	return e >= 0 && int(e) < k.m && k.isEdgeOf[p*k.m+int(e)]
}

// Eval gathers the configuration into columns, computes every per-edge
// and per-process predicate, and resolves each process's highest-
// priority enabled action (sim.BatchKernel).
func (k *Kernel) Eval(cfg []State) uint64 {
	h := k.h
	for p := 0; p < k.n; p++ {
		s := &cfg[p]
		k.colS[p] = s.S
		k.colP[p] = int32(s.P)
		k.colT[p] = s.T
		k.colL[p] = s.L
		k.tok[p] = s.TC.A && s.TC.H == token.Hold // token.Module.HasToken
	}
	// One member pass per edge computes all per-edge predicates.
	for e := 0; e < k.m; e++ {
		ee := int32(e)
		mt, rd, fr, ex := true, true, true, true
		tp := false
		for _, q := range h.Edge(e) {
			s, ptr := k.colS[q], k.colP[q]
			at := ptr == ee
			if !at || (s != Waiting && s != Done) {
				mt = false
			}
			if !at || (s != Looking && s != Waiting) {
				rd = false
			}
			if k.cc1 {
				if s != Looking {
					fr = false
				}
				if at && s != Done {
					ex = false
				}
			} else {
				if s != Looking || k.colL[q] || k.colT[q] {
					fr = false
				}
				if at && s == Waiting {
					ex = false
				}
				if at && k.colT[q] && s == Looking {
					tp = true
				}
			}
		}
		k.meets[e], k.readyE[e], k.freeE[e], k.exitE[e], k.tPtE[e] = mt, rd, fr, ex, tp
	}
	// Per-process ORs over E_p, then Correct from the cached edge bits.
	var enabled uint64
	for p := 0; p < k.n; p++ {
		rd, mt, fr, lk := false, false, false, false
		for _, e := range h.EdgesOf(p) {
			rd = rd || k.readyE[e]
			mt = mt || k.meets[e]
			fr = fr || k.freeE[e]
			lk = lk || k.tPtE[e]
		}
		k.ready[p], k.meeting[p], k.hasFree[p], k.lockedP[p] = rd, mt, fr, lk
		k.correct[p] = k.correctCached(p)
	}
	for p := 0; p < k.n; p++ {
		var a int
		if k.cc1 {
			a = k.choose1(cfg, p)
		} else {
			a = k.choose2(cfg, p)
		}
		k.acts[p] = a
		if a >= 0 {
			enabled |= uint64(1) << p
		}
	}
	return enabled
}

// correctCached evaluates Correct(p) for the parent configuration from
// the per-edge bitsets (Correct1/Correct2 read only S and P, which the
// edge pass has already folded into meets/readyE/exitE).
func (k *Kernel) correctCached(p int) bool {
	ptr := k.colP[p]
	switch k.colS[p] {
	case Idle:
		if k.cc1 {
			return ptr == NoEdge
		}
		return false // idle does not exist in CC2/CC3; treat as corrupt
	case Waiting:
		return k.ready[p] || k.meeting[p]
	case Done:
		// LeaveMeeting: P_p ∈ E_p and every member has left or finished
		// (exitE holds the variant's member clause).
		return k.meeting[p] || (k.inEp(p, ptr) && k.exitE[ptr])
	}
	return true
}

// choose2 resolves CC2/CC3's highest-priority enabled action for p,
// walking the same priority order as sim's enabledAction over
// Alg.Program: Stab > TC-LE > TC-Norm > TC-ChainFix > TC-Join >
// TC-Resume > Step4 > Step3 > Step2 > Token > Step14 > Step13 > Step12 >
// Step11 > Lock. Returns -1 if p is disabled.
func (k *Kernel) choose2(cfg []State, p int) int {
	a := k.alg
	if !k.correct[p] {
		return k.aStab
	}
	v := a.tcView(cfg)
	tc := a.TC
	switch {
	case tc.LeaderEnabled(v, p):
		return k.aTCLE
	case tc.NormEnabled(v, p):
		return k.aTCNorm
	case tc.ChainFixEnabled(v, p):
		return k.aTCChainFix
	case tc.JoinEnabled(v, p):
		return k.aTCJoin
	case tc.ResumeEnabled(v, p):
		return k.aTCResume
	}
	s, ptr := k.colS[p], k.colP[p]
	// Step4 — LeaveMeeting(p) ∧ RequestOut(p).
	if s == Done && k.inEp(p, ptr) && k.exitE[ptr] && a.Env.RequestOut(p) {
		return k.aStep4
	}
	if k.meeting[p] && s == Waiting {
		return k.aStep3
	}
	if k.ready[p] && s == Looking {
		return k.aStep2
	}
	if k.tok[p] != k.colT[p] {
		return k.aToken
	}
	// Step14/Step13 share ¬Token ∧ ¬Locked ∧ FreeEdges≠∅ ∧ ¬Ready and
	// split on LocalMax (mutually exclusive, so evaluating the matching
	// one first is priority-faithful).
	if !k.tok[p] && !k.lockedP[p] && k.hasFree[p] && !k.ready[p] {
		mx := k.maxFreeNode2(p)
		if mx == p {
			// Step13 — MaxToFreeEdge: P_p ∉ FreeEdges_p.
			if !(k.inEp(p, ptr) && k.freeE[ptr]) {
				return k.aStep13
			}
		} else {
			// Step14 — JoinLocalMax: the local max's pointer is one of
			// p's free edges and differs from P_p.
			if t := k.colP[mx]; k.inEp(p, t) && k.freeE[t] && ptr != t {
				return k.aStep14
			}
		}
	}
	// Step12 — JoinTokenHolder: ¬Token ∧ looking ∧ ¬Ready ∧ Locked ∧
	// P_p ∉ TPointingEdges_p.
	if !k.tok[p] && s == Looking && !k.ready[p] && k.lockedP[p] && !(k.inEp(p, ptr) && k.tPtE[ptr]) {
		return k.aStep12
	}
	// Step11 — TokenHolderToEdge: Token ∧ looking ∧ ¬Ready ∧ tokenWants.
	if k.tok[p] && s == Looking && !k.ready[p] && k.tokenWants(cfg, p) {
		return k.aStep11
	}
	if k.lockedP[p] != k.colL[p] {
		return k.aLock
	}
	return -1
}

// choose1 resolves CC1's highest-priority enabled action for p: Stab2 >
// Stab1 > TC-LE > TC-Norm > TC-ChainFix > TC-Join > TC-Resume > Step4 >
// Step32 > Step31 > Token2 > Token1 > Step22 > Step21 > Step1.
func (k *Kernel) choose1(cfg []State, p int) int {
	a := k.alg
	s, ptr := k.colS[p], k.colP[p]
	if !k.correct[p] {
		// Stab2 (S≠idle) and Stab1 (S=idle) partition ¬Correct.
		if s != Idle {
			return k.aStab2
		}
		return k.aStab1
	}
	v := a.tcView(cfg)
	tc := a.TC
	switch {
	case tc.LeaderEnabled(v, p):
		return k.aTCLE
	case tc.NormEnabled(v, p):
		return k.aTCNorm
	case tc.ChainFixEnabled(v, p):
		return k.aTCChainFix
	case tc.JoinEnabled(v, p):
		return k.aTCJoin
	case tc.ResumeEnabled(v, p):
		return k.aTCResume
	}
	// Step4 — LeaveMeeting(p) ∧ RequestOut(p). CC1's LeaveMeeting has no
	// status requirement on p itself.
	if k.inEp(p, ptr) && k.exitE[ptr] && a.Env.RequestOut(p) {
		return k.aStep4
	}
	if k.meeting[p] && s == Waiting {
		return k.aStep32
	}
	if k.ready[p] && s == Looking {
		return k.aStep31
	}
	// Token2 — Useless(p): Token ∧ (idle ∨ (looking ∧ FreeEdges=∅)).
	if k.tok[p] && (s == Idle || (s == Looking && !k.hasFree[p])) {
		return k.aToken2
	}
	if k.tok[p] != k.colT[p] {
		return k.aToken1
	}
	// Step22/Step21 share FreeEdges≠∅ ∧ ¬Ready and split on LocalMax
	// over Cands_p (token-marked free nodes if any, else all free nodes).
	if k.hasFree[p] && !k.ready[p] {
		mc := k.maxCand1(p)
		if mc == p {
			// Step21 — MaxToFreeEdge: P_p ∉ FreeEdges_p.
			if !(k.inEp(p, ptr) && k.freeE[ptr]) {
				return k.aStep21
			}
		} else {
			// Step22 — JoinLocalMax.
			if t := k.colP[mc]; k.inEp(p, t) && k.freeE[t] && ptr != t {
				return k.aStep22
			}
		}
	}
	if a.Env.RequestIn(p) && s == Idle {
		return k.aStep1
	}
	return -1
}

// maxFreeNode2 returns the max-identifier member over p's free edges
// (CC2/CC3's max(FreeNodes_p); caller guarantees hasFree[p]). Strict >
// with first-wins ties matches Alg.maxByID over the dedup'd first-seen
// node order.
func (k *Kernel) maxFreeNode2(p int) int {
	h := k.h
	best, bestID := -1, -1
	for _, e := range h.EdgesOf(p) {
		if !k.freeE[e] {
			continue
		}
		for _, q := range h.Edge(e) {
			if id := h.ID(q); id > bestID {
				best, bestID = q, id
			}
		}
	}
	return best
}

// maxCand1 returns max(Cands_p) for CC1: the max-identifier token-
// marked free node if any free node has T set, else the max-identifier
// free node (caller guarantees hasFree[p]).
func (k *Kernel) maxCand1(p int) int {
	h := k.h
	best, bestID := -1, -1
	bestT, bestTID := -1, -1
	for _, e := range h.EdgesOf(p) {
		if !k.freeE[e] {
			continue
		}
		for _, q := range h.Edge(e) {
			id := h.ID(q)
			if id > bestID {
				best, bestID = q, id
			}
			if k.colT[q] && id > bestTID {
				bestT, bestTID = q, id
			}
		}
	}
	if bestT >= 0 {
		return bestT
	}
	return best
}

// tokenWants mirrors Alg.tokenWants from the columns: CC3 compares the
// pointer against the round-robin cursor's committee, CC2 against
// MinEdges_p (or E_p under NoMinSize).
func (k *Kernel) tokenWants(cfg []State, p int) bool {
	ep := k.h.EdgesOf(p)
	if len(ep) == 0 {
		return false
	}
	ptr := k.colP[p]
	if k.alg.Variant == CC3 {
		return int(ptr) != ep[normCursor(cfg[p].R, len(ep))]
	}
	if k.isMin == nil { // NoMinSize: P_p ∉ E_p
		return !k.inEp(p, ptr)
	}
	return !(ptr >= 0 && int(ptr) < k.m && k.isMin[p*k.m+int(ptr)])
}

// Action returns the chosen action for p after the last Eval
// (sim.BatchKernel).
func (k *Kernel) Action(p int) int { return k.acts[p] }

// Apply runs the chosen action's scalar body and records the successor
// S/P fields in the post columns for the merged Post* reads
// (sim.BatchKernel plus the explorer's checker contract).
func (k *Kernel) Apply(cfg []State, p int, next *State) {
	k.prog.Actions[k.acts[p]].Body(cfg, p, next, k.rng)
	k.postS[p] = next.S
	k.postP[p] = int32(next.P)
}

// --- Explorer checker interface ----------------------------------------------

// EdgeMeets reports whether committee e meets in the configuration of
// the last Eval (the cached spec.Probe.Meets vector).
func (k *Kernel) EdgeMeets(e int) bool { return k.meets[e] }

// Correct reports Correct(p) in the configuration of the last Eval.
func (k *Kernel) Correct(p int) bool { return k.correct[p] }

// SetSelection installs the selection mask the merged Post* reads
// resolve against: selected processes read their recorded post state,
// the rest the parent columns.
func (k *Kernel) SetSelection(mask uint64) { k.selMask = mask }

// SpecNeutral reports that p's applied action left S_p and P_p
// unchanged. The spec predicates the explorer re-evaluates per
// transition (EdgeMeets, Correct) read only S and P, so such a process
// cannot change any of their values — the Lock/Token mirror flips and
// every TC action are neutral, which on stabilized-token workloads is
// the majority of transitions.
func (k *Kernel) SpecNeutral(p int) bool {
	return k.postS[p] == k.colS[p] && k.postP[p] == k.colP[p]
}

// mSP reads process q's S/P under the current selection mask.
func (k *Kernel) mSP(q int) (Status, int32) {
	if k.selMask>>uint(q)&1 != 0 {
		return k.postS[q], k.postP[q]
	}
	return k.colS[q], k.colP[q]
}

// PostMeets evaluates EdgeMeets(e) in the successor selected by
// SetSelection.
func (k *Kernel) PostMeets(e int) bool {
	ee := int32(e)
	for _, q := range k.h.Edge(e) {
		s, ptr := k.mSP(q)
		if ptr != ee || (s != Waiting && s != Done) {
			return false
		}
	}
	return true
}

// PostCorrect evaluates Correct(q) in the successor selected by
// SetSelection.
func (k *Kernel) PostCorrect(q int) bool {
	s, ptr := k.mSP(q)
	switch s {
	case Idle:
		if k.cc1 {
			return ptr == NoEdge
		}
		return false
	case Waiting:
		return k.readyPost(q) || k.meetingPost(q)
	case Done:
		return k.meetingPost(q) || k.leavePost(q, ptr)
	}
	return true
}

func (k *Kernel) readyPost(q int) bool {
	for _, e := range k.h.EdgesOf(q) {
		ee := int32(e)
		all := true
		for _, x := range k.h.Edge(e) {
			s, ptr := k.mSP(x)
			if ptr != ee || (s != Looking && s != Waiting) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func (k *Kernel) meetingPost(q int) bool {
	for _, e := range k.h.EdgesOf(q) {
		if k.PostMeets(e) {
			return true
		}
	}
	return false
}

func (k *Kernel) leavePost(q int, ptr int32) bool {
	if !k.inEp(q, ptr) {
		return false
	}
	for _, x := range k.h.Edge(int(ptr)) {
		s, p2 := k.mSP(x)
		if k.cc1 {
			if p2 == ptr && s != Done {
				return false
			}
		} else {
			if p2 == ptr && s == Waiting {
				return false
			}
		}
	}
	return true
}
