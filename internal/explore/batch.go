package explore

import (
	"fmt"
	"math/bits"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/spec"
)

// This file is the batch/SoA expansion pipeline: the run-to-completion
// counterpart of workerState.expand. Where the scalar path walks every
// guard closure per process per state through sim.SuccessorsBuf, the
// batch path asks the model's sim.BatchKernel for the whole enabled set
// in one columnar Eval, applies each enabled process's body exactly once
// per expanded state, and then enumerates daemon selections as bitmasks
// (sim.MaskSuccessors), assembling each successor key by patching the
// pre-encoded per-process payloads into the parent encoding. The
// transition checks run against merged views — selected processes read
// their recorded post state, the rest the parent columns — so no
// successor configuration is ever materialized.
//
// The pipeline is behavior-preserving by construction and proven so by
// the three-way differential battery (batch vs scalar vs Reference):
// selection order, successor keys, discovery positions, truncation
// decisions and violation messages are all byte-identical to the scalar
// path at any worker count.

// batchEval is the expansion pipeline's view of a batch kernel: the
// sim.BatchKernel guard contract plus the cached spec-predicate reads
// the incremental transition checks need. core.Kernel implements it
// natively (columnar, with exact SpecNeutral skips); any other
// sim.BatchKernel is adapted by genericChecker.
type batchEval[S sim.Cloneable[S]] interface {
	sim.BatchKernel[S]
	// EdgeMeets reports spec.Probe.Meets(cfg, e) for the configuration
	// of the last Eval.
	EdgeMeets(e int) bool
	// Correct reports Model.Correct(cfg, p) for the configuration of
	// the last Eval.
	Correct(p int) bool
	// SetSelection installs the daemon selection the Post* reads
	// resolve against: selected processes read their post state (as
	// recorded by Apply), the rest the parent configuration.
	SetSelection(mask uint64)
	// SpecNeutral reports that p's applied action provably cannot
	// change any Meets or Correct value (false is always sound).
	SpecNeutral(p int) bool
	// PostMeets reports Probe.Meets of edge e in the successor selected
	// by SetSelection.
	PostMeets(e int) bool
	// PostCorrect reports Model.Correct of process q in the successor
	// selected by SetSelection.
	PostCorrect(q int) bool
}

// genericChecker adapts a plain sim.BatchKernel to batchEval by
// materializing a merged successor view and re-running the model's own
// spec predicates over it — correct for any model, with none of the
// columnar kernel's cached-predicate speedups.
type genericChecker[S sim.Cloneable[S]] struct {
	sim.BatchKernel[S]
	m        *Model[S]
	cfg      []S // parent configuration of the last Eval (caller-owned)
	view     []S // merged successor view per SetSelection
	post     []S // post state per applied process
	prevMask uint64
}

func newGenericChecker[S sim.Cloneable[S]](k sim.BatchKernel[S], m *Model[S]) *genericChecker[S] {
	n := m.Prog.NumProcs
	return &genericChecker[S]{
		BatchKernel: k,
		m:           m,
		view:        par.PrivateSlice[S](n),
		post:        par.PrivateSlice[S](n),
	}
}

func (g *genericChecker[S]) Eval(cfg []S) uint64 {
	g.cfg = cfg
	copy(g.view, cfg)
	g.prevMask = 0
	return g.BatchKernel.Eval(cfg)
}

func (g *genericChecker[S]) Apply(cfg []S, p int, next *S) {
	g.BatchKernel.Apply(cfg, p, next)
	g.post[p] = *next
}

func (g *genericChecker[S]) EdgeMeets(e int) bool { return g.m.Probe.Meets(g.cfg, e) }

func (g *genericChecker[S]) Correct(p int) bool {
	return g.m.Correct != nil && g.m.Correct(g.cfg, p)
}

func (g *genericChecker[S]) SetSelection(mask uint64) {
	for diff := mask ^ g.prevMask; diff != 0; diff &= diff - 1 {
		p := bits.TrailingZeros64(diff)
		if mask>>uint(p)&1 != 0 {
			g.view[p] = g.post[p]
		} else {
			g.view[p] = g.cfg[p]
		}
	}
	g.prevMask = mask
}

// SpecNeutral is conservatively false: a generic model's Meets/Correct
// may read any state field, so no applied action can be proven neutral.
func (g *genericChecker[S]) SpecNeutral(p int) bool { return false }

func (g *genericChecker[S]) PostMeets(e int) bool { return g.m.Probe.Meets(g.view, e) }

func (g *genericChecker[S]) PostCorrect(q int) bool { return g.m.Correct(g.view, q) }

// selFromMask expands a selection bitmask to the ascending process-index
// slice the scalar path's violation messages use.
func selFromMask(mask uint64) []int {
	sel := make([]int, 0, bits.OnesCount64(mask))
	for sm := mask; sm != 0; sm &= sm - 1 {
		sel = append(sel, bits.TrailingZeros64(sm))
	}
	return sel
}

// postMeetsMemo is bk.PostMeets(e) memoized per expanded state by the
// effective selection restricted to e's members. Probe.Meets reads
// member states only and neutral moves cannot change it, so that
// projection fully determines the result across the state's selections.
func (ws *workerState[S]) postMeetsMemo(bk batchEval[S], e int, eff uint64) bool {
	off := int32(-1)
	if ws.pmOff != nil {
		off = ws.pmOff[e]
	}
	if off < 0 {
		return bk.PostMeets(e)
	}
	idx := int(off)
	if lo := ws.pmLo[e]; lo >= 0 {
		idx += int((eff >> uint(lo)) & ws.pmW[e])
	} else {
		for i, q := range ws.model.Probe.H.Edge(e) {
			if eff>>uint(q)&1 != 0 {
				idx += 1 << uint(i)
			}
		}
	}
	if c := ws.pmCache[idx]; c != 0 {
		return c == 2
	}
	v := bk.PostMeets(e)
	if v {
		ws.pmCache[idx] = 2
	} else {
		ws.pmCache[idx] = 1
	}
	return v
}

// postCorrectMemo is bk.PostCorrect(p) memoized per expanded state by
// the effective selection restricted to p's Deps neighborhood — the
// exact locality contract the incremental closure check already relies
// on for dependency marking.
func (ws *workerState[S]) postCorrectMemo(bk batchEval[S], p int, eff uint64) bool {
	off := int32(-1)
	if ws.pcOff != nil {
		off = ws.pcOff[p]
	}
	if off < 0 {
		return bk.PostCorrect(p)
	}
	idx := int(off)
	if lo := ws.pcLo[p]; lo >= 0 {
		idx += int((eff >> uint(lo)) & ws.pcW[p])
	} else {
		for i, q := range ws.depList[p] {
			if eff>>uint(q)&1 != 0 {
				idx += 1 << uint(i)
			}
		}
	}
	if c := ws.pcCache[idx]; c != 0 {
		return c == 2
	}
	v := bk.PostCorrect(p)
	if v {
		ws.pcCache[idx] = 2
	} else {
		ws.pcCache[idx] = 1
	}
	return v
}

// batchViol records a violation against the expansion in flight.
func (ws *workerState[S]) batchViol(v LayerViol) {
	v.Item = ws.curItem
	ws.curAgg.Viols = append(ws.curAgg.Viols, v)
}

// batchSel is the per-selection body of expandBatch: key patching, the
// hand-off to the visited set (emit), and the incremental transition
// checks. It is bound once at construction as ws.selCB — a closure
// literal inside expandBatch would escape into sim.MaskSuccessors and
// allocate per expansion — with the per-expansion context passed
// through the cur* fields.
func (ws *workerState[S]) batchSel(selMask uint64) bool {
	m := ws.model
	opts := ws.opts
	bk := ws.bkern
	cfg := ws.cfg
	h := m.Probe.H
	neutral := ws.curNeutral
	correctPrev := ws.curCorrectPrev
	key := ws.enc
	if len(key) <= 4 { // avoid the memmove call on the common tiny keys
		for i := range key {
			key[i] = ws.baseEnc[i]
		}
	} else {
		copy(key, ws.baseEnc)
	}
	ws.selBuf = ws.selBuf[:0]
	for sm := selMask; sm != 0; sm &= sm - 1 {
		p := bits.TrailingZeros64(sm)
		patchWords(key, m.Codec.ProcOff[p], m.Codec.ProcBits[p], ws.payload[p])
		ws.selBuf = append(ws.selBuf, byte(p))
	}
	ws.emit(key, ws.selBuf)

	// Incremental transition checks against the merged view: only
	// committees incident to a selected, spec-visible, non-neutral
	// process can change their meets status, so the event check
	// judges exactly the edges whose meets value flipped, in
	// ascending committee order so the violation stream matches
	// spec.EventViolationsMeets byte for byte. With mask-form
	// topology the candidate set is a word OR over the effective
	// selection and each edge's post-meets value is memoized by its
	// member-restricted selection (Probe.Meets reads member states
	// only, so that projection determines the result).
	bk.SetSelection(selMask)
	eff := selMask &^ neutral
	ws.changed = ws.changed[:0]
	if ws.edgeMaskOf != nil {
		var cand uint64
		for sm := eff; sm != 0; sm &= sm - 1 {
			cand |= ws.edgeMaskOf[bits.TrailingZeros64(sm)]
		}
		for cm := cand; cm != 0; cm &= cm - 1 { // ascending committee order
			e := bits.TrailingZeros64(cm)
			var pm bool
			if lo := ws.pmLo[e]; lo >= 0 { // inlined contiguous memo probe
				idx := int(ws.pmOff[e]) + int((eff>>uint(lo))&ws.pmW[e])
				if c := ws.pmCache[idx]; c != 0 {
					pm = c == 2
				} else {
					pm = bk.PostMeets(e)
					if pm {
						ws.pmCache[idx] = 2
					} else {
						ws.pmCache[idx] = 1
					}
				}
			} else {
				pm = ws.postMeetsMemo(bk, e, eff)
			}
			if pm != ws.was[e] {
				ws.changed = append(ws.changed, e)
			}
		}
	} else {
		ws.epoch++
		for sm := eff; sm != 0; sm &= sm - 1 {
			p := bits.TrailingZeros64(sm)
			if p >= h.N() {
				continue
			}
			for _, e := range h.EdgesOf(p) {
				if ws.edgeMark[e] != ws.epoch {
					ws.edgeMark[e] = ws.epoch
					if bk.PostMeets(e) != ws.was[e] {
						ws.changed = append(ws.changed, e)
					}
				}
			}
		}
		ch := ws.changed
		for i := 1; i < len(ch); i++ { // ascending committee order
			for j := i; j > 0 && ch[j] < ch[j-1]; j-- {
				ch[j], ch[j-1] = ch[j-1], ch[j]
			}
		}
	}
	var sel []int // lazily materialized, shared by this selection's violations
	for _, e := range ws.changed {
		edge := h.Edge(e)
		if !ws.was[e] { // convened
			for _, q := range edge {
				if !m.Probe.Waiting(cfg, q) {
					if sel == nil {
						sel = selFromMask(selMask)
					}
					ws.batchViol(LayerViol{Kind: spec.KindSync,
						Msg: fmt.Sprintf("committee %s convened but professor %d was not waiting", edge, q),
						Sel: sel, Key: copyWords(key)})
				}
			}
		} else { // terminated
			for _, q := range edge {
				if !m.Probe.Done(cfg, q) {
					if sel == nil {
						sel = selFromMask(selMask)
					}
					ws.batchViol(LayerViol{Kind: spec.KindEssential,
						Msg: fmt.Sprintf("committee %s terminated but professor %d had not finished its essential discussion", edge, q),
						Sel: sel, Key: copyWords(key)})
				}
			}
		}
	}
	if correctPrev != nil && (opts.CheckClosure || opts.CheckConvergence) {
		if ws.depMask != nil && !opts.CheckConvergence {
			// Closure-only fast path: a violation needs a process that
			// was Correct, depends on an effective selected process,
			// and is no longer Correct — judged over the dependency
			// mask union in ascending process order, with PostCorrect
			// memoized by its Deps-restricted selection.
			var dm uint64
			for sm := eff; sm != 0; sm &= sm - 1 {
				dm |= ws.depMask[bits.TrailingZeros64(sm)]
			}
			for pmm := dm; pmm != 0; pmm &= pmm - 1 {
				p := bits.TrailingZeros64(pmm)
				if !correctPrev[p] {
					continue
				}
				var ok bool
				if lo := ws.pcLo[p]; lo >= 0 { // inlined contiguous memo probe
					idx := int(ws.pcOff[p]) + int((eff>>uint(lo))&ws.pcW[p])
					if c := ws.pcCache[idx]; c != 0 {
						ok = c == 2
					} else {
						ok = bk.PostCorrect(p)
						if ok {
							ws.pcCache[idx] = 2
						} else {
							ws.pcCache[idx] = 1
						}
					}
				} else {
					ok = ws.postCorrectMemo(bk, p, eff)
				}
				if ok {
					continue
				}
				if sel == nil {
					sel = selFromMask(selMask)
				}
				ws.batchViol(LayerViol{
					Kind: KindClosure,
					Msg:  fmt.Sprintf("process %d was Correct but is not after selection %v", p, sel),
					Sel:  sel, Key: copyWords(key),
				})
			}
		} else {
			// Convergence needs every process's post status (an
			// untouched incorrect process still violates), so walk
			// them all, recomputing only dependency-marked ones.
			var dm uint64
			haveDM := ws.depMask != nil
			if haveDM {
				for sm := eff; sm != 0; sm &= sm - 1 {
					dm |= ws.depMask[bits.TrailingZeros64(sm)]
				}
			} else if m.Deps != nil {
				ws.epoch++
				for sm := eff; sm != 0; sm &= sm - 1 {
					for _, q := range m.Deps(bits.TrailingZeros64(sm)) {
						ws.procMark[q] = ws.epoch
					}
				}
			}
			for p := range correctPrev {
				correctNow := correctPrev[p]
				if haveDM {
					if dm>>uint(p)&1 != 0 {
						correctNow = ws.postCorrectMemo(bk, p, eff)
					}
				} else if m.Deps == nil || ws.procMark[p] == ws.epoch {
					correctNow = bk.PostCorrect(p)
				}
				if opts.CheckClosure && correctPrev[p] && !correctNow {
					if sel == nil {
						sel = selFromMask(selMask)
					}
					ws.batchViol(LayerViol{
						Kind: KindClosure,
						Msg:  fmt.Sprintf("process %d was Correct but is not after selection %v", p, sel),
						Sel:  sel, Key: copyWords(key),
					})
				}
				if opts.CheckConvergence && !correctNow {
					if sel == nil {
						sel = selFromMask(selMask)
					}
					ws.batchViol(LayerViol{
						Kind: KindConvergence,
						Msg:  fmt.Sprintf("process %d is still incorrect after a full round (selection %v)", p, sel),
						Sel:  sel, Key: copyWords(key),
					})
				}
			}
		}
	}
	return true
}

// expandBatch is expand through the batch pipeline: one kernel Eval for
// the whole enabled set, one body application and one block encoding per
// enabled process, and per-selection work reduced to key patching, the
// visited probe, and incremental merged-view spec checks. Every
// observable — keys, discovery positions, truncation, violation
// messages — matches expand exactly.
func (ws *workerState[S]) expandBatch(vs *Visited, agg *LayerReport, id int32, item, depth int) {
	m := ws.model
	opts := ws.opts
	bk := ws.bkern
	ws.open(vs, agg, id, item)
	m.Codec.Decode(ws.cfg, vs.Key(id))
	cfg := ws.cfg

	enabledMask := bk.Eval(cfg)

	// State properties from the kernel's cached vectors (the batch
	// counterpart of spec.MeetsVector + the Correct loop).
	h := m.Probe.H
	mEdges := h.M()
	ws.was = ws.was[:mEdges]
	var wasMask uint64
	for e := 0; e < mEdges; e++ {
		we := bk.EdgeMeets(e)
		ws.was[e] = we
		if we && e < 64 {
			wasMask |= 1 << uint(e)
		}
	}
	// Exclusion fast path: a violation needs two conflicting meeting
	// committees, so with the precomputed conflict masks one word-AND per
	// meeting edge decides whether the exact (allocating, message-
	// formatting) scan can find anything.
	clash := ws.conflict == nil
	if !clash {
		for mm := wasMask; mm != 0; mm &= mm - 1 {
			if ws.conflict[bits.TrailingZeros64(mm)]&wasMask != 0 {
				clash = true
				break
			}
		}
	}
	if clash {
		for _, v := range spec.ExclusionViolationsMeets(m.Probe, ws.was, depth, nil) {
			ws.batchViol(LayerViol{Kind: v.Kind, Msg: v.Msg})
		}
	}
	var correctPrev []bool
	if m.Correct != nil {
		correctPrev = ws.correct[:m.Prog.NumProcs]
		allCorrect := true
		for p := range correctPrev {
			correctPrev[p] = bk.Correct(p)
			allCorrect = allCorrect && correctPrev[p]
		}
		if !allCorrect {
			agg.Incorrect = true
		}
	}

	// Bulk successor preparation: apply each enabled process's body once
	// and pre-encode its block payload. Deterministic bodies read only
	// the pre-step configuration, so process p's post state and payload
	// are identical in every selection containing p. Spec-neutrality is
	// likewise selection-independent (it compares p's post state against
	// the parent), so it is judged here once per state rather than per
	// selection.
	copy(ws.baseEnc, vs.Key(id))
	var neutral uint64
	for rest := enabledMask; rest != 0; rest &= rest - 1 {
		p := bits.TrailingZeros64(rest)
		ws.post[p] = cfg[p].Clone()
		bk.Apply(cfg, p, &ws.post[p])
		ws.payload[p] = m.Codec.EncodeProc(ws.post, p)
		if bk.SpecNeutral(p) {
			neutral |= 1 << uint(p)
		}
	}
	// Reset the per-expansion Post* memo tables (0 = unknown; range-clear
	// compiles to memclr).
	for i := range ws.pmCache {
		ws.pmCache[i] = 0
	}
	for i := range ws.pcCache {
		ws.pcCache[i] = 0
	}

	ws.curNeutral = neutral
	ws.curCorrectPrev = correctPrev
	branches := sim.MaskSuccessors(enabledMask, opts.Mode, opts.MaxBranch, ws.selCB)
	agg.Transitions += int64(branches)
	enabled := bits.OnesCount64(enabledMask)
	if enabled > agg.MaxEnabled {
		agg.MaxEnabled = enabled
	}
	if enabled == 0 {
		agg.Deadlocks++
		if opts.CheckDeadlock {
			ws.batchViol(LayerViol{Kind: KindDeadlock, Msg: "no process is enabled"})
		}
	}
	if opts.Mode == sim.SelectAllSubsets && enabled > 0 {
		if enabled > 62 {
			agg.Truncated = true
		} else if want := (int64(1) << enabled) - 1; int64(branches) < want {
			agg.Truncated = true
		}
	}
}
