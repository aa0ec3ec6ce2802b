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
// pre-encoded per-process payloads into the parent encoding (canon then
// reduces it under symmetry). The transition checks run against merged
// views — selected processes read their recorded post state, the rest
// the parent columns — so they never materialize a successor
// configuration. Under all-subsets they
// are first judged once per neighbourhood projection (projectChecks),
// and the per-selection loops run only where that pass found a
// possible violation.
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
	// SetSelection installs the selection the Post* reads resolve
	// against: selected processes read their post state (as recorded by
	// Apply), the rest the parent configuration. mask may be any subset
	// of the processes applied since the last Eval, not only a daemon
	// selection — the all-subsets projection pass installs a
	// neighbourhood's submasks.
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
	for sm := selMask; sm != 0; sm &= sm - 1 {
		p := bits.TrailingZeros64(sm)
		patchWords(key, m.Codec.ProcOff[p], m.Codec.ProcBits[p], ws.payload[p])
	}
	key = ws.canon(key)
	ws.emit(key)

	// Incremental transition checks against the merged view: only
	// committees incident to a selected, spec-visible, non-neutral
	// process can change their meets status, so the event check
	// judges exactly the edges whose meets value flipped, in
	// ascending committee order so the violation stream matches
	// spec.EventViolationsMeets byte for byte. With mask-form
	// topology the candidate set is a word OR over the effective
	// selection, narrowed to the committees the projection pass left
	// able to violate (every one outside all-subsets).
	bk.SetSelection(selMask)
	eff := selMask &^ neutral
	ws.changed = ws.changed[:0]
	var cand uint64
	for sm := eff; sm != 0; sm &= sm - 1 {
		cand |= ws.edgeMaskOf[bits.TrailingZeros64(sm)]
	}
	for cm := cand & ws.curCanViolate; cm != 0; cm &= cm - 1 { // ascending committee order
		e := bits.TrailingZeros64(cm)
		if bk.PostMeets(e) != ws.was[e] {
			ws.changed = append(ws.changed, e)
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
	if correctPrev != nil && (opts.CheckClosure || opts.CheckConvergence) && !ws.curClean {
		if ws.depMask != nil && !opts.CheckConvergence {
			// Closure-only fast path: a violation needs a process that
			// was Correct, depends on an effective selected process,
			// and is no longer Correct — judged over the dependency
			// mask union in ascending process order.
			var dm uint64
			for sm := eff; sm != 0; sm &= sm - 1 {
				dm |= ws.depMask[bits.TrailingZeros64(sm)]
			}
			for pmm := dm; pmm != 0; pmm &= pmm - 1 {
				p := bits.TrailingZeros64(pmm)
				if !correctPrev[p] || bk.PostCorrect(p) {
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
			// them all, recomputing only dependency-marked ones
			// (every one without Deps).
			dm := ^uint64(0)
			if ws.depMask != nil {
				dm = 0
				for sm := eff; sm != 0; sm &= sm - 1 {
					dm |= ws.depMask[bits.TrailingZeros64(sm)]
				}
			}
			for p := range correctPrev {
				correctNow := correctPrev[p]
				if dm>>uint(p)&1 != 0 {
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

// maxProjWidth caps the neighbourhoods the projection pass walks: one
// with more effective processes is not walked and counts as able to
// violate.
const maxProjWidth = 12

// projectChecks is the all-subsets projection pass, run once per
// expanded state before its selections. Every transition check reads a
// selection only through its restriction to one small neighbourhood —
// Probe.Meets of a committee its members, Correct(p) the processes whose
// Deps hold p — and neutral moves change neither, so each check is a
// function of that restriction of the effective selection. Under
// all-subsets every restriction of effAll (the enabled, non-neutral
// processes) is realized by some selection; under a branch cap, by at
// most all of them. So each neighbourhood's submasks are judged here
// once, rather than once per selection:
//
//   - canViolate has the committees that some selection can flip into a
//     violation: a flip is one only if a member fails Probe.Waiting
//     (convene) or Probe.Done (terminate) in the parent, which no
//     selection changes, so only those committees are walked;
//   - clean reports that no selection breaks a Correct process, which
//     lets batchSel skip the closure-only check outright. It is false
//     whenever that check does not apply.
//
// A state that may violate still runs batchSel's exact loops, so the
// violation stream is the per-selection one byte for byte.
func (ws *workerState[S]) projectChecks(effAll uint64, correctPrev []bool) (canViolate uint64, clean bool) {
	m := ws.model
	bk := ws.bkern
	for e, members := range ws.memberMask {
		nb := members & effAll
		if nb == 0 {
			continue
		}
		was := ws.was[e]
		parentOK := true
		for _, q := range m.Probe.H.Edge(e) {
			if was && !m.Probe.Done(ws.cfg, q) || !was && !m.Probe.Waiting(ws.cfg, q) {
				parentOK = false
				break
			}
		}
		if parentOK {
			continue
		}
		flips := bits.OnesCount64(nb) > maxProjWidth
		for sub := nb; sub != 0 && !flips; sub = (sub - 1) & nb {
			bk.SetSelection(sub)
			flips = bk.PostMeets(e) != was
		}
		if flips {
			canViolate |= 1 << uint(e)
		}
	}
	if correctPrev == nil || !ws.opts.CheckClosure || ws.opts.CheckConvergence || ws.depMask == nil {
		return canViolate, false
	}
	for p, ok := range correctPrev {
		nb := ws.readMask[p] & effAll
		if !ok || nb == 0 {
			continue
		}
		if bits.OnesCount64(nb) > maxProjWidth {
			return canViolate, false
		}
		for sub := nb; sub != 0; sub = (sub - 1) & nb {
			bk.SetSelection(sub)
			if !bk.PostCorrect(p) {
				return canViolate, false
			}
		}
	}
	return canViolate, true
}

// expandBatch is expand through the batch pipeline: one kernel Eval for
// the whole enabled set, one body application and one block encoding per
// enabled process, under all-subsets one projection pass, and
// per-selection work reduced to key patching, the visited probe, and
// incremental merged-view spec checks. Every observable — keys,
// discovery positions, truncation, violation messages — matches expand
// exactly.
func (ws *workerState[S]) expandBatch(vs *Visited, agg *LayerReport, id int32, item, depth int) {
	m := ws.model
	opts := ws.opts
	bk := ws.bkern
	ws.open(vs, agg, id, item)
	parent := vs.Key(id)
	m.Codec.Decode(ws.cfg, parent)
	cfg := ws.cfg

	// The processes whose move the local-transition cache knows take it
	// (their payload and SpecNeutral bit included) instead of choosing.
	var enabledMask, hit, neutral uint64
	if lc := ws.local; lc != nil {
		hit, neutral = lc.lookup(parent, ws.payload)
		enabledMask = ws.lkern.EvalHits(cfg, hit, lc.act)
	} else {
		enabledMask = bk.Eval(cfg)
	}

	// State properties from the kernel's cached vectors (the batch
	// counterpart of spec.MeetsVector + the Correct loop).
	h := m.Probe.H
	mEdges := h.M()
	ws.was = ws.was[:mEdges]
	var wasMask uint64
	for e := 0; e < mEdges; e++ {
		we := bk.EdgeMeets(e)
		ws.was[e] = we
		if we {
			wasMask |= 1 << uint(e)
		}
	}
	// Exclusion fast path: a violation needs two conflicting meeting
	// committees, so with the precomputed conflict masks one word-AND per
	// meeting edge decides whether the exact (allocating, message-
	// formatting) scan can find anything.
	for mm := wasMask; mm != 0; mm &= mm - 1 {
		if ws.conflict[bits.TrailingZeros64(mm)]&wasMask != 0 {
			for _, v := range spec.ExclusionViolationsMeets(m.Probe, ws.was, depth, nil) {
				ws.batchViol(LayerViol{Kind: v.Kind, Msg: v.Msg})
			}
			break
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
	// selection. A cache hit has all three already and only hands the
	// kernel its post S/P; the misses are recorded after.
	copy(ws.baseEnc, parent)
	for rest := enabledMask; rest != 0; rest &= rest - 1 {
		p := bits.TrailingZeros64(rest)
		if hit>>uint(p)&1 != 0 {
			ws.lkern.SetPost(p, ws.local.post[p])
			continue
		}
		ws.post[p] = cfg[p].Clone()
		bk.Apply(cfg, p, &ws.post[p])
		ws.payload[p] = m.Codec.EncodeProc(ws.post, p)
		if bk.SpecNeutral(p) {
			neutral |= 1 << uint(p)
		}
	}
	if ws.local != nil {
		fillLocal(ws.local, ws.lkern, hit, neutral, ws.payload)
	}
	ws.curCanViolate, ws.curClean = ^uint64(0), false
	if opts.Mode == sim.SelectAllSubsets {
		ws.curCanViolate, ws.curClean = ws.projectChecks(enabledMask&^neutral, correctPrev)
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
