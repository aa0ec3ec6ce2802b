package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// This file is the batch successor API: the run-to-completion pipeline
// counterpart of successors.go. A BatchKernel evaluates every guard of a
// configuration in one call (returning the enabled set as a bitmask) and
// caches the chosen action per process, so an explorer expanding states
// in bulk pays one columnar pass instead of per-process interface-call
// chains. MaskSuccessors then enumerates daemon selections as bitmasks in
// exactly the branch order of SuccessorsBuf, so a batch pipeline built on
// the two produces byte-identical reports to the scalar path.

// BatchKernel evaluates a Program's guards for whole configurations at a
// time. Implementations may precompute shared sub-predicates across all
// processes (struct-of-arrays columns, per-edge bitsets) as long as the
// observable results match the scalar semantics exactly:
//
//   - Eval(cfg) must return the bitmask {1<<p : enabledAction(prog,cfg,p) >= 0}
//     and is only defined for programs with NumProcs <= 64.
//   - After Eval, Action(p) must equal enabledAction(prog, cfg, p) for
//     every enabled p (callers must not ask about disabled processes).
//   - Apply(cfg, p, next) must behave exactly like the scalar body of the
//     chosen action: read the pre-step cfg, mutate only *next. next is
//     pre-initialized to a clone of cfg[p] by the caller.
//
// A kernel is single-goroutine scratch (like SuccScratch): each explorer
// worker owns one.
type BatchKernel[S Cloneable[S]] interface {
	// Eval evaluates all guards against cfg and returns the enabled set
	// as a bitmask (bit p = process p enabled). It caches the chosen
	// highest-priority action per enabled process for Action/Apply.
	Eval(cfg []S) uint64
	// Action returns the cached chosen action index (into
	// Program.Actions) for enabled process p after the last Eval.
	Action(p int) int
	// Apply executes the cached chosen action of p against cfg, writing
	// the successor state of p into next (pre-cloned from cfg[p]).
	Apply(cfg []S, p int, next *S)
}

// programKernel is the generic BatchKernel: scalar guard evaluation per
// process with cached action indices. It gives any Program the batch
// pipeline's structure (and its selection enumeration) without columnar
// speedups — correct by construction, and the fallback explorers use for
// programs without a hand-built kernel.
type programKernel[S Cloneable[S]] struct {
	prog *Program[S]
	acts []int
	rng  *rand.Rand
}

// NewProgramKernel builds the generic BatchKernel for prog. Panics if the
// program has more than 64 processes (the enabled set must fit a word).
func NewProgramKernel[S Cloneable[S]](prog *Program[S]) BatchKernel[S] {
	if prog.NumProcs > 64 {
		panic(fmt.Sprintf("sim: NewProgramKernel over %d processes (max 64)", prog.NumProcs))
	}
	return &programKernel[S]{
		prog: prog,
		acts: make([]int, prog.NumProcs),
		rng:  rand.New(rand.NewSource(1)),
	}
}

func (k *programKernel[S]) Eval(cfg []S) uint64 {
	var enabled uint64
	for p := 0; p < k.prog.NumProcs; p++ {
		a := enabledAction(k.prog, cfg, p)
		k.acts[p] = a
		if a >= 0 {
			enabled |= uint64(1) << p
		}
	}
	return enabled
}

func (k *programKernel[S]) Action(p int) int { return k.acts[p] }

func (k *programKernel[S]) Apply(cfg []S, p int, next *S) {
	k.prog.Actions[k.acts[p]].Body(cfg, p, next, k.rng)
}

// MaskSuccessors enumerates the daemon selections of SuccessorsBuf as
// bitmasks over the enabled set: visit is called once per branch with the
// selected-process mask, in exactly SuccessorsBuf's branch order, with
// exactly its maxBranches cap semantics (checked before each branch; 0 =
// unlimited) and its panic on unbounded all-subsets enumeration over more
// than 30 enabled processes. visit returning false stops early. Returns
// the number of branches visited.
//
//   - SelectCentral: one branch per enabled process, ascending.
//   - SelectSynchronous: the single branch selecting every enabled process.
//   - SelectAllSubsets: every non-empty subset, in binary-counter order
//     over the enabled processes' ascending index positions — the same
//     masks, same order as SuccessorsBuf's incremental enumeration.
func MaskSuccessors(enabled uint64, mode SelectionMode, maxBranches int, visit func(selMask uint64) bool) int {
	branches := 0
	if enabled == 0 {
		return 0
	}
	switch mode {
	case SelectCentral:
		for rest := enabled; rest != 0; rest &= rest - 1 {
			if maxBranches > 0 && branches >= maxBranches {
				return branches
			}
			branches++
			if !visit(rest & -rest) {
				return branches
			}
		}
	case SelectSynchronous:
		if maxBranches > 0 && branches >= maxBranches {
			return branches
		}
		branches++
		visit(enabled)
	case SelectAllSubsets:
		k := bits.OnesCount64(enabled)
		if maxBranches <= 0 && k > 30 {
			panic(fmt.Sprintf("sim: unbounded SelectAllSubsets over %d enabled processes (2^%d branches); pass maxBranches to truncate", k, k))
		}
		// idx[i] = process index of the i-th enabled bit, so counter bit
		// i stands for process idx[i], exactly like en[i] in
		// SuccessorsBuf.
		var idx [64]int
		i := 0
		for rest := enabled; rest != 0; rest &= rest - 1 {
			idx[i] = bits.TrailingZeros64(rest)
			i++
		}
		last := ^uint64(0)
		if k < 64 {
			last = uint64(1)<<k - 1
		}
		// Counter-order enumeration with the selection mask maintained
		// incrementally from the counter's flipped bits (amortized two
		// toggles per increment), mirroring successors.go.
		prev := uint64(0)
		sel := uint64(0)
		for mask := uint64(1); ; mask++ {
			if maxBranches > 0 && branches >= maxBranches {
				return branches
			}
			for diff := (mask ^ prev) & last; diff != 0; diff &= diff - 1 {
				sel ^= uint64(1) << idx[bits.TrailingZeros64(diff)]
			}
			prev = mask
			branches++
			if !visit(sel) {
				return branches
			}
			if mask == last {
				break
			}
		}
	default:
		panic(fmt.Sprintf("sim: unknown SelectionMode %d", int(mode)))
	}
	return branches
}
