// Package sim implements the computational model of paper §2.2: a
// distributed system of processes communicating through locally shared
// variables, executing finite ordered lists of guarded actions under a
// daemon (scheduler).
//
// The model, exactly as in the paper:
//
//   - The state of a process is the value of its variables; a
//     configuration is the vector of all process states.
//   - An action is enabled when its guard — a boolean expression over the
//     process's own and its neighbors' variables — holds.
//   - Priorities: "action A has higher priority than action B iff A
//     appears after B in the code" (§2.2); when several actions of a
//     process are enabled, the process executes the highest-priority
//     (i.e., last-listed) one. The paper's proofs depend on this: the
//     stabilization actions Stab1/Stab2 listed last are "the priority
//     actions".
//   - A step: the daemon selects a non-empty subset of the enabled
//     processes; every selected process atomically executes its priority
//     enabled action. All guards and statements of a step are evaluated
//     against the pre-step configuration (the engine double-buffers).
//   - Rounds (§2.2, after Dolev–Israeli–Moran): the first round of a
//     computation is the minimal prefix containing the activation or the
//     neutralization of every process enabled in the initial
//     configuration; later rounds recurse on the suffix.
//
// Programs are expressed over a user-chosen state type S with
// value-semantics cloning, so arbitrary algorithm compositions (e.g.,
// CC1 ∘ TC) are single Programs whose state embeds both layers.
//
// # Incremental enabled-set maintenance
//
// The paper's guards are *local*: a guard of process p reads only p and
// its neighbors in the committee hypergraph. A Program may declare this
// through the optional Locality capability, and the engine then keeps a
// per-process cache of the highest-priority enabled action, re-evaluating
// after each step only the processes whose declared neighborhood
// intersects the executed set (a dirty-set), instead of rescanning every
// guard of every process. External inputs (the environment's RequestIn/
// RequestOut predicates) are folded in through MarkDirty/MarkAllDirty.
// Without Locality the engine falls back to evaluating every guard fresh
// at each use, which is always correct; the two modes are observationally
// identical whenever the Locality declaration is sound (asserted by the
// cross-check tests in this package and in internal/core). Either way
// a Program may supply a Chooser that judges a whole process list at
// once; every refresh then goes through it, and the per-action guard
// walk stays the reference it is tested against.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// Cloneable is implemented by program state types. Clone must return a
// deep copy: the engine hands each executing process a private copy of
// its own pre-step state to mutate.
type Cloneable[S any] interface {
	Clone() S
}

// Action is one guarded action of a local algorithm. Guard must be a pure
// function of the configuration (plus stable external inputs; see
// Engine.MarkDirty); Body reads the pre-step configuration cfg and
// mutates only *next (the executing process's own next state).
type Action[S Cloneable[S]] struct {
	Name  string
	Guard func(cfg []S, p int) bool
	Body  func(cfg []S, p int, next *S, rng *rand.Rand)
}

// Program is a distributed algorithm: one local algorithm replicated at n
// processes (the paper's algorithms are identical at all processes; a
// Program may still dispatch on p for e.g. identifiers or topology).
type Program[S Cloneable[S]] struct {
	// NumProcs is the number of processes.
	NumProcs int
	// Actions, in the paper's code order: index i+1 has higher priority
	// than index i (later in code = higher priority).
	Actions []Action[S]
	// Init returns an initial state for process p. For stabilization
	// experiments this is an arbitrary (random) state.
	Init func(p int, rng *rand.Rand) S

	// Locality, if non-nil, declares the guard/body read sets: every
	// guard and body of process p reads only the states of p and of the
	// processes in Locality(p). The relation must be static (the engine
	// snapshots it at construction) but need not be symmetric — the
	// engine inverts it. Declaring Locality switches Enabled() to
	// incremental dirty-set maintenance; an unsound declaration silently
	// produces wrong enabled sets, so keep the cross-check tests green.
	// The exhaustive explorer is a second user: its local-transition
	// cache keys p's chosen action and applied state on the states of p
	// and Locality(p) alone, so an unsound declaration would also make
	// it reuse a move computed for a different neighbourhood and
	// explore a wrong state space.
	Locality func(p int) []int

	// Chooser, if non-nil, judges a batch of processes at once: for
	// every p in procs it writes into act[p] the index the guard walk
	// (EnabledAction) returns for p in cfg, or -1. The engine routes
	// every enabled-set refresh through it — the dirty list, a full
	// invalidation and the rescan without Locality alike — so a Program
	// whose guards share sub-predicates across neighbours can evaluate
	// them once per refresh. Engine.EnabledAction, EnabledOf and the
	// successor enumerators keep walking the guards, which stay the
	// semantics and the reference a Chooser is tested against.
	Chooser func(cfg []S, procs []int, act []int)
}

// Exec records one action execution within a step.
type Exec struct {
	Proc   int
	Action int // index into Program.Actions
}

// Observer is called after every step with the step index (1-based), the
// new configuration, and the executions that formed the step. Observers
// must not retain cfg or execs without copying: both are engine-owned
// buffers reused by the next step.
type Observer[S Cloneable[S]] func(step int, cfg []S, execs []Exec)

// Engine runs a Program under a Daemon with deterministic, seedable
// randomness.
type Engine[S Cloneable[S]] struct {
	Prog   *Program[S]
	Daemon Daemon

	cfg  []S
	rng  *rand.Rand
	step int

	// Incremental enabled-set cache (see the package comment).
	act      []int   // act[p] = cached highest-priority enabled action of p, or -1
	all      []int   // 0..n-1, the process list of a full refresh
	affected [][]int // affected[q] = sorted processes whose guards read q; nil without Locality
	dirty    []int   // processes whose act entry is stale
	inDirty  []bool
	allDirty bool // full re-evaluation pending

	// Round accounting.
	round        int   // completed rounds
	roundStart   int   // step index at which the current round started
	roundPending []int // processes enabled at round start, not yet activated/neutralized
	roundSteps   []int // steps consumed by each completed round

	observers []Observer[S]

	// Reused scratch: steady-state Step() performs no allocation beyond
	// what Clone and the action bodies themselves do.
	enabledBuf []int
	actBuf     []int
	selBuf     []int
	selMark    []bool
	execsBuf   []Exec
	nextsBuf   []S
	pendBuf    []int
}

// NewEngine builds an engine and initializes the configuration from
// Program.Init using a rand.Rand seeded with seed.
func NewEngine[S Cloneable[S]](prog *Program[S], d Daemon, seed int64) *Engine[S] {
	n := prog.NumProcs
	e := &Engine[S]{
		Prog:       prog,
		Daemon:     d,
		rng:        rand.New(rand.NewSource(seed)),
		act:        make([]int, n),
		all:        make([]int, n),
		inDirty:    make([]bool, n),
		allDirty:   true,
		enabledBuf: make([]int, 0, n),
		actBuf:     make([]int, 0, n),
		selBuf:     make([]int, 0, n),
		selMark:    make([]bool, n),
		execsBuf:   make([]Exec, 0, n),
		nextsBuf:   make([]S, 0, n),
		pendBuf:    make([]int, 0, n),
		dirty:      make([]int, 0, n),
	}
	e.cfg = make([]S, n)
	for p := 0; p < n; p++ {
		e.all[p] = p
		e.cfg[p] = prog.Init(p, e.rng)
	}
	if prog.Locality != nil {
		e.affected = invertLocality(n, prog.Locality)
	}
	e.resetRound()
	return e
}

// invertLocality builds affected[q] = {p : q ∈ {p} ∪ Locality(p)}: the
// processes whose guards must be re-evaluated when q's state changes.
func invertLocality(n int, loc func(p int) []int) [][]int {
	aff := make([][]int, n)
	for p := 0; p < n; p++ {
		aff[p] = append(aff[p], p)
	}
	for p := 0; p < n; p++ {
		for _, q := range loc(p) {
			if q >= 0 && q < n && q != p {
				aff[q] = append(aff[q], p)
			}
		}
	}
	for q := range aff {
		sort.Ints(aff[q])
		w := 0
		for i, p := range aff[q] {
			if i == 0 || p != aff[q][w-1] {
				aff[q][w] = p
				w++
			}
		}
		aff[q] = aff[q][:w]
	}
	return aff
}

// Config returns the current configuration. Callers must not mutate it
// (use MutateProc / SetConfig, which keep the enabled-set cache honest).
func (e *Engine[S]) Config() []S { return e.cfg }

// SetConfig replaces the configuration (used by fault injectors and
// scripted replays). Round accounting restarts and the enabled-set cache
// is fully invalidated.
func (e *Engine[S]) SetConfig(cfg []S) {
	if len(cfg) != e.Prog.NumProcs {
		panic(fmt.Sprintf("sim: SetConfig with %d states for %d processes", len(cfg), e.Prog.NumProcs))
	}
	e.cfg = cfg
	e.allDirty = true
	e.resetRound()
}

// MutateProc applies fn to process p's state in place (fault injection).
func (e *Engine[S]) MutateProc(p int, fn func(s *S)) {
	fn(&e.cfg[p])
	e.allDirty = true
	e.resetRound()
}

// MarkDirty records that process p's enabledness may have changed for a
// reason invisible to the engine — typically an external input predicate
// (RequestIn/RequestOut) read by p's guards flipped between steps. The
// entry is re-evaluated before the next selection.
func (e *Engine[S]) MarkDirty(p int) {
	if p < 0 || p >= e.Prog.NumProcs {
		return
	}
	if !e.inDirty[p] {
		e.inDirty[p] = true
		e.dirty = append(e.dirty, p)
	}
}

// MarkAllDirty invalidates the whole enabled-set cache (external inputs
// changed in ways the caller cannot attribute to specific processes).
func (e *Engine[S]) MarkAllDirty() { e.allDirty = true }

// markStateChanged queues re-evaluation of every process whose declared
// read set contains p (only meaningful when Locality is declared).
func (e *Engine[S]) markStateChanged(p int) {
	for _, q := range e.affected[p] {
		if !e.inDirty[q] {
			e.inDirty[q] = true
			e.dirty = append(e.dirty, q)
		}
	}
}

// refresh brings the act cache in sync with the current configuration.
// Only meaningful when Locality is declared.
func (e *Engine[S]) refresh() {
	if e.allDirty {
		e.judge(e.all)
		e.allDirty = false
	} else {
		e.judge(e.dirty)
	}
	for _, p := range e.dirty {
		e.inDirty[p] = false
	}
	e.dirty = e.dirty[:0]
}

// judge sets act[p] to p's highest-priority enabled action for every p
// in procs: through the Program's Chooser when it has one, else by
// walking the guards.
func (e *Engine[S]) judge(procs []int) {
	if c := e.Prog.Chooser; c != nil {
		c(e.cfg, procs, e.act)
		return
	}
	for _, p := range procs {
		e.act[p] = enabledAction(e.Prog, e.cfg, p)
	}
}

// RNG exposes the engine's deterministic randomness source (shared with
// daemons and action bodies).
func (e *Engine[S]) RNG() *rand.Rand { return e.rng }

// Steps returns the number of steps executed so far.
func (e *Engine[S]) Steps() int { return e.step }

// Rounds returns the number of completed rounds (paper §2.2).
func (e *Engine[S]) Rounds() int { return e.round }

// RoundSteps returns the number of steps in each completed round.
func (e *Engine[S]) RoundSteps() []int { return e.roundSteps }

// Observe registers an observer.
func (e *Engine[S]) Observe(o Observer[S]) { e.observers = append(e.observers, o) }

// EnabledAction returns the highest-priority enabled action index for p
// in the current configuration, or -1 if p is disabled. It always
// evaluates the guards directly (bypassing the cache).
func (e *Engine[S]) EnabledAction(p int) int {
	return enabledAction(e.Prog, e.cfg, p)
}

func enabledAction[S Cloneable[S]](prog *Program[S], cfg []S, p int) int {
	for a := len(prog.Actions) - 1; a >= 0; a-- {
		if prog.Actions[a].Guard(cfg, p) {
			return a
		}
	}
	return -1
}

// Enabled returns the processes enabled in the current configuration
// (reusing an internal buffer; copy to retain). With Locality declared
// only dirty processes are re-evaluated; otherwise every guard is
// evaluated fresh.
func (e *Engine[S]) Enabled() []int {
	if e.affected != nil {
		e.refresh()
	} else {
		e.judge(e.all)
	}
	e.enabledBuf = e.enabledBuf[:0]
	e.actBuf = e.actBuf[:0]
	for p, a := range e.act {
		if a >= 0 {
			e.enabledBuf = append(e.enabledBuf, p)
			e.actBuf = append(e.actBuf, a)
		}
	}
	return e.enabledBuf
}

// Terminal reports whether no process is enabled.
func (e *Engine[S]) Terminal() bool { return len(e.Enabled()) == 0 }

// Step executes one step: daemon selection + simultaneous execution.
// It returns the executions performed, or nil if the configuration is
// terminal. The returned slice is an engine-owned buffer reused by the
// next Step call; copy to retain. Panics if the daemon returns an empty
// or invalid selection.
func (e *Engine[S]) Step() []Exec {
	enabled := e.Enabled()
	if len(enabled) == 0 {
		return nil
	}
	sel := e.Daemon.Select(e.selBuf[:0], enabled, e.step, e.rng)
	e.selBuf = sel
	if len(sel) == 0 {
		panic("sim: daemon selected no process from a non-empty enabled set")
	}
	// Compute all next-states against the pre-step configuration.
	execs := e.execsBuf[:0]
	nexts := e.nextsBuf[:0]
	for _, p := range sel {
		if p < 0 || p >= e.Prog.NumProcs || e.act[p] < 0 {
			panic(fmt.Sprintf("sim: daemon selected disabled process %d", p))
		}
		if e.selMark[p] {
			panic(fmt.Sprintf("sim: daemon selected process %d twice", p))
		}
		e.selMark[p] = true
		a := e.act[p]
		nexts = append(nexts, e.cfg[p].Clone())
		e.Prog.Actions[a].Body(e.cfg, p, &nexts[len(nexts)-1], e.rng)
		execs = append(execs, Exec{Proc: p, Action: a})
	}
	// Commit.
	for i, ex := range execs {
		e.cfg[ex.Proc] = nexts[i]
	}
	e.execsBuf = execs
	e.nextsBuf = nexts
	e.step++
	if e.affected != nil && !e.allDirty {
		for _, ex := range execs {
			e.markStateChanged(ex.Proc)
		}
	}

	// Round accounting: remove activated or neutralized processes
	// (selMark doubles as the executed set until cleared below).
	if len(e.roundPending) > 0 {
		if e.affected != nil {
			e.refresh()
		} else {
			e.judge(e.roundPending) // the next Enabled rescans every entry anyway
		}
		still := e.pendBuf[:0]
		for _, p := range e.roundPending {
			if e.selMark[p] {
				continue // activated
			}
			if e.act[p] < 0 {
				continue // neutralized
			}
			still = append(still, p)
		}
		e.pendBuf = e.roundPending[:0]
		e.roundPending = still
	}
	for _, p := range sel {
		e.selMark[p] = false
	}
	if len(e.roundPending) == 0 {
		e.round++
		e.roundSteps = append(e.roundSteps, e.step-e.roundStart)
		e.roundStart = e.step
		e.fillRoundPending()
	}

	for _, o := range e.observers {
		o(e.step, e.cfg, execs)
	}
	return execs
}

// Run executes at most maxSteps steps, stopping early at a terminal
// configuration. It returns the number of steps executed.
func (e *Engine[S]) Run(maxSteps int) int {
	start := e.step
	for e.step-start < maxSteps {
		if e.Step() == nil {
			break
		}
	}
	return e.step - start
}

// RunUntil executes steps until pred(cfg) holds (checked before each
// step), the configuration is terminal, or maxSteps steps have been
// taken. It reports whether pred held.
func (e *Engine[S]) RunUntil(maxSteps int, pred func(cfg []S) bool) bool {
	start := e.step
	for {
		if pred(e.cfg) {
			return true
		}
		if e.step-start >= maxSteps {
			return false
		}
		if e.Step() == nil {
			return pred(e.cfg)
		}
	}
}

// RunRounds executes whole rounds until the given number of additional
// rounds completed, a terminal configuration, or maxSteps steps.
// It returns the number of rounds completed within the call.
func (e *Engine[S]) RunRounds(rounds, maxSteps int) int {
	startRound, startStep := e.round, e.step
	for e.round-startRound < rounds && e.step-startStep < maxSteps {
		if e.Step() == nil {
			break
		}
	}
	return e.round - startRound
}

func (e *Engine[S]) resetRound() {
	e.roundStart = e.step
	e.fillRoundPending()
}

func (e *Engine[S]) fillRoundPending() {
	e.roundPending = e.roundPending[:0]
	if e.affected != nil {
		e.refresh()
	} else {
		e.judge(e.all)
	}
	for p, a := range e.act {
		if a >= 0 {
			e.roundPending = append(e.roundPending, p)
		}
	}
}
