// Package explore is a bounded exhaustive model checker for the
// guarded-action programs of this reproduction. Where internal/sim runs
// *one* computation (a single resolution of the daemon's choices) and
// internal/spec monitors it, explore enumerates the *entire* reachable
// configuration space from a set of initial configurations — branching
// over every daemon choice a selection mode allows — and checks the
// specification on every state and every transition:
//
//   - Exclusion (spec.ExclusionViolationsMeets) on every reachable
//     configuration, including the initial ones;
//   - Synchronization and Essential Discussion
//     (spec.EventViolationsMeets) on every transition;
//   - closure of the algorithm's Correct(p) predicate (paper Lemmas 3
//     and 8: once Correct(p) holds, it holds forever, under any daemon);
//   - convergence-step bounds (paper Corollaries 3 and 5: every process
//     is Correct within one round — one step under the synchronous
//     daemon);
//   - deadlock-freedom: no reachable configuration is terminal.
//
// A property verified here is a proof-by-enumeration over the bounded
// instance: every meeting convened anywhere in the reachable space
// satisfies the committee-coordination spec — the snap-stabilization
// contract of §2.5 — not merely every meeting observed on sampled
// schedules. Counterexamples come with a full trace from an initial
// configuration, and Replay re-executes every emitted trace through
// sim.Apply as a vacuity guard.
//
// The hot core is built for scale (SPIN-style explicit-state levers):
// states live as fixed-width bit-packed encodings (Codec) in one
// append-only arena; deduplication runs through a sharded hash set
// (Visited) that workers probe while expanding a BFS layer — each worker
// owns a range of its stripes and hands foreign successors to their
// owner (emit.go), so there is no serial dedup loop and no lock on the
// single-node path — and a deterministic min-merge on discovery
// positions keeps every count, id, and counterexample byte-identical at
// any worker count. Models whose dynamics are invariant under a declared
// automorphism group (Syms) can additionally be explored modulo
// symmetry (Options.Symmetry): every state is canonicalized to the
// lexicographically least encoding in its orbit, shrinking the space by
// up to the group order with the same verdict.
// The PR 2 string-codec serial engine survives as Reference, the
// differential battery's oracle (reference_test.go).
package explore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Additional violation kinds beyond the spec package's.
const (
	// KindDeadlock: a reachable configuration enables no process.
	KindDeadlock = "deadlock"
	// KindClosure: Correct(p) held in a configuration but not in a
	// successor (contradicting Lemmas 3/8).
	KindClosure = "correct-closure"
	// KindConvergence: a synchronous step led to a configuration that is
	// not AllCorrect (contradicting Corollaries 3/5: every process is
	// Correct within one round, and under the synchronous daemon one
	// step completes one round).
	KindConvergence = "convergence"
)

// Model is an algorithm instance prepared for exhaustive exploration.
// Guards, bodies and the predicates must be pure functions of the
// configuration: environment inputs must be frozen (the CC adapter uses
// an eager static environment), and nondeterministic bodies must be
// resolved deterministically (the CC adapter forces ChooseFirst), or the
// state-graph memoization is unsound.
type Model[S sim.Cloneable[S]] struct {
	Name string
	Prog *sim.Program[S]
	// Probe supplies the abstract spec predicates (same ones the runtime
	// monitors use).
	Probe spec.Probe[S]
	// Codec is the binary state codec the engine stores and dedups
	// through. Two configurations are identified iff their encodings
	// are equal.
	Codec Codec[S]
	// Inits streams the initial configurations; stop when yield returns
	// false.
	Inits func(yield func(cfg []S) bool)
	// InitDomains, if non-nil, says Inits streams the mixed-radix
	// product of these per-process domains in index order, process 0
	// fastest (productInits). It describes Inits and changes nothing
	// about the family; it lets the local backend write the seed layer
	// straight into the visited set (seedProduct).
	InitDomains [][]S
	// Correct, if non-nil, is the algorithm's Correct(p) predicate,
	// enabling the closure and convergence checks.
	Correct func(cfg []S, p int) bool
	// Render pretty-prints a configuration for counterexample traces
	// (optional; a generic rendering is used when nil).
	Render func(cfg []S) string
	// Syms is the model's verified automorphism group, identity
	// excluded: each element writes the image of src under one
	// automorphism into dst (len NumProcs). Declared only when the
	// permutation provably commutes with the transition relation — see
	// symmetry.go for what qualifies and why the CC ∘ TC rings do not.
	Syms []func(dst, src []S)
	// Deps lists, for process p, the processes whose Correct value may
	// depend on p's state (the closed dependency neighborhood, p
	// included). With it, the engine recomputes Correct on a transition
	// only for processes a selected process can influence and reuses
	// the parent's values elsewhere — the same locality contract the
	// incremental step engine uses. nil falls back to recomputing all.
	Deps func(p int) []int
	// Kernel, if non-nil, returns a fresh sim.BatchKernel for the
	// model's program, and the model is expanded by the batch/SoA
	// pipeline (see batch.go) unless Options.DisableBatch is set.
	// Called once per worker — a kernel is single-goroutine scratch. The
	// kernel must reproduce the scalar guard semantics of Prog exactly
	// (the differential battery checks this), and the model must fit the
	// explorer's word (checkWord) with Codec.EncodeProc set. CC and
	// Baseline always declare one and refuse wider topologies, so every
	// production model is batch-expanded; only test models without a
	// kernel take the scalar path.
	Kernel func() sim.BatchKernel[S]
}

// Options bound and parameterize an exploration.
type Options struct {
	// Mode selects the daemon-choice branching (sim.SelectCentral,
	// sim.SelectSynchronous, sim.SelectAllSubsets).
	Mode sim.SelectionMode
	// MaxStates caps the number of distinct configurations explored
	// (0 = unlimited). Hitting the cap sets Result.Truncated.
	MaxStates int
	// MaxDepth caps the BFS depth (0 = unlimited).
	MaxDepth int
	// MaxBranch caps the successors enumerated per configuration
	// (default 65536); relevant only for SelectAllSubsets.
	MaxBranch int
	// MaxViolations stops the exploration once this many violations are
	// collected (default 5).
	MaxViolations int
	// CheckDeadlock reports terminal configurations as violations.
	CheckDeadlock bool
	// CheckClosure verifies that Correct(p) is closed under every
	// transition (requires Model.Correct).
	CheckClosure bool
	// CheckConvergence verifies the one-round convergence bound
	// (Corollaries 3/5): every transition must lead to an AllCorrect
	// configuration (requires Model.Correct). This is checked per
	// transition — not per BFS depth, which would be unsound under
	// memoization when incorrect states are also seeded initial
	// configurations. Only meaningful with sim.SelectSynchronous, where
	// one step completes one round; unfair modes may defer corrections
	// arbitrarily long.
	CheckConvergence bool
	// Symmetry explores modulo the model's declared automorphism group:
	// states are canonicalized to the least encoding in their orbit.
	// Exact (same verdict) precisely because Syms holds only verified
	// automorphisms; no effect on models that declare none.
	Symmetry bool
	// Workers overrides the worker-pool width (0 = par.Workers).
	Workers int
	// DisableBatch forces the scalar expansion path even when the model
	// declares a batch kernel. Result-irrelevant — the batch pipeline is
	// byte-identical by contract — so, like MemBudget, it is not part of
	// a job's content key or checkpoint identity. It is the reference
	// leg only: the differential battery pits the two paths against each
	// other with it, and the benchmark's batch_vs_scalar ratio reads it;
	// no production path sets it.
	DisableBatch bool

	// MemBudget bounds the in-memory footprint of the visited set
	// (bytes; 0 = fully in-memory). Past the budget the visited set
	// spills its cold arena tail — the ids of layers already expanded —
	// to a temp file: same verdict, same bytes, flat memory. The open
	// queue is the arena's newest id range, so nothing else spills.
	// Result-irrelevant: not part of a job's content key or checkpoint
	// identity.
	MemBudget int64
	// SpillDir hosts the arena spill file ("" = os.TempDir()).
	SpillDir string
	// FS routes the arena spill-file I/O through a chaos.FS (nil = the
	// host filesystem). The chaos battery injects faults here; a
	// checksum on every spilled record turns silent corruption into a
	// classified error.
	FS chaos.FS
	// Checkpoint, if non-nil, persists a resumable snapshot every
	// CheckpointEvery expanded states and on context cancellation, and
	// is consulted at startup: a matching snapshot resumes the run
	// instead of restarting it.
	Checkpoint Checkpointer
	// CheckpointEvery is the expanded-state cadence between periodic
	// snapshots (0 = snapshot only on cancellation).
	CheckpointEvery int
	// Stats, if non-nil, receives resume/spill bookkeeping that is
	// deliberately excluded from Result (see RunStats).
	Stats *RunStats
	// Progress, if non-nil, receives a counter snapshot at every
	// expansion-chunk boundary (exploreChunk expanded states) and is the
	// feed behind live job watching. Purely observational and
	// result-irrelevant like Stats: it runs on the driver goroutine
	// between chunks, so it must return quickly — publish into a
	// non-blocking queue, never do I/O inline.
	Progress func(Progress)
}

// Progress is the observational snapshot handed to Options.Progress:
// where the exploration is right now, not what it concluded. All
// counts are promoted-state accurate as of the last completed chunk.
type Progress struct {
	States      int   // distinct configurations promoted so far
	Expanded    int   // configurations expanded in the current layer
	Frontier    int   // states of the current layer not yet expanded
	Depth       int   // BFS layer currently expanding
	Transitions int64 // transitions enumerated so far
}

// TraceStep is one configuration on a counterexample trace.
type TraceStep struct {
	// Sel is the daemon selection that produced this configuration
	// (nil for the initial one).
	Sel []int
	// Config is the rendered configuration.
	Config string
	// Key is the configuration's binary encoding (canonical orbit
	// representative under Options.Symmetry), enabling Replay.
	Key []uint64
}

// Violation is one property violation, with a counterexample trace from
// an initial configuration.
type Violation struct {
	Kind  string
	Msg   string
	Depth int
	Trace []TraceStep
}

func (v Violation) String() string {
	return fmt.Sprintf("depth %d: %s: %s", v.Depth, v.Kind, v.Msg)
}

// Result is the outcome of one exploration.
type Result struct {
	Model string
	Mode  sim.SelectionMode

	Inits       int   // initial configurations seeded
	States      int   // distinct configurations reached (orbits under Symmetry)
	Transitions int64 // transitions enumerated
	Depth       int   // deepest completed BFS layer
	MaxEnabled  int   // largest enabled set seen
	Truncated   bool  // a bound was hit (MaxStates/MaxDepth/MaxBranch, or MaxViolations stopped the run)
	Symmetry    bool  // explored modulo the model's automorphism group

	Deadlocks int // terminal configurations (counted even when not checked)
	// MaxIncorrectDepth is the deepest configuration violating
	// AllCorrect (-1 if none, or Correct unavailable).
	MaxIncorrectDepth int

	// StateBytes is the retained footprint of the dedup structures
	// (arena + hash set), for the bytes-per-state trajectory.
	StateBytes int64

	Violations []Violation
}

// Ok reports whether the exploration found no violations.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// Verdict classifies the run: "verified" is a completed enumeration
// with no violations, "bounded" means a bound was hit — the explored
// portion is clean but nothing beyond it is claimed — and "violated"
// means counterexamples were found. A truncated run is never reported
// as verified.
func (r *Result) Verdict() string {
	switch {
	case !r.Ok():
		return "violated"
	case r.Truncated:
		return "bounded"
	default:
		return "verified"
	}
}

// Summary renders a one-line result.
func (r *Result) Summary() string {
	sym := ""
	if r.Symmetry {
		sym = " (mod symmetry)"
	}
	return fmt.Sprintf("%s/%s: %d inits, %d states%s, %d transitions, depth %d, %d deadlocks, %d violations — verdict: %s",
		r.Model, r.Mode, r.Inits, r.States, sym, r.Transitions, r.Depth, r.Deadlocks, len(r.Violations), r.Verdict())
}

// workerState is the per-worker scratch: one model instance plus every
// buffer the expansion hot path needs, so expanding a configuration
// allocates nothing. Every slice is a par.PrivateSlice: the buffers are
// tiny (a meets vector of seven bools, a three-word key), and made with
// plain make two workers' copies land in the same cache line, so each
// worker's stores evict the other's scratch (TestWorkerScratchCacheLines).
type workerState[S sim.Cloneable[S]] struct {
	model *Model[S]
	opts  *Options
	rng   *rand.Rand

	// rep is the worker's slot for the aggregate in flight (a chunk on
	// the local backend, a layer on a peer). It lives here, inside the
	// worker's own allocation, rather than in a []LayerReport whose
	// adjacent slots share lines.
	rep LayerReport

	cfg     []S      // decode buffer for the expanded configuration
	enc     []uint64 // successor-key scratch, before canon
	baseEnc []uint64 // encoding of the configuration being expanded
	succ    sim.SuccScratch[S]
	was, is []bool // meets vectors
	correct []bool

	// syms is Model.Syms under Options.Symmetry, else nil; the rest is
	// canon's own scratch (decoded key, image, image key, least key).
	syms           []func(dst, src []S)
	symCfg, symImg []S
	symEnc, symMin []uint64

	// Incremental-check scratch: per-successor epoch marks over edges
	// (meets recomputation) and processes (Correct recomputation).
	epoch    uint64
	edgeMark []uint64
	procMark []uint64

	// Per-expansion cache of applied per-process block payloads: with
	// deterministic bodies, process p's applied block is identical in
	// every selection containing p, so SelectAllSubsets encodes each
	// enabled process once instead of once per subset.
	stateEpoch uint64
	payEpoch   []uint64
	payload    []uint64

	// Batch pipeline state (nil bkern = scalar path): the worker's
	// kernel and the post-state buffer Apply fills per enabled process.
	bkern batchEval[S]
	post  []S
	// The local-transition cache (localcache.go) and bkern as the
	// kernel capability it needs; both nil when no process can look up.
	local *localCache
	lkern localKernel[S]
	// changed collects, per selection, the committees whose meets status
	// differs from the parent's — the only edges the event check must
	// judge. conflict[e] is the bitmask of committees conflicting with e:
	// a state needs the full exclusion scan only if some meeting edge's
	// conflict mask intersects the meets mask.
	changed  []int
	conflict []uint64

	// Mask-form topology for the per-branch checks: edgeMaskOf[p] is the
	// committees incident to p, memberMask[e] the members of e.
	// depMask[p] is the closed Correct dependency neighborhood of p
	// (Model.Deps) and readMask[p] its transpose, the processes whose
	// state Correct(p) may read (nil without Deps).
	edgeMaskOf []uint64
	memberMask []uint64
	depMask    []uint64
	readMask   []uint64

	// Per-expansion context for the pre-bound batchSel callback. The
	// callback is bound once at construction: a closure created inside
	// expandBatch would escape into sim.MaskSuccessors and allocate on
	// every expansion, breaking the steady-state loop's zero-allocation
	// guarantee (pinned by TestBatchSteadyStateZeroAlloc).
	//
	// curVS … curAtCap are the context of emit (see open), shared with the
	// scalar path.
	selCB          func(uint64) bool
	curVS          *Visited
	curAgg         *LayerReport
	curID          int32
	curItem        int
	curBranch      int
	curAtCap       bool
	curNeutral     uint64
	curOut         uint64 // processes whose block is in no init (expandBatch)
	curCorrectPrev []bool
	// curCanViolate and curClean are the projection pass's verdict on
	// the state in flight (see projectChecks).
	curCanViolate uint64
	curClean      bool

	// The successor hand-off (emit.go): the exact re-proposal filter, and
	// the worker's place among the owners of the visited stripes with its
	// per-owner buffers of foreign successors. The zero values — no
	// filter, sole owner — are a complete state: a worker state built on
	// its own probes every successor itself.
	filter *succFilter
	self   int
	owners int
	route  []routeBuf
	routed int // records buffered in route since the last drain

	// cl, when non-nil, makes the worker a cluster peer's: the at-cap
	// decision and the parent become layer-global values owned by the
	// coordinator, and a successor of another peer's shard goes to that
	// peer's outbox. nil on every single-node path.
	cl *peerHooks
}

// peerHooks is the cluster seam threaded through a worker's expansion:
// everything a successor probe needs to know that differs between a
// single-node run and a shard-partitioned peer.
type peerHooks struct {
	// atCap mirrors the single-node "States() >= MaxStates" layer
	// decision, computed over the *cluster-wide* promoted count by the
	// coordinator and broadcast per layer.
	atCap bool
	// parent is the global id (gid) of the item being expanded; probes
	// record it in place of the shard-local id.
	parent int32
	// shards is the cluster's shard count and self this peer's shard:
	// a successor of any other shard is shipped to the peer that hosts
	// it (frame, peerOutbox.frame); the rest go to the set being
	// expanded, the peer's one set.
	shards, self int
	frame        func(kind byte, shard int, key []uint64, pos uint64, parent int32)
}

func newWorkerState[S sim.Cloneable[S]](m *Model[S], opts *Options) *workerState[S] {
	n := m.Prog.NumProcs
	ws := &workerState[S]{
		model:    m,
		opts:     opts,
		rng:      rand.New(rand.NewSource(1)),
		cfg:      par.PrivateSlice[S](n),
		enc:      par.PrivateSlice[uint64](m.Codec.Words),
		baseEnc:  par.PrivateSlice[uint64](m.Codec.Words),
		symCfg:   par.PrivateSlice[S](n),
		symImg:   par.PrivateSlice[S](n),
		symEnc:   par.PrivateSlice[uint64](m.Codec.Words),
		symMin:   par.PrivateSlice[uint64](m.Codec.Words),
		edgeMark: par.PrivateSlice[uint64](m.Probe.H.M()),
		procMark: par.PrivateSlice[uint64](n),
		payEpoch: par.PrivateSlice[uint64](n),
		payload:  par.PrivateSlice[uint64](n),
		was:      par.PrivateSlice[bool](m.Probe.H.M()),
		is:       par.PrivateSlice[bool](m.Probe.H.M()),
		correct:  par.PrivateSlice[bool](n),
	}
	if opts.Symmetry {
		ws.syms = m.Syms
	}
	if m.Kernel != nil && !opts.DisableBatch {
		mEdges := m.Probe.H.M()
		if m.Codec.EncodeProc == nil || checkWord(n, mEdges, 0) != nil {
			panic(fmt.Sprintf("explore: %s declares a batch kernel but is too wide for it or has no EncodeProc", m.Name))
		}
		k := m.Kernel()
		if be, ok := k.(batchEval[S]); ok {
			ws.bkern = be
		} else {
			ws.bkern = newGenericChecker(k, m)
		}
		if lk, ok := ws.bkern.(localKernel[S]); ok {
			if ws.local = newLocalCache(m); ws.local != nil {
				ws.lkern = lk
			}
		}
		ws.selCB = ws.batchSel
		ws.post = par.PrivateSlice[S](n)
		ws.changed = par.PrivateSlice[int](mEdges)[:0]
		ws.conflict = par.PrivateSlice[uint64](mEdges)
		for e := 0; e < mEdges; e++ {
			for f := 0; f < mEdges; f++ {
				if f != e && m.Probe.H.Edge(e).Conflicts(m.Probe.H.Edge(f)) {
					ws.conflict[e] |= 1 << uint(f)
				}
			}
		}
		ws.memberMask = par.PrivateSlice[uint64](mEdges)
		ws.edgeMaskOf = par.PrivateSlice[uint64](n)
		for e := 0; e < mEdges; e++ {
			for _, q := range m.Probe.H.Edge(e) {
				ws.memberMask[e] |= 1 << uint(q)
			}
		}
		// Processes beyond the professor range (the baselines'
		// committee agents) keep a zero mask: Probe.Meets reads member
		// states only, so their moves touch no committee — the same skip
		// the scalar path applies.
		for p := 0; p < n && p < m.Probe.H.N(); p++ {
			for _, e := range m.Probe.H.EdgesOf(p) {
				ws.edgeMaskOf[p] |= 1 << uint(e)
			}
		}
		if m.Deps != nil {
			ws.depMask = par.PrivateSlice[uint64](n)
			ws.readMask = par.PrivateSlice[uint64](n)
			for p := 0; p < n; p++ {
				for _, q := range m.Deps(p) {
					ws.depMask[p] |= 1 << uint(q)
					ws.readMask[q] |= 1 << uint(p)
				}
			}
		}
	}
	return ws
}

// canon returns the least encoding in key's automorphism orbit, the
// key every path stores, probes and compares under symmetry reduction.
// Without automorphisms it is key itself, for one inlined branch;
// otherwise orbitMin's result is its own scratch (key is only read),
// valid until the next call.
func (ws *workerState[S]) canon(key []uint64) []uint64 {
	if ws.syms == nil {
		return key
	}
	return ws.orbitMin(key)
}

func (ws *workerState[S]) orbitMin(key []uint64) []uint64 {
	m := ws.model
	m.Codec.Decode(ws.symCfg, key)
	least := key
	for _, sym := range ws.syms {
		sym(ws.symImg, ws.symCfg)
		m.Codec.Encode(ws.symEnc, ws.symImg)
		if wordsLess(ws.symEnc, least) {
			least = append(ws.symMin[:0], ws.symEnc...)
		}
	}
	return least
}

// selectionTo re-derives a trace step: the first selection, in
// expansion order, that takes the configuration encoded by from to the
// one encoded by to (nil if none does). That is the selection the
// pending min-merge kept, whose least (item, branch) position names the
// parent first and that parent's least branch to the key second.
func (ws *workerState[S]) selectionTo(from, to []uint64) (found []int) {
	m := ws.model
	m.Codec.Decode(ws.cfg, from)
	sim.SuccessorsBuf(m.Prog, ws.cfg, ws.opts.Mode, ws.rng, ws.opts.MaxBranch, &ws.succ, func(sel []int, nxt []S) bool {
		m.Codec.Encode(ws.enc, nxt)
		if wordsEqual(ws.canon(ws.enc), to) {
			found = copySel(sel)
		}
		return found == nil
	})
	return found
}

func wordsLess(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func copyWords(w []uint64) []uint64 { return append([]uint64(nil), w...) }

// expand checks the state properties of configuration id, enumerates
// its successors under opts.Mode, hands each to emit (phase-A side of
// the deterministic merge) and records the transition properties into
// agg.
func (ws *workerState[S]) expand(vs *Visited, agg *LayerReport, id int32, item, depth int) {
	if ws.bkern != nil {
		ws.expandBatch(vs, agg, id, item, depth)
		return
	}
	ws.open(vs, agg, id, item)
	m := ws.model
	opts := ws.opts
	m.Codec.Decode(ws.cfg, vs.Key(id))
	cfg := ws.cfg
	viol := func(v LayerViol) {
		v.Item = item
		agg.Viols = append(agg.Viols, v)
	}

	// State properties: exclusion, deadlock, correctness depth. The
	// configuration's meets vector is computed once and shared with every
	// successor's event check.
	ws.was = spec.MeetsVector(m.Probe, cfg, ws.was)
	for _, v := range spec.ExclusionViolationsMeets(m.Probe, ws.was, depth, nil) {
		viol(LayerViol{Kind: v.Kind, Msg: v.Msg})
	}
	var correctPrev []bool
	if m.Correct != nil {
		correctPrev = ws.correct
		allCorrect := true
		for p := range correctPrev {
			correctPrev[p] = m.Correct(cfg, p)
			allCorrect = allCorrect && correctPrev[p]
		}
		if !allCorrect {
			agg.Incorrect = true
		}
	}

	// Successor keys are built by patching only the selected processes'
	// blocks into the parent's encoding when the codec supports it.
	copy(ws.baseEnc, vs.Key(id))
	ws.stateEpoch++
	enabled, branches := sim.SuccessorsBuf(m.Prog, cfg, opts.Mode, ws.rng, opts.MaxBranch, &ws.succ, func(sel []int, nxt []S) bool {
		key := ws.enc
		if m.Codec.EncodeProc == nil {
			m.Codec.Encode(key, nxt)
		} else {
			copy(key, ws.baseEnc)
			for _, p := range sel {
				if ws.payEpoch[p] != ws.stateEpoch {
					ws.payEpoch[p] = ws.stateEpoch
					ws.payload[p] = m.Codec.EncodeProc(nxt, p)
				}
				patchWords(key, m.Codec.ProcOff[p], m.Codec.ProcBits[p], ws.payload[p])
			}
		}
		key = ws.canon(key)
		ws.emit(key, true)

		// Incremental transition checks: a successor differs from cfg
		// only at the selected processes, so only committees incident to
		// them can change their meets status (Probe.Meets reads member
		// states only, so processes beyond the professor range — the
		// baselines' committee agents — touch no committee), and only
		// processes in the closed dependency neighborhood can change
		// Correct.
		ws.epoch++
		h := m.Probe.H
		copy(ws.is, ws.was)
		for _, p := range sel {
			if p >= h.N() {
				continue
			}
			for _, e := range h.EdgesOf(p) {
				if ws.edgeMark[e] != ws.epoch {
					ws.edgeMark[e] = ws.epoch
					ws.is[e] = m.Probe.Meets(nxt, e)
				}
			}
		}
		for _, v := range spec.EventViolationsMeets(m.Probe, cfg, ws.was, ws.is, depth+1, nil) {
			viol(LayerViol{Kind: v.Kind, Msg: v.Msg, Sel: copySel(sel), Key: copyWords(key)})
		}
		if correctPrev != nil && (opts.CheckClosure || opts.CheckConvergence) {
			if m.Deps != nil {
				for _, p := range sel {
					for _, q := range m.Deps(p) {
						ws.procMark[q] = ws.epoch
					}
				}
			}
			for p := range correctPrev {
				correctNow := correctPrev[p]
				if m.Deps == nil || ws.procMark[p] == ws.epoch {
					correctNow = m.Correct(nxt, p)
				}
				if opts.CheckClosure && correctPrev[p] && !correctNow {
					viol(LayerViol{
						Kind: KindClosure,
						Msg:  fmt.Sprintf("process %d was Correct but is not after selection %v", p, sel),
						Sel:  copySel(sel), Key: copyWords(key),
					})
				}
				if opts.CheckConvergence && !correctNow {
					// One synchronous step = one completed round: the
					// stabilization actions have the highest priority, so
					// every process must be Correct in the successor.
					viol(LayerViol{
						Kind: KindConvergence,
						Msg:  fmt.Sprintf("process %d is still incorrect after a full round (selection %v)", p, sel),
						Sel:  copySel(sel), Key: copyWords(key),
					})
				}
			}
		}
		return true
	})
	agg.Transitions += int64(branches)
	if enabled > agg.MaxEnabled {
		agg.MaxEnabled = enabled
	}
	if enabled == 0 {
		agg.Deadlocks++
		if opts.CheckDeadlock {
			viol(LayerViol{Kind: KindDeadlock, Msg: "no process is enabled"})
		}
	}
	if opts.Mode == sim.SelectAllSubsets && enabled > 0 {
		// 2^enabled−1 overflows past 62 enabled processes; any such state
		// is necessarily truncated under a finite branch cap.
		if enabled > 62 {
			agg.Truncated = true
		} else if want := (int64(1) << enabled) - 1; int64(branches) < want {
			agg.Truncated = true
		}
	}
}

// Explore runs the bounded exhaustive exploration. newModel must return
// a fresh Model per call: model instances hold algorithm scratch state
// and are confined to one worker each. It is ExploreCtx without
// cancellation; an I/O failure in the optional out-of-core machinery
// (spill or checkpoint) panics here — use ExploreCtx to handle it.
func Explore[S sim.Cloneable[S]](newModel func() *Model[S], opts Options) *Result {
	res, err := ExploreCtx(context.Background(), newModel, opts)
	if err != nil {
		panic(fmt.Sprintf("explore: %v", err))
	}
	return res
}

// exploreChunk is the expansion batch size: a layer's id range is
// walked and fanned across the workers this many states at a time. Chunk
// boundaries — workers parked, set quiescent — are where cancellation
// is honored and checkpoints are taken. The chunking itself is
// invisible in the result: successor discovery positions are layer
// positions, not chunk positions.
const exploreChunk = 4096

// ioPanic carries a classified I/O failure out of code that has no
// error return (hot-path arena reads) to ExploreCtx's recover sites;
// any other panic value passes through untouched.
type ioPanic struct{ err error }

// forEachWorkerIO is par.ForEachWorker for expansion bodies that may
// raise an ioPanic (a cold arena read). The workers run in their own
// goroutines, where an uncaught panic would crash the process instead
// of unwinding to the caller's recover, so each is guarded here and the
// first classified failure comes back as an error.
func forEachWorkerIO(n, workers int, fn func(w, i int)) error {
	var mu sync.Mutex
	var first error
	par.ForEachWorker(n, workers, func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				ip, ok := r.(ioPanic)
				if !ok {
					panic(r)
				}
				mu.Lock()
				if first == nil {
					first = ip.err
				}
				mu.Unlock()
			}
		}()
		fn(w, i)
	})
	if first != nil {
		return fmt.Errorf("explore: %w", first)
	}
	return nil
}

// ExploreCtx is Explore with cancellation, an out-of-core memory
// budget and checkpoint/restore (Options.MemBudget, Options.Checkpoint).
// On cancellation it returns the partial result and an error wrapping
// ErrInterrupted — after saving a snapshot when a Checkpointer is
// configured, so an identical later call resumes the run and finishes
// with the exact bytes an uninterrupted run would have produced
// (StateBytes excepted: it measures this process's footprint).
//
// I/O failures in the out-of-core machinery surface as errors
// classifiable with chaos.Classify — never a panic, never a silently
// wrong result: transient errors were already retried at the file
// layer, corrupt spill data was detected by checksum, and the caller
// (campaign cell retry) decides whether a fresh attempt is worth it.
// Periodic checkpoint-save failures degrade gracefully: the run
// continues uncheckpointed and the failure is counted in
// RunStats.CheckpointErrors.
func ExploreCtx[S sim.Cloneable[S]](ctx context.Context, newModel func() *Model[S], opts Options) (res *Result, err error) {
	defer catchIO(&err)
	b := newLocalBackend(newModel, opts)
	res = b.run.res
	defer func() { b.vs.Close() }()

	resumed, err := b.restore()
	res = b.run.res // a restore replaces the driver's state, result included
	if err != nil {
		return res, err
	}
	if err := b.run.run(ctx, b, resumed); err != nil {
		return res, err
	}
	res.StateBytes = b.vs.Bytes()
	b.fillStats()
	return res, nil
}

// localBackend is the single-process LayerBackend: every state lives in
// one visited set, and a layer is expanded a chunk at a time so
// cancellation and checkpoints land mid-layer. Promotion hands out
// dense ids in order, so the layer in flight is the arena's newest id
// range [States−width, States) and its open remainder starts at
// States−width+done: the arena is the open queue.
type localBackend[S sim.Cloneable[S]] struct {
	opts *Options
	wss  []*workerState[S] // co-owners of vs's stripes (emit.go)
	vs   *Visited
	// run is the driver this backend serves: a checkpoint is the
	// driver's state plus this backend's, and the position in the layer
	// (run.done) advances here, chunk by chunk.
	run   *layerDriver
	ohash [32]byte

	expandedSince int // states expanded since the last periodic snapshot
}

// newLocalBackend builds the backend and its layer driver: one worker
// state per worker, co-owning the stripes of a fresh visited set.
func newLocalBackend[S sim.Cloneable[S]](newModel func() *Model[S], opts Options) *localBackend[S] {
	opts = opts.Defaulted()
	b := &localBackend[S]{opts: &opts, wss: make([]*workerState[S], opts.Workers)}
	for i := range b.wss {
		b.wss[i] = newWorkerState(newModel(), &opts)
	}
	shareStripes(b.wss)
	m0 := b.wss[0].model
	b.run = newLayerDriver(m0, &opts)
	b.ohash = optionsHash(m0.Name, m0.Codec.Words, m0.Prog.NumProcs, &opts)
	b.vs = b.newVisited()
	return b
}

// newVisited is the one visited-set constructor: the local backend's
// set and a cluster peer's shard are built here, so the memory budget
// and the I/O routing reach both. The arena gets half of MemBudget (0 =
// never spill); the slot tables and the pending set live in the rest.
func newVisited(words int, opts *Options) *Visited {
	vs := NewVisited(words)
	vs.SetFS(opts.FS)
	budget := int64(0)
	if opts.MemBudget > 0 {
		budget = max(opts.MemBudget/2, 1)
	}
	vs.EnableArenaSpill(opts.SpillDir, budget)
	return vs
}

func (b *localBackend[S]) newVisited() *Visited {
	return newVisited(b.wss[0].model.Codec.Words, b.opts)
}

// restore resumes from the configured checkpoint, if a usable one
// exists: the driver state, the arena and the pending set come back
// exactly as save left them.
func (b *localBackend[S]) restore() (bool, error) {
	ck := b.opts.Checkpoint
	if ck == nil {
		return false, nil
	}
	r, err := ck.Load()
	if err != nil || r == nil {
		if r != nil {
			r.Close()
		}
		return false, nil
	}
	// The seed's family holds no slot in a restored set either: register
	// it first, as Seed would have (the seed's room is the state bound).
	room := -1
	if b.opts.MaxStates > 0 {
		room = b.opts.MaxStates
	}
	if kept, _, ok := b.productSeed(room); ok && kept > 0 {
		m := b.wss[0].model
		productFamily(b.vs, &m.Codec, m.InitDomains, kept)
	}
	snap, err := readSnapshot(r, b.ohash, b.wss[0].model.Codec.Words, b.vs)
	r.Close()
	if err != nil {
		// Unusable checkpoint (format drift, corruption, a
		// different options tuple): quarantine it if the source
		// supports that, then start fresh on a clean set — the
		// rerun converges to the same verdict from scratch.
		if q, ok := ck.(interface{ Quarantine() error }); ok {
			q.Quarantine()
		}
		b.vs.Close()
		b.vs = b.newVisited()
		return false, nil
	}
	b.run.layerState = snap.layerState
	for _, p := range snap.pending {
		b.vs.propose(p.Key, hashWords(p.Key), p.Pos, p.Parent)
	}
	if b.opts.Stats != nil {
		b.opts.Stats.ResumedStates = b.vs.States()
	}
	return true, nil
}

func (b *localBackend[S]) fillStats() {
	if st := b.opts.Stats; st != nil {
		st.ArenaSpilledBytes = b.vs.SpilledBytes()
		st.ColdReads = b.vs.ColdReads()
		st.LocalLookups, st.LocalHits = localCounts(b.wss)
	}
}

func (b *localBackend[S]) save() error {
	if b.opts.Checkpoint == nil {
		return nil
	}
	for _, ws := range b.wss {
		if ws.routed != 0 {
			panic("explore: checkpoint with routed successors not yet probed")
		}
	}
	// A proposal still deferred on a cold tag match is in no pending
	// entry yet: settle it, or the snapshot would lose a collision.
	if err := b.vs.settle(); err != nil {
		return err
	}
	snap := &snapshot{
		hash: b.ohash, words: b.wss[0].model.Codec.Words, layerState: b.run.layerState,
		pending: b.vs.SnapshotPending(),
	}
	if err := b.opts.Checkpoint.Save(func(w io.Writer) error { return writeSnapshot(w, snap, b.vs) }); err != nil {
		return err
	}
	if b.opts.Stats != nil {
		b.opts.Stats.CheckpointsWritten++
	}
	return nil
}

// Seed implements LayerBackend. A product family (Model.InitDomains)
// explored without symmetry reduction is written straight into the
// visited set and registered there as a family (seedProduct). Anything
// else — a symmetry quotient, whose orbits collide, or a streamed
// family — is probed into the pending set and promoted by the owner
// commit; the stream stops once more distinct inits than room have been
// seen, since everything past that would be dropped anyway.
func (b *localBackend[S]) Seed(room int, links *TraceLinks) (int, bool, error) {
	ws0 := b.wss[0]
	m := ws0.model
	if kept, dropped, ok := b.productSeed(room); ok {
		return kept, dropped, seedProduct(b.vs, &m.Codec, m.InitDomains, kept, links)
	}
	ws0.streamInits(room, func(uint64) *Visited { return b.vs }, b.vs.Pending)
	kept, pending, err := b.vs.commit(len(b.wss), room, links)
	return kept, kept < pending, err
}

// streamInits probes the model's deterministic init stream into the
// pending sets (pos = stream position, parent −1): each configuration
// goes to owner's set for its hash, or nowhere when owner returns nil.
// The stream stops once pending() exceeds room (room < 0: never). The
// local seed and a cluster peer's seed share it.
func (ws *workerState[S]) streamInits(room int, owner func(hash uint64) *Visited, pending func() int) {
	seq := uint64(0)
	ws.model.Inits(func(cfg []S) bool {
		ws.model.Codec.Encode(ws.enc, cfg)
		key := ws.canon(ws.enc)
		h := hashWords(key)
		if vs := owner(h); vs != nil {
			vs.propose(key, h, seq, -1)
		}
		seq++
		return room < 0 || pending() <= room
	})
}

// productSeed is productCut of the model's init domains under room when
// the seed writes them straight into the visited set: a product family
// explored without symmetry reduction through a codec with EncodeProc.
// ok is false when the seed streams instead.
func (b *localBackend[S]) productSeed(room int) (kept int, dropped, ok bool) {
	m := b.wss[0].model
	if m.Codec.EncodeProc == nil || b.opts.Symmetry && len(m.Syms) > 0 {
		return 0, false, false
	}
	return productCut(m.InitDomains, room)
}

// productCut returns how many configurations of the product of doms
// the seed layer keeps under room (room < 0: all), and whether it drops
// any. ok is false for nil doms (no product family) and for a product
// that room does not cut below the int32 id space: such a family is
// streamed, not written.
func productCut[S any](doms [][]S, room int) (kept int, dropped, ok bool) {
	if doms == nil {
		return 0, false, false
	}
	limit := math.MaxInt32
	if room >= 0 {
		limit = min(room, limit)
	}
	size := 1
	for _, d := range doms {
		size = min(size*len(d), limit+1)
	}
	if size > limit && limit != room {
		return 0, false, false
	}
	return min(size, limit), size > limit, true
}

// seedProduct promotes the first kept configurations of the product of
// doms into the fresh set vs: init i under id i with parent −1, which
// is what probing the stream and committing it would give. The keys
// are registered as vs's family, so they take arena rows but no slot,
// and their links take no storage (TraceLinks.Implicit). Process p's
// block of a key depends only on p's digit, so the keys are walked off
// procTables, patching only the digits the odometer changed; the
// tables are injective and the blocks disjoint bit fields, so distinct
// indices give distinct keys and nothing needs deduplicating.
func seedProduct[S any](vs *Visited, c *Codec[S], doms [][]S, kept int, links *TraceLinks) error {
	if kept == 0 {
		return nil
	}
	tabs, cur := productFamily(vs, c, doms, kept)
	idx := make([]int, len(doms))
	err := vs.load(kept, 0, func(key []uint64) error {
		copy(key, cur)
		for p := range idx {
			if idx[p]++; idx[p] == len(doms[p]) {
				idx[p] = 0
			}
			patchWords(cur, c.ProcOff[p], c.ProcBits[p], tabs[p][idx[p]])
			if idx[p] != 0 {
				break
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	links.Implicit(kept)
	return nil
}

// productFamily registers on the fresh set vs the family of the first
// kept configurations of the product of doms, and returns its payload
// tables and the key of configuration 0 (the family keeps neither).
func productFamily[S any](vs *Visited, c *Codec[S], doms [][]S, kept int) (tabs [][]uint64, first []uint64) {
	tabs = procTables(c, doms)
	cfg := make([]S, len(doms))
	for p, d := range doms {
		cfg[p] = d[0]
	}
	first = make([]uint64, c.Words)
	c.Encode(first, cfg)
	vs.setFamily(c.ProcOff, c.ProcBits, tabs, first, kept)
	return tabs, first
}

// procTables returns, per process p, the block payload of every state
// in doms[p] (Codec.EncodeProc, which reads only cfg[p]). A table with
// a repeated payload means two initial configurations would share a
// key — a codec bug or a duplicate domain entry — and panics, like an
// out-of-domain field.
func procTables[S any](c *Codec[S], doms [][]S) [][]uint64 {
	cfg := make([]S, len(doms))
	tabs := make([][]uint64, len(doms))
	for p, d := range doms {
		tabs[p] = make([]uint64, len(d))
		for i := range d {
			cfg[p] = d[i]
			tabs[p][i] = c.EncodeProc(cfg, p)
		}
		sorted := slices.Clone(tabs[p])
		slices.Sort(sorted)
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				panic(fmt.Sprintf("explore: two initial states of process %d encode to the same block %#x", p, sorted[i]))
			}
		}
	}
	return tabs
}

// Expand implements LayerBackend (phase A: concurrent, chunked): walk
// the layer's unexpanded ids a chunk at a time and fan each chunk
// across the workers (fanOut); workers hash successors and probe or
// route them into the sharded set as they go, accumulating
// order-insensitive statistics per worker.
func (b *localBackend[S]) Expand(ctx context.Context, depth int, first int32, rep *LayerReport) error {
	opts, vs, run := b.opts, b.vs, b.run
	for _, ws := range b.wss {
		ws.beginLayer(run.width - run.done)
	}
	for run.done < run.width {
		// Both snapshot triggers live here, BEFORE the chunk is
		// expanded: with part of the layer still open the snapshot is
		// self-contained (a snapshot taken after a layer's last
		// chunk would have nothing left to expand with the next layer
		// still un-promoted in the pending set, and a kill right
		// after persisting it would resume to a prematurely
		// terminated exploration).
		if cerr := ctx.Err(); cerr != nil {
			b.fillStats()
			if serr := b.save(); serr != nil {
				// Still interrupted, but the snapshot did not land: the
				// rerun restarts from the previous checkpoint (or from
				// scratch) instead of resuming here.
				return fmt.Errorf("explore: %w at %d states (%v; checkpoint save failed: %v)", ErrInterrupted, vs.States(), cerr, serr)
			}
			return fmt.Errorf("explore: %w at %d states (%v)", ErrInterrupted, vs.States(), cerr)
		}
		if opts.CheckpointEvery > 0 && b.expandedSince >= opts.CheckpointEvery {
			if err := b.save(); err != nil {
				// A failed periodic snapshot costs resumability, not
				// correctness: degrade to an uncheckpointed run and
				// count the failure instead of aborting the job.
				if opts.Stats != nil {
					opts.Stats.CheckpointErrors++
				}
			}
			b.expandedSince = 0
		}
		n, base, from := min(run.width-run.done, exploreChunk), run.done, first+int32(run.done)
		if err := fanOut(b.wss, n, vs, func(ws *workerState[S], i int) {
			ws.expand(vs, &ws.rep, from+int32(i), base+i, depth)
		}, nil); err != nil {
			return err
		}
		run.done += n
		b.expandedSince += n
		for _, ws := range b.wss {
			rep.Merge(&ws.rep)
			ws.rep = LayerReport{Viols: ws.rep.Viols[:0]}
		}
		if opts.Progress != nil {
			// Between chunks the workers are quiesced (ForEachWorker is
			// a barrier), so the promoted count is stable to read here.
			opts.Progress(Progress{
				States:      vs.States(),
				Expanded:    run.done,
				Frontier:    run.width - run.done,
				Depth:       depth,
				Transitions: run.res.Transitions + rep.Transitions,
			})
		}
	}
	return nil
}

// Commit implements LayerBackend (phase B: the owner commit): every
// worker promotes the fresh states of the stripes it owns, at their
// ranks in deterministic discovery order (Visited.commit) — their dense
// ids are the next layer — then the driver goroutine runs the scaling
// housekeeping (re-shard, cold-tail spill).
func (b *localBackend[S]) Commit(room int, links *TraceLinks) (int, bool, error) {
	kept, pending, err := b.vs.commit(len(b.wss), room, links)
	if err != nil {
		return 0, false, err
	}
	// The driver has not yet counted this commit, so the hot watermark
	// is the first id of the layer just expanded.
	if err := b.vs.Housekeep(int32(b.run.res.States - b.run.width)); err != nil {
		return 0, false, err
	}
	return kept, kept < pending, nil
}

// Keys implements LayerBackend.
func (b *localBackend[S]) Keys(ids []int32) ([][]uint64, error) {
	keys := make([][]uint64, len(ids))
	for i, id := range ids {
		keys[i] = copyWords(b.vs.Key(id))
	}
	return keys, nil
}

// Replay re-executes a counterexample trace step for step through
// sim.Apply and re-detects the reported violation at the end — the
// vacuity guard behind the mutation-catch tests: a trace that does not
// replay, or replays without reproducing its violation, is a checker
// bug. symmetry must echo Result.Symmetry: under symmetry reduction the
// trace holds orbit representatives, so each applied step is compared
// modulo the automorphism group (exact for verified automorphisms).
func Replay[S sim.Cloneable[S]](m *Model[S], v Violation, symmetry bool) error {
	n := m.Prog.NumProcs
	if len(v.Trace) == 0 {
		return errors.New("explore: empty trace")
	}
	if v.Trace[0].Sel != nil {
		return errors.New("explore: trace does not start at an initial configuration")
	}
	opts := Options{Symmetry: symmetry}
	ws := newWorkerState(m, &opts)
	cur := make([]S, n)
	nxt := make([]S, n)
	m.Codec.Decode(cur, v.Trace[0].Key)
	rng := rand.New(rand.NewSource(1))
	for i := 1; i < len(v.Trace); i++ {
		step := v.Trace[i]
		sim.Apply(m.Prog, cur, nxt, step.Sel, rng)
		m.Codec.Encode(ws.enc, nxt)
		got := ws.canon(ws.enc)
		for w := range got {
			if got[w] != step.Key[w] {
				return fmt.Errorf("explore: step %d of the trace does not replay: applying %v diverges from the recorded state", i, step.Sel)
			}
		}
		// Continue from the recorded representative (identical to nxt
		// without symmetry; its canonical image with).
		m.Codec.Decode(cur, step.Key)
	}
	return replayDetect(m, ws, cur, v)
}

// replayDetect re-runs the property checks at the end of a replayed
// trace and confirms a violation of v.Kind is (re)detected there.
func replayDetect[S sim.Cloneable[S]](m *Model[S], ws *workerState[S], last []S, v Violation) error {
	n := m.Prog.NumProcs
	kinds := map[string]bool{}
	if v.Kind == KindDeadlock {
		if en := sim.EnabledOf(m.Prog, last, nil); len(en) == 0 {
			kinds[KindDeadlock] = true
		}
	}
	was := spec.MeetsVector(m.Probe, last, nil)
	for _, sv := range spec.ExclusionViolationsMeets(m.Probe, was, v.Depth, nil) {
		kinds[sv.Kind] = true
	}
	if len(v.Trace) >= 2 {
		// Transition properties: re-check the final recorded transition
		// against the *applied* successor, exactly as the expansion did.
		// Under symmetry the recorded final state is the successor's
		// canonical image — a permutation of the applied one — and
		// pairing it with the un-permuted predecessor would misalign the
		// edge-wise event comparison, so the successor is re-derived.
		fin := v.Trace[len(v.Trace)-1]
		prev := make([]S, n)
		m.Codec.Decode(prev, v.Trace[len(v.Trace)-2].Key)
		cur := make([]S, n)
		sim.Apply(m.Prog, prev, cur, fin.Sel, rand.New(rand.NewSource(1)))
		pw := spec.MeetsVector(m.Probe, prev, nil)
		cw := spec.MeetsVector(m.Probe, cur, nil)
		for _, sv := range spec.EventViolationsMeets(m.Probe, prev, pw, cw, v.Depth, nil) {
			kinds[sv.Kind] = true
		}
		if m.Correct != nil {
			for p := 0; p < n; p++ {
				correctNow := m.Correct(cur, p)
				if m.Correct(prev, p) && !correctNow {
					kinds[KindClosure] = true
				}
				if !correctNow {
					kinds[KindConvergence] = true
				}
			}
		}
	}
	if !kinds[v.Kind] {
		return fmt.Errorf("explore: replayed trace does not reproduce a %s violation", v.Kind)
	}
	return nil
}

func (m *Model[S]) render(cfg []S) string {
	if m.Render != nil {
		return m.Render(cfg)
	}
	parts := make([]string, len(cfg))
	for p := range cfg {
		parts[p] = fmt.Sprintf("%v", cfg[p])
	}
	return strings.Join(parts, " | ")
}

func copySel(sel []int) []int { return append([]int(nil), sel...) }

// RenderTrace pretty-prints a counterexample trace.
func RenderTrace(v Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", v.String())
	for i, st := range v.Trace {
		switch {
		case i == 0:
			fmt.Fprintf(&b, "  init:       %s\n", st.Config)
		default:
			fmt.Fprintf(&b, "  exec %-6v %s\n", st.Sel, st.Config)
		}
	}
	return b.String()
}
