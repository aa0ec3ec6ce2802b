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
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

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
	// model's program, switching expansion to the batch/SoA pipeline
	// (see batch.go). Called once per worker — a kernel is
	// single-goroutine scratch. The kernel must reproduce the scalar
	// guard semantics of Prog exactly (the differential battery checks
	// this); the pipeline additionally requires Codec.EncodeProc and at
	// most 64 processes, and is skipped under symmetry reduction, so a
	// declared Kernel is only an enablement, never an obligation.
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
	// a job's content key or checkpoint identity; the differential
	// battery uses it to pit the two paths against each other.
	DisableBatch bool

	// MemBudget bounds the in-memory footprint of the open queue and
	// the visited arena (bytes; 0 = fully in-memory). Past the budget
	// the frontier spills encoded chunks to temp segment files and the
	// visited set spills its cold arena tail — same verdict, same
	// bytes, flat memory. Result-irrelevant: not part of a job's
	// content key or checkpoint identity.
	MemBudget int64
	// SpillDir hosts the spill scratch files ("" = os.TempDir()).
	SpillDir string
	// FS routes the spill-file I/O (frontier segments, arena cold
	// tail) through a chaos.FS (nil = the host filesystem). The chaos
	// battery injects faults here; checksums on both spill formats turn
	// silent corruption into classified errors.
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
	Frontier    int   // open-queue entries remaining in the current layer
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
	enc     []uint64 // encode scratch (canonical key after canonKey)
	baseEnc []uint64 // encoding of the configuration being expanded
	symCfg  []S      // symmetry-image scratch
	symEnc  []uint64
	succ    sim.SuccScratch[S]
	was, is []bool // meets vectors
	correct []bool
	selBuf  []byte

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
	// changed collects, per selection, the committees whose meets status
	// differs from the parent's — the only edges the event check must
	// judge. conflict[e] is the bitmask of committees conflicting with e
	// (nil when the edge count exceeds a word): a state needs the full
	// exclusion scan only if some meeting edge's conflict mask intersects
	// the meets mask.
	changed  []int
	conflict []uint64

	// Mask-form topology for the per-branch fast path (nil when the edge
	// count exceeds a word): edgeMaskOf[p] is the committees incident to
	// p, memberMask[e] the members of e, depMask[p] the closed Correct
	// dependency neighborhood of p (Model.Deps).
	edgeMaskOf []uint64
	memberMask []uint64
	depMask    []uint64
	depList    [][]int

	// Per-expansion memo tables for the merged-view spec reads. Meets
	// reads only an edge's members and Correct only a process's Deps
	// neighborhood (the same locality contracts the incremental checks
	// rely on), so each result is a pure function of the selection
	// restricted to that neighborhood — a handful of bits, memoized per
	// expanded state across its (up to 2^k) selections. -1 = unknown.
	// pmLo/pcLo mark neighborhoods that are contiguous bit ranges (the
	// common case for ring and chain topologies): the memo index is then
	// a single shift-and-mask instead of a gather loop. -1 = use the
	// general list extraction (or no memo slot at all).
	pmOff   []int32
	pmCache []int8
	pmLo    []int8
	pmW     []uint64
	pcOff   []int32
	pcCache []int8
	pcLo    []int8
	pcW     []uint64

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
	curCorrectPrev []bool

	// The successor hand-off (emit.go): the exact re-proposal filter, and
	// on the local backend the worker's place among the owners of the
	// visited stripes with its per-owner buffers of foreign successors.
	// The zero values — no filter, sole owner — are a complete state: a
	// worker state built on its own probes every successor itself.
	filter *succFilter
	self   int
	owners int
	route  []routeBuf
	routed int // records buffered in route since the last drain

	// cl, when non-nil, diverts successor handling to a cluster peer:
	// the at-cap decision and the parent identity become layer-global
	// values owned by the coordinator, and the probe/membership calls
	// route by state-hash shard (possibly to a remote peer's outbox)
	// instead of into the single local visited set. nil on every
	// single-node path, so the hot loop pays one predictable branch.
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
	// sink replaces vs.Probe: route the successor to its owning shard
	// (a local probe or a remote-frontier outbox record).
	sink func(key []uint64, hash uint64, pos uint64, parent int32, sel []byte)
	// capMiss replaces the at-cap !vs.Contains check; a remote-owned
	// key is shipped as a membership query and the owner folds the
	// answer into its own layer report, so this returns false for it.
	capMiss func(key []uint64, hash uint64) bool
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
		symEnc:   par.PrivateSlice[uint64](m.Codec.Words),
		edgeMark: par.PrivateSlice[uint64](m.Probe.H.M()),
		procMark: par.PrivateSlice[uint64](n),
		payEpoch: par.PrivateSlice[uint64](n),
		payload:  par.PrivateSlice[uint64](n),
		selBuf:   par.PrivateSlice[byte](n)[:0],
		was:      par.PrivateSlice[bool](m.Probe.H.M()),
		is:       par.PrivateSlice[bool](m.Probe.H.M()),
		correct:  par.PrivateSlice[bool](n),
	}
	// Batch-pipeline eligibility: a declared kernel, incremental
	// encoding (successor keys are assembled by patching), an enabled
	// set that fits a word, and no symmetry canonicalization (which must
	// encode whole orbit images per successor).
	if m.Kernel != nil && m.Codec.EncodeProc != nil && n <= 64 &&
		!(opts.Symmetry && len(m.Syms) > 0) && !opts.DisableBatch {
		k := m.Kernel()
		if be, ok := k.(batchEval[S]); ok {
			ws.bkern = be
		} else {
			ws.bkern = newGenericChecker(k, m)
		}
		ws.selCB = ws.batchSel
		ws.post = par.PrivateSlice[S](n)
		mEdges := m.Probe.H.M()
		ws.changed = par.PrivateSlice[int](mEdges)[:0]
		if mEdges <= 64 {
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
			// committee agents) keep a zero mask: Probe.Meets reads
			// member states only, so their moves touch no committee —
			// the same skip the scalar path applies.
			for p := 0; p < n && p < m.Probe.H.N(); p++ {
				for _, e := range m.Probe.H.EdgesOf(p) {
					ws.edgeMaskOf[p] |= 1 << uint(e)
				}
			}
			ws.pmOff = par.PrivateSlice[int32](mEdges)
			ws.pmLo = par.PrivateSlice[int8](mEdges)
			ws.pmW = par.PrivateSlice[uint64](mEdges)
			pmTotal := 0
			for e := 0; e < mEdges; e++ {
				ws.pmLo[e] = -1
				if sz := len(m.Probe.H.Edge(e)); sz <= 6 {
					ws.pmOff[e] = int32(pmTotal)
					pmTotal += 1 << uint(sz)
				} else {
					ws.pmOff[e] = -1
				}
			}
			if pmTotal > 0 {
				ws.pmCache = par.PrivateSlice[int8](pmTotal)
				for e := 0; e < mEdges; e++ {
					if mask := ws.memberMask[e]; ws.pmOff[e] >= 0 && mask != 0 {
						lo := bits.TrailingZeros64(mask)
						if mask>>uint(lo) == 1<<uint(bits.OnesCount64(mask))-1 {
							ws.pmLo[e] = int8(lo)
							ws.pmW[e] = mask >> uint(lo)
						}
					}
				}
			} else {
				ws.pmOff = nil
			}
		}
		if m.Deps != nil && n == m.Probe.H.N() {
			ws.depMask = par.PrivateSlice[uint64](n)
			ws.depList = par.PrivateSlice[[]int](n)
			ws.pcOff = par.PrivateSlice[int32](n)
			ws.pcLo = par.PrivateSlice[int8](n)
			ws.pcW = par.PrivateSlice[uint64](n)
			pcTotal := 0
			for p := 0; p < n; p++ {
				ds := m.Deps(p)
				ws.depList[p] = ds
				ws.pcLo[p] = -1
				for _, q := range ds {
					ws.depMask[p] |= 1 << uint(q)
				}
				if len(ds) <= 8 && pcTotal <= 1<<13 {
					ws.pcOff[p] = int32(pcTotal)
					pcTotal += 1 << uint(len(ds))
				} else {
					ws.pcOff[p] = -1
				}
			}
			if pcTotal > 0 {
				ws.pcCache = par.PrivateSlice[int8](pcTotal)
				for p := 0; p < n; p++ {
					if mask := ws.depMask[p]; ws.pcOff[p] >= 0 && mask != 0 {
						lo := bits.TrailingZeros64(mask)
						if mask>>uint(lo) == 1<<uint(bits.OnesCount64(mask))-1 {
							ws.pcLo[p] = int8(lo)
							ws.pcW[p] = mask >> uint(lo)
						}
					}
				}
			} else {
				ws.pcOff = nil
			}
		}
	}
	return ws
}

// canonKey encodes cfg, canonicalized to the least encoding in its
// automorphism orbit when symmetry reduction is active. The returned
// slice is worker scratch, valid until the next call.
func (ws *workerState[S]) canonKey(cfg []S) []uint64 {
	m := ws.model
	m.Codec.Encode(ws.enc, cfg)
	if !ws.opts.Symmetry {
		return ws.enc
	}
	for _, sym := range m.Syms {
		sym(ws.symCfg, cfg)
		m.Codec.Encode(ws.symEnc, ws.symCfg)
		if wordsLess(ws.symEnc, ws.enc) {
			ws.enc, ws.symEnc = ws.symEnc, ws.enc
		}
	}
	return ws.enc
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
	// blocks into the parent's encoding when the codec supports it (and
	// symmetry canonicalization, which must encode whole orbit images,
	// is off).
	patch := m.Codec.EncodeProc != nil && !(opts.Symmetry && len(m.Syms) > 0)
	if patch {
		copy(ws.baseEnc, vs.Key(id))
		ws.stateEpoch++
	}
	enabled, branches := sim.SuccessorsBuf(m.Prog, cfg, opts.Mode, ws.rng, opts.MaxBranch, &ws.succ, func(sel []int, nxt []S) bool {
		var key []uint64
		if patch {
			key = ws.enc
			copy(key, ws.baseEnc)
			for _, p := range sel {
				if ws.payEpoch[p] != ws.stateEpoch {
					ws.payEpoch[p] = ws.stateEpoch
					ws.payload[p] = m.Codec.EncodeProc(nxt, p)
				}
				patchWords(key, m.Codec.ProcOff[p], m.Codec.ProcBits[p], ws.payload[p])
			}
		} else {
			key = ws.canonKey(nxt)
		}
		ws.selBuf = appendSel(ws.selBuf[:0], sel)
		ws.emit(key, ws.selBuf)

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

// exploreChunk is the expansion batch size: the open queue is drained
// and fanned across the workers this many states at a time. Chunk
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
	opts = opts.Defaulted()
	b := &localBackend[S]{opts: &opts, wss: make([]*workerState[S], opts.Workers)}
	for i := range b.wss {
		b.wss[i] = newWorkerState(newModel(), &opts)
	}
	shareStripes(b.wss)
	m0 := b.wss[0].model
	b.run = newLayerDriver(m0, &opts)
	res = b.run.res
	b.ohash = optionsHash(m0.Name, m0.Codec.Words, m0.Prog.NumProcs, &opts)
	b.chunkBuf = make([]int32, 0, exploreChunk)

	b.vs = b.newVisited()
	defer func() { b.vs.Close() }()
	// The memory budget splits between the visited arena (the bulk of
	// the footprint, Options.arenaShare) and the open queue of promoted
	// ids.
	b.front = NewFrontier(opts.MemBudget/8, opts.SpillDir, opts.FS)
	defer b.front.Close()

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
// one visited set, the layer in flight is the open queue, and a layer is
// expanded a chunk at a time so cancellation and checkpoints land
// mid-layer.
type localBackend[S sim.Cloneable[S]] struct {
	opts  *Options
	wss   []*workerState[S] // co-owners of vs's stripes (emit.go)
	vs    *Visited
	front *Frontier
	// run is the driver this backend serves: a checkpoint is the
	// driver's state plus this backend's, and the position in the layer
	// (run.done) advances here, chunk by chunk.
	run   *layerDriver
	ohash [32]byte

	chunkBuf      []int32
	expandedSince int   // states expanded since the last periodic snapshot
	hotFrom       int32 // first id of the layer last expanded: Housekeep's hot watermark

	// The cursor of the chunk fan-out in flight, and the flag a worker
	// raises to end it early when its route buffers are full.
	cursor    atomic.Int64
	routeFull atomic.Bool
}

// newVisited is the one visited-set constructor: the local backend's
// set and every shard of a cluster peer are built here, so the memory
// budget and the I/O routing reach all of them. sharers is how many
// sets split the arena budget; serial marks a set only one goroutine
// ever probes (it then logs insertion order, and Drain need not sort).
func newVisited(words int, opts *Options, serial bool, sharers int) *Visited {
	vs := NewVisited(words)
	vs.SetSerial(serial)
	vs.SetFS(opts.FS)
	vs.EnableArenaSpill(opts.SpillDir, opts.arenaShare(sharers))
	return vs
}

// arenaShare is the visited-arena budget of one of n sets sharing
// MemBudget (0 = never spill): the arena gets half — the open queue and
// the slot tables live in the rest — split evenly.
func (o *Options) arenaShare(n int) int64 {
	if o.MemBudget <= 0 {
		return 0
	}
	return max(o.MemBudget/2/int64(n), 1)
}

func (b *localBackend[S]) newVisited() *Visited {
	return newVisited(b.wss[0].model.Codec.Words, b.opts, len(b.wss) == 1, 1)
}

// restore resumes from the configured checkpoint, if a usable one
// exists: the driver state, the open queue and the pending set come
// back exactly as save left them.
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
	for _, id := range snap.frontier {
		if err := b.front.Push(id); err != nil {
			return false, err
		}
	}
	for _, p := range snap.pending {
		b.vs.Probe(p.Key, hashWords(p.Key), p.Pos, p.Parent, []byte(p.Sel))
	}
	if b.opts.Stats != nil {
		b.opts.Stats.ResumedStates = b.vs.States()
	}
	return true, nil
}

func (b *localBackend[S]) fillStats() {
	if st := b.opts.Stats; st != nil {
		st.FrontierSpillSegments = b.front.SpillSegments
		st.FrontierSpilledBytes = b.front.SpilledBytes
		st.ArenaSpilledBytes = b.vs.SpilledBytes()
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
	remaining, err := b.front.AppendRemaining(nil)
	if err != nil {
		return err
	}
	snap := &snapshot{
		hash: b.ohash, words: b.wss[0].model.Codec.Words, layerState: b.run.layerState,
		frontier: remaining, pending: b.vs.SnapshotPending(),
	}
	if err := b.opts.Checkpoint.Save(func(w io.Writer) error { return writeSnapshot(w, snap, b.vs) }); err != nil {
		return err
	}
	if b.opts.Stats != nil {
		b.opts.Stats.CheckpointsWritten++
	}
	return nil
}

// Seed implements LayerBackend. The stream stops once more distinct
// inits than the state bound have been seen — everything past the
// bound would be dropped anyway.
func (b *localBackend[S]) Seed() error {
	ws0 := b.wss[0]
	seq := uint64(0)
	ws0.model.Inits(func(cfg []S) bool {
		key := ws0.canonKey(cfg)
		b.vs.Probe(key, hashWords(key), seq, -1, nil)
		seq++
		return b.opts.MaxStates <= 0 || b.vs.Pending() <= b.opts.MaxStates
	})
	return nil
}

// Expand implements LayerBackend (phase A: concurrent, chunked): drain
// the open queue a chunk at a time and fan it across the workers;
// workers hash successors and probe or route them into the sharded set
// as they go, accumulating order-insensitive statistics per worker.
func (b *localBackend[S]) Expand(ctx context.Context, depth int, first int32, rep *LayerReport) error {
	opts, vs, run := b.opts, b.vs, b.run
	b.hotFrom = first
	for _, ws := range b.wss {
		ws.beginLayer(b.front.Len())
	}
	for b.front.Len() > 0 {
		// Both snapshot triggers live here, BEFORE the chunk is
		// popped: with the frontier non-empty the snapshot is
		// self-contained (a snapshot taken after a layer's last
		// chunk would have an empty frontier with the next layer
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
		chunk, err := b.front.PopChunk(b.chunkBuf)
		if err != nil {
			return err
		}
		if err := b.expandChunk(chunk, depth); err != nil {
			return err
		}
		run.done += len(chunk)
		b.expandedSince += len(chunk)
		for _, ws := range b.wss {
			rep.Merge(&ws.rep)
		}
		if opts.Progress != nil {
			// Between chunks the workers are quiesced (ForEachWorker is
			// a barrier), so the promoted count and frontier length are
			// stable to read here.
			opts.Progress(Progress{
				States:      vs.States(),
				Expanded:    run.done,
				Frontier:    b.front.Len(),
				Depth:       depth,
				Transitions: run.res.Transitions + rep.Transitions,
			})
		}
	}
	return nil
}

// expandChunk expands chunk (layer items run.done, run.done+1, …) into
// the workers' report slots. Workers pull items off a shared cursor; a
// worker whose route buffers reach routeFlushRecords ends the fan-out,
// every owner drains the buffers addressed to it in a second fan-out,
// and the first resumes where it stopped — so on return every successor
// of the chunk is in the visited set and every buffer is empty. Items
// are handed out in order and a worker finishes the one it holds, so a
// stopped fan-out has completed exactly the items below the cursor.
func (b *localBackend[S]) expandChunk(chunk []int32, depth int) error {
	vs, base, n := b.vs, b.run.done, len(b.wss)
	for _, ws := range b.wss {
		ws.rep = LayerReport{Viols: ws.rep.Viols[:0]}
	}
	for lo := 0; lo < len(chunk); lo = min(int(b.cursor.Load()), len(chunk)) {
		b.cursor.Store(int64(lo))
		b.routeFull.Store(false)
		// n loops over n "items": the item index, not the goroutine
		// index, names the worker state — one goroutine may run two
		// loops back to back, never two goroutines one loop.
		if err := forEachWorkerIO(n, n, func(_, w int) {
			ws := b.wss[w]
			for !b.routeFull.Load() {
				i := int(b.cursor.Add(1)) - 1
				if i >= len(chunk) {
					return
				}
				ws.expand(vs, &ws.rep, chunk[i], base+i, depth)
				if ws.routed >= routeFlushRecords {
					b.routeFull.Store(true)
				}
			}
		}); err != nil {
			return err
		}
		if err := forEachWorkerIO(n, n, func(_, owner int) {
			for _, ws := range b.wss {
				ws.route[owner].drainInto(vs)
			}
		}); err != nil {
			return err
		}
		for _, ws := range b.wss {
			ws.routed = 0
		}
	}
	return nil
}

// Commit implements LayerBackend (phase B: serial): promote the fresh
// states in deterministic discovery order — their ids queue on the
// (possibly spilling) frontier as the next layer — then run the scaling
// housekeeping (re-shard, cold-tail spill).
func (b *localBackend[S]) Commit(room int, housekeep bool, keep func(parent int32, sel string)) (int, bool, error) {
	fresh := b.vs.Drain()
	kept := len(fresh)
	if room >= 0 {
		kept = min(kept, room)
	}
	for i, f := range fresh {
		if i >= kept {
			b.vs.Drop(f)
			continue
		}
		keep(f.Parent, f.Sel)
		if err := b.front.Push(b.vs.Promote(f)); err != nil {
			return 0, false, err
		}
	}
	b.vs.Reset()
	if housekeep {
		if err := b.vs.Housekeep(b.hotFrom); err != nil {
			return 0, false, err
		}
	}
	return kept, kept < len(fresh), nil
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
		got := ws.canonKey(nxt)
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

// appendSel packs a selection as one byte per process index.
func appendSel(dst []byte, sel []int) []byte {
	for _, p := range sel {
		if p > 255 {
			panic("explore: process index out of byte range")
		}
		dst = append(dst, byte(p))
	}
	return dst
}

func copySel(sel []int) []int { return append([]int(nil), sel...) }

func decodeSel(s string) []int {
	if s == "" {
		return nil
	}
	out := make([]int, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = int(s[i])
	}
	return out
}

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
