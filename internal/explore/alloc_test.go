package explore

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// TestBatchSteadyStateZeroAlloc pins the batch pipeline's allocation
// contract: once every successor of a state is already in the visited
// set (the steady state of a converging BFS — by far the common case,
// since each state is discovered once but re-derived once per inbound
// transition), expanding it must allocate nothing. Eval, bulk apply,
// the all-subsets projection pass, key patching, the visited probe and
// the per-selection spec checks all run on worker-owned scratch; the
// only allocating paths are fresh states (arena append) and violations
// (rare by design).
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCCFull})
	m := factory()
	opts := &Options{Mode: sim.SelectAllSubsets, CheckDeadlock: true, CheckClosure: true}
	ws := newWorkerState(m, opts)
	if ws.bkern == nil {
		t.Fatal("batch pipeline not engaged for the CC model")
	}
	vs := NewVisited(m.Codec.Words)
	vs.SetSerial(true)

	// Drive the full BFS through expandBatch itself, replicating the
	// engine's probe → drain → promote layer discipline.
	enc := make([]uint64, m.Codec.Words)
	seq := uint64(0)
	m.Inits(func(cfg []core.State) bool {
		m.Codec.Encode(enc, cfg)
		vs.Probe(enc, hashWords(enc), seq, -1, nil)
		seq++
		return true
	})
	promote := func() []int32 {
		fresh := vs.Drain()
		ids := make([]int32, 0, len(fresh))
		for _, f := range fresh {
			ids = append(ids, vs.Promote(f))
		}
		vs.Reset()
		return ids
	}
	agg := &LayerReport{}
	depth := 0
	var mid int32
	for layer := promote(); len(layer) > 0; layer = promote() {
		mid = layer[len(layer)/2]
		for item, id := range layer {
			ws.expandBatch(vs, agg, id, item, depth)
		}
		depth++
	}
	if len(agg.Viols) != 0 {
		t.Fatalf("clean model produced %d violations", len(agg.Viols))
	}
	if vs.States() == 0 || vs.Pending() != 0 {
		t.Fatalf("BFS did not converge: %d states, %d pending", vs.States(), vs.Pending())
	}

	// Steady state: every successor of mid is known. Zero allocations.
	if allocs := testing.AllocsPerRun(50, func() {
		ws.expandBatch(vs, agg, mid, 0, depth)
	}); allocs != 0 {
		t.Fatalf("steady-state batch expansion allocates %v times per state, want 0", allocs)
	}
}

// TestSpillCountsMatchInMemory pins the out-of-core path on the batch
// pipeline (cc2/ring:4/cc/central): with the cold visited arena forced
// to disk by a 1 MiB budget, the arena must really spill, and the
// states, transitions and verdict must equal the in-memory run's. The
// rate of the spilled run is gated where pairs of runs are timed, by
// the benchmark's explore.spill_tax_ratio, not here.
func TestSpillCountsMatchInMemory(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(4), CCOptions{Init: InitCC})
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true}
	mem := Explore(factory, opts)
	var st RunStats
	opts.MemBudget, opts.SpillDir, opts.Stats = 1<<20, t.TempDir(), &st
	spill := Explore(factory, opts)
	if st.ArenaSpilledBytes == 0 {
		t.Fatalf("the arena never spilled under a 1 MiB budget (%d states)", spill.States)
	}
	if mem.States != spill.States || mem.Transitions != spill.Transitions ||
		mem.Verdict() != spill.Verdict() {
		t.Fatalf("spill run diverged: %s vs %s", spill.Summary(), mem.Summary())
	}
}

// TestFreshStatesAllocNothingPerState pins the pending set's
// allocation contract for fresh states: probing a state nobody has
// proposed yet and committing it costs no allocation of its own — only
// the amortized growth of the slot tables, arena and trace-link
// blocks. The rows are all-subsets and synchronous successors reached
// by multi-process selections, the states a stored selection once paid
// a heap string for. Each layer re-proposes the rows' successors under
// a new tag in the top bits of the key, so every layer is fresh; the
// first one sizes the pending buffers and is not counted.
func TestFreshStatesAllocNothingPerState(t *testing.T) {
	m := mustCC(t, core.CC2, hypergraph.CommitteeRing(4), CCOptions{Init: InitCCFull})()
	for _, mode := range []sim.SelectionMode{sim.SelectAllSubsets, sim.SelectSynchronous} {
		t.Run(mode.String(), func(t *testing.T) {
			type succ struct {
				key []uint64
				sel []byte
			}
			var succs []succ
			var sc sim.SuccScratch[core.State]
			m.Inits(func(cfg []core.State) bool {
				sim.SuccessorsBuf(m.Prog, cfg, mode, nil, 0, &sc, func(sel []int, nxt []core.State) bool {
					if len(sel) >= 2 {
						key := make([]uint64, m.Codec.Words)
						m.Codec.Encode(key, nxt)
						succs = append(succs, succ{key, appendSel(nil, sel)})
					}
					return true
				})
				return len(succs) < 1<<15
			})
			vs := NewVisited(m.Codec.Words)
			vs.SetSerial(true)
			defer vs.Close()
			var links TraceLinks
			var before, after runtime.MemStats
			key := make([]uint64, m.Codec.Words)
			fresh := 0
			for layer := range 4 {
				if layer == 1 {
					runtime.ReadMemStats(&before)
				}
				for i, s := range succs {
					copy(key, s.key)
					key[0] ^= uint64(layer) << 60
					vs.Probe(key, hashWords(key), uint64(i), int32(i/8), s.sel)
				}
				kept, _ := vs.commit(1, -1, &links)
				if layer > 0 {
					fresh += kept
				}
			}
			runtime.ReadMemStats(&after)
			allocs := after.Mallocs - before.Mallocs
			if fresh < 1<<9 {
				t.Fatalf("only %d fresh states", fresh)
			}
			if limit := uint64(fresh / 16); allocs > limit {
				t.Fatalf("%d fresh states cost %d allocations, want at most %d (amortized growth only)", fresh, allocs, limit)
			}
		})
	}
}
