package explore

import (
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
