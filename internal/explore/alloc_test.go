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
// (rare by design). ring:3 has no process that can use the
// local-transition cache, and its worker has none; on ring:4 every
// process looks up, and with the table shrunk to 64 entries it has
// stopped growing by the end of the BFS, so the measured expansions —
// of states spread over the whole space, each twice — both hit and
// miss, and some hit at every process and skip the decode.
// disjoint:2,2 runs the same under symmetry reduction, so canon —
// decoding each successor key, encoding its block-swapped image and
// keeping the lesser — is held to the same contract.
func TestBatchSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		h     *hypergraph.H
		init  InitMode
		sym   bool
		local bool
	}{
		{"ring:3", hypergraph.CommitteeRing(3), InitCCFull, false, false},
		{"ring:4", hypergraph.CommitteeRing(4), InitCC, false, true},
		{"disjoint:2,2/symmetry", hypergraph.DisjointCommittees(2, 2), InitCC, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shrinkLocal(t, 64)
			factory := mustCC(t, core.CC2, tc.h, CCOptions{Init: tc.init})
			m := factory()
			opts := &Options{Mode: sim.SelectAllSubsets, CheckDeadlock: true, CheckClosure: true, Symmetry: tc.sym}
			ws := newWorkerState(m, opts)
			if (ws.syms != nil) != tc.sym {
				t.Fatalf("automorphisms in use: %v, want %v", ws.syms != nil, tc.sym)
			}
			if ws.bkern == nil {
				t.Fatal("batch pipeline not engaged for the CC model")
			}
			if (ws.local != nil) != tc.local {
				t.Fatalf("local-transition cache present: %v, want %v", ws.local != nil, tc.local)
			}

			// Drive the full BFS through expandBatch itself, replicating
			// the engine's probe → drain → promote layer discipline.
			vs, layer := seedLayer(m)
			defer vs.Close()
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
			for ; len(layer) > 0; layer = promote() {
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
			if tc.local && 2*len(ws.local.tab) != localEntries {
				t.Fatalf("table has %d entries after the BFS, want its cap %d", 2*len(ws.local.tab), localEntries)
			}

			// Steady state: every successor is known. Zero allocations,
			// on cache hits and misses alike.
			var lookups, hits, allHits int64
			if tc.local {
				lookups, hits, allHits = ws.local.lookups, ws.local.hits, ws.local.allHits
			}
			next, again := int32(0), false
			stride := int32(vs.States()/101) | 1
			if allocs := testing.AllocsPerRun(100, func() {
				ws.expandBatch(vs, agg, next, 0, depth)
				if again { // each state twice: the second time hits
					next = (next + stride) % int32(vs.States())
				}
				again = !again
			}); allocs != 0 {
				t.Fatalf("steady-state batch expansion allocates %v times per state, want 0", allocs)
			}
			if tc.local {
				lookups, hits, allHits = ws.local.lookups-lookups, ws.local.hits-hits, ws.local.allHits-allHits
				if hits == 0 || hits == lookups {
					t.Fatalf("measured expansions: %d hits of %d lookups, want both hits and misses", hits, lookups)
				}
				if allHits == 0 {
					t.Fatal("no measured expansion skipped the decode (every process a hit)")
				}
			}
		})
	}
}

// TestSpillCountsMatchInMemory pins the out-of-core path on the batch
// pipeline (cc2/ring:4/cc/central): with the cold visited arena forced
// to disk by a 1 MiB budget, the arena must really spill, and the
// states, transitions and verdict must equal the in-memory run's, at
// one, two and three workers. The rate of the spilled run is gated
// where pairs of runs are timed, by the benchmark's
// explore.spill_tax_ratio, not here; what is counted here is how often
// it reads the spill file. One read per cold tag match came to 6,140
// reads at one worker; the commit's sorted sweep takes 394. The sweep
// is one per layer, not one per stripe owner, so more workers read no
// more: a sweep per owner read 394 / 680 / 893 times at one, two and
// three workers.
func TestSpillCountsMatchInMemory(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(4), CCOptions{Init: InitCC})
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true}
	mem := Explore(factory, opts)
	var reads1 int64
	for _, workers := range []int{1, 2, 3} {
		var st RunStats
		opts.Workers, opts.MemBudget, opts.SpillDir, opts.Stats = workers, 1<<20, t.TempDir(), &st
		spill := Explore(factory, opts)
		if st.ArenaSpilledBytes == 0 {
			t.Fatalf("workers=%d: the arena never spilled under a 1 MiB budget (%d states)", workers, spill.States)
		}
		if mem.States != spill.States || mem.Transitions != spill.Transitions ||
			mem.Verdict() != spill.Verdict() {
			t.Fatalf("workers=%d: spill run diverged: %s vs %s", workers, spill.Summary(), mem.Summary())
		}
		switch {
		case workers == 1 && st.ColdReads > 1000:
			t.Fatalf("one worker read the spill file %d times, more than 1,000", st.ColdReads)
		case workers == 1:
			reads1 = st.ColdReads
		case 5*st.ColdReads > 6*reads1:
			t.Fatalf("%d workers read the spill file %d times, more than 1.2× one worker's %d", workers, st.ColdReads, reads1)
		}
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
				kept, _, _ := vs.commit(1, -1, &links)
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
