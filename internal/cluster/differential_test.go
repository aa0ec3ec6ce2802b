package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// The cluster differential battery: cluster.Run over a Local transport
// must reproduce the single-node engine byte-for-byte — marshalled
// reports including counterexample traces — at every peer count, on
// every algorithm × topology × daemon-branching cell. This is the proof
// that partitioning the visited set and shipping frontiers between
// peers changed the deployment shape of the checker and nothing else.
//
// CI runs the ring:3 shard of this battery under -race
// (TestClusterDifferentialBattery/.*ring:3.* — see
// .github/workflows/ci.yml).

// mustCC builds a CC model factory or fails the test.
func mustCC(t *testing.T, v core.Variant, h *hypergraph.H, opts explore.CCOptions) func() *explore.Model[core.State] {
	t.Helper()
	factory, err := explore.CC(v, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	return factory
}

// oracleJSON runs the single-node engine and marshals its report with
// StateBytes zeroed (a cluster has no single-process footprint, so the
// field is excluded from the byte-identity contract on both sides).
func oracleJSON[S sim.Cloneable[S]](t *testing.T, factory func() *explore.Model[S], opts explore.Options) []byte {
	t.Helper()
	res := explore.Explore(factory, opts)
	res.StateBytes = 0
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runCluster assembles npeers in-process peer engines (one shard each,
// deliberately tiny frame batches so every cell exercises multi-frame
// traffic), runs the coordinator over a Local transport, and returns
// the marshalled report.
func runCluster[S sim.Cloneable[S]](t *testing.T, factory func() *explore.Model[S], opts explore.Options, npeers int) []byte {
	t.Helper()
	engines := make([]explore.PeerEngine, npeers)
	for p := 0; p < npeers; p++ {
		e, err := explore.NewPeer(factory, opts, explore.PeerConfig{
			NShards: npeers, Hosted: []int{p}, Self: p, FlushRecords: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[p] = e
	}
	tr := cluster.NewLocal(cluster.LocalConfig{
		Engines:   engines,
		Snapshots: cluster.NewMemSnapshots(),
	})
	defer tr.Close()
	res, err := cluster.Run(context.Background(), factory, opts, tr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertClusterGrid pins cluster output to the single-node oracle at
// each requested peer count.
func assertClusterGrid[S sim.Cloneable[S]](t *testing.T, factory func() *explore.Model[S], opts explore.Options, counts []int) {
	t.Helper()
	ref := oracleJSON(t, factory, opts)
	for _, n := range counts {
		t.Run(fmt.Sprintf("peers:%d", n), func(t *testing.T) {
			got := runCluster(t, factory, opts, n)
			if !bytes.Equal(got, ref) {
				t.Fatalf("cluster report at %d peers differs from single-node:\n%s\nvs\n%s", n, got, ref)
			}
		})
	}
}

func TestClusterDifferentialBattery(t *testing.T) {
	variants := map[string]core.Variant{"cc1": core.CC1, "cc2": core.CC2, "cc3": core.CC3}
	topos := map[string]func() *hypergraph.H{
		"ring:3":    func() *hypergraph.H { return hypergraph.CommitteeRing(3) },
		"star:4":    func() *hypergraph.H { return hypergraph.Star(4) },
		"triples:3": func() *hypergraph.H { return hypergraph.ChainOfTriples(3) },
	}
	modes := map[string]sim.SelectionMode{
		"central":     sim.SelectCentral,
		"synchronous": sim.SelectSynchronous,
		"all-subsets": sim.SelectAllSubsets,
	}

	// CC cells: every variant × topology × mode at peer counts 1/2/3/5.
	// cc2 on ring:3 (central, synchronous) runs the full cc-full state
	// space at 3 peers — the heavy exhaustive cells, skipped in -short;
	// every other cell runs with a state budget, which makes the bounded
	// cells a differential test of the distributed truncation path
	// (layer-global at-cap, capcheck membership frames) as well.
	for algName, variant := range variants {
		for topoName, mkH := range topos {
			for modeName, mode := range modes {
				init := explore.InitCCFull
				maxStates := 12_000
				workers := 1
				counts := []int{1, 2, 3, 5}
				heavy := false
				switch topoName {
				case "star:4":
					init = explore.InitCC
					maxStates = 8_000
				case "triples:3":
					init = explore.InitCC
					maxStates = 8_000
				case "ring:3":
					workers = 2 // the -race shard runs these cells
					if algName == "cc2" && modeName != "all-subsets" {
						maxStates = 0
						heavy = true
						counts = []int{3}
					}
				}
				cell := func(name string, workers int, counts []int) {
					t.Run(name, func(t *testing.T) {
						if heavy && testing.Short() {
							t.Skip("heavy exhaustive cell: skipped in -short")
						}
						t.Parallel() // cells share no state; reports are identical at any width
						factory := mustCC(t, variant, mkH(), explore.CCOptions{Init: init})
						opts := explore.Options{
							Mode: mode, MaxStates: maxStates, Workers: workers,
							CheckDeadlock: true, CheckClosure: true,
						}
						if mode == sim.SelectSynchronous {
							opts.CheckConvergence = true
						}
						assertClusterGrid(t, factory, opts, counts)
					})
				}
				name := algName + "/" + topoName + "/" + modeName
				cell(name, workers, counts)
				if topoName == "ring:3" && modeName == "all-subsets" {
					// Three owners split a peer's 64 stripes unevenly in
					// its owner commit (Visited.rank and promote), and
					// the bound keeps only a prefix of the last layer.
					cell(name+"/workers:3", 3, []int{1, 3})
				}
			}
		}
	}

	// Baseline cells: the dining reduction's pinned central-schedule
	// deadlock trace and the token-ring cells must survive distribution.
	for _, kind := range []baseline.Kind{baseline.Dining, baseline.TokenRing} {
		for modeName, mode := range modes {
			t.Run(kind.String()+"/ring:3/"+modeName, func(t *testing.T) {
				if testing.Short() && modeName == "all-subsets" {
					t.Skip("heavy cell: skipped in -short")
				}
				t.Parallel()
				factory, err := explore.Baseline(kind, hypergraph.CommitteeRing(3), 1)
				if err != nil {
					t.Fatal(err)
				}
				opts := explore.Options{
					Mode: mode, MaxStates: 20_000, MaxViolations: 2, CheckDeadlock: true,
				}
				assertClusterGrid(t, factory, opts, []int{1, 3})
			})
		}
	}

	// Two cells off the cross, on the bounds the shared layer driver
	// owns. A depth-truncated run pins the depth bookkeeping across the
	// peer barrier; a run under a memory budget far below its arena
	// pins that every peer shard honours the budget — the spill must be
	// observable, not just harmless — with the verdict unchanged.
	t.Run("cc2/ring:3/central/max-depth", func(t *testing.T) {
		t.Parallel()
		factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), explore.CCOptions{Init: explore.InitCC})
		opts := explore.Options{
			Mode: sim.SelectCentral, MaxDepth: 3, Workers: 2,
			CheckDeadlock: true, CheckClosure: true,
		}
		assertClusterGrid(t, factory, opts, []int{1, 2, 3})
	})
	t.Run("cc2/ring:4/central/mem-budget", func(t *testing.T) {
		t.Parallel()
		factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(4), explore.CCOptions{Init: explore.InitCC})
		ref := oracleJSON(t, factory, ring4Opts)
		got, spilled := runClusterSpilling(t, factory, ring4Opts, 3)
		if !bytes.Equal(got, ref) {
			t.Fatalf("cluster report under a memory budget differs from single-node:\n%s\nvs\n%s", got, ref)
		}
		if spilled == 0 {
			t.Fatal("peers ran under a 16 KiB budget without spilling a byte of arena: MemBudget is not reaching the shards")
		}
	})
}

// ring4Opts is the out-of-core cell: 30k states of cc2 on ring:4 span
// 14 layers, so under runClusterSpilling's budget every shard's arena
// outgrows its share many times over.
var ring4Opts = explore.Options{
	Mode: sim.SelectCentral, MaxStates: 30_000, Workers: 2,
	CheckDeadlock: true, CheckClosure: true,
}

// runClusterSpilling is runCluster with each peer held to a 16 KiB
// memory budget; it also returns the arena bytes the peers had on disk
// when they closed. A peer settles its deferred cold candidates with
// the single node's sweep, one per layer and shard, so the peers
// together read the spill file at most twice as often as one worker
// of a single node under the same budget (on the ring:4 cell, 678
// against 663; comparing each cold tag match on the spot took 5,686).
func runClusterSpilling[S sim.Cloneable[S]](t *testing.T, factory func() *explore.Model[S], opts explore.Options, npeers int) ([]byte, int64) {
	t.Helper()
	stats := &explore.RunStats{}
	opts.MemBudget, opts.SpillDir, opts.Stats = 16<<10, t.TempDir(), stats
	got := runCluster(t, factory, opts, npeers)
	// The layer driver clocks the coordinator's phases as it does a
	// single node's.
	if stats.ExpandSeconds <= 0 || stats.CommitSeconds <= 0 {
		t.Fatalf("phase clocks not filled: expand %gs, commit %gs", stats.ExpandSeconds, stats.CommitSeconds)
	}
	single := &explore.RunStats{}
	opts.Workers, opts.Stats = 1, single
	explore.Explore(factory, opts)
	if stats.ColdReads > 2*single.ColdReads {
		t.Fatalf("%d peers read the spill file %d times, more than twice a single node's %d", npeers, stats.ColdReads, single.ColdReads)
	}
	return got, stats.ArenaSpilledBytes
}

// TestClusterMutations: seeded guard mutations must yield the same
// violations with the same counterexample traces from the cluster —
// the coordinator-side trace builder (parent walk + batched key
// fetches from the owning shards) is differentially tested, not just
// the clean path.
func TestClusterMutations(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mutation string
		init     explore.InitMode
		mode     sim.SelectionMode
		converge bool
	}{
		{"leave-early/central", explore.MutationLeaveEarly, explore.InitLegit, sim.SelectCentral, false},
		{"skip-stab/synchronous", explore.MutationSkipStab, explore.InitCCFull, sim.SelectSynchronous, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), explore.CCOptions{Init: tc.init, Mutation: tc.mutation})
			opts := explore.Options{
				Mode: tc.mode, CheckDeadlock: true, CheckConvergence: tc.converge,
				MaxViolations: 3, Workers: 2,
			}
			assertClusterGrid(t, factory, opts, []int{1, 2, 3})
		})
	}
}
