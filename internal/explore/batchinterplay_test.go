package explore

// The batch-pipeline interplay battery: the columnar expansion path
// against every engine feature that could knock it off the fast path
// — symmetry reduction (whose orbit keys it must canonicalise exactly),
// out-of-core spill with checkpoint/resume tortures landing mid-cell,
// and a disk that fails a slice of all operations. The invariant
// throughout is the PR's contract: report bytes identical to the
// scalar in-memory run, or a classified failure — never a wrong
// answer.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// TestBatchSymmetryEngages pins symmetry reduction on the batch
// pipeline: a model that declares automorphisms, explored with
// Symmetry, engages the batch kernel (canon reduces each patched
// successor key to its orbit's least encoding), and the reduced run is
// byte-identical to the scalar one under DisableBatch. The full run is
// then held against the reduced run the usual way: same verdict,
// orbit-consistent totals.
func TestBatchSymmetryEngages(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.DisjointCommittees(2, 2), CCOptions{Init: InitCC})
	m := factory()
	if len(m.Syms) == 0 {
		t.Fatal("disjoint:2,2 declared no block symmetry; the reduction has nothing to test")
	}
	sym := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true, Symmetry: true}
	if ws := newWorkerState(m, &sym); ws.bkern == nil {
		t.Fatal("batch kernel did not engage under symmetry reduction")
	}
	ring, err := Baseline(baseline.TokenRing, hypergraph.CommitteeRing(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rm := ring(); len(rm.Syms) == 0 {
		t.Fatal("token-ring ring:4 declared no rotations")
	} else if ws := newWorkerState(rm, &sym); ws.bkern == nil {
		t.Fatal("batch kernel did not engage on token-ring under symmetry reduction")
	}

	red := Explore(factory, sym)
	if !red.Symmetry {
		t.Fatal("symmetry did not engage")
	}
	symScalar := sym
	symScalar.DisableBatch = true
	if got, want := normJSON(t, Explore(factory, symScalar)), normJSON(t, red); !bytes.Equal(got, want) {
		t.Fatalf("reduced run changed under DisableBatch:\n%s\nvs\n%s", got, want)
	}
	plain := sym
	plain.Symmetry = false
	full := Explore(factory, plain)
	if full.Verdict() != red.Verdict() || full.Ok() != red.Ok() {
		t.Fatalf("verdicts diverged:\n  full:    %s\n  reduced: %s", full.Summary(), red.Summary())
	}
	if red.States >= full.States || full.States > 2*red.States {
		t.Fatalf("orbit-inconsistent totals: reduced %d, full %d, group order 2", red.States, full.States)
	}
	// The seed is reduced too. InitCC gives each two-process block 36
	// configurations and the swap fixes the 36 inits whose blocks agree,
	// so by Burnside the 36² inits fall into (36² + 36) / 2 orbits.
	if full.Inits != 36*36 || red.Inits != (36*36+36)/2 {
		t.Fatalf("inits: reduced %d, full %d, want %d and %d", red.Inits, full.Inits, (36*36+36)/2, 36*36)
	}
}

// TestSymmetryBatchDifferential is the differential battery's symmetric
// leg: on every symmetric cell the batch pipeline at one and three
// workers must report byte for byte what the scalar path
// (DisableBatch) reports at one worker — orbit counts, depths,
// violations and their orbit-representative trace keys. Two more runs
// of one cell take the batch path out of core: with the arena spilled
// under a 16 KiB budget, and killed and resumed from checkpoints.
func TestSymmetryBatchDifferential(t *testing.T) {
	modes := []sim.SelectionMode{sim.SelectCentral, sim.SelectSynchronous, sim.SelectAllSubsets}
	check := func(t *testing.T, run func(t *testing.T, o Options) []byte, opts Options) {
		o := opts
		o.Workers, o.DisableBatch = 1, true
		want := run(t, o)
		for _, workers := range []int{1, 3} {
			o.Workers, o.DisableBatch = workers, false
			if got := run(t, o); !bytes.Equal(got, want) {
				t.Fatalf("batch at %d workers differs from the scalar path:\n%s\nvs\n%s", workers, got, want)
			}
		}
	}
	for _, tc := range []struct {
		n    int
		mode sim.SelectionMode
	}{{3, modes[0]}, {3, modes[1]}, {3, modes[2]}, {4, modes[0]}} {
		t.Run(fmt.Sprintf("token-ring/ring:%d/%s", tc.n, tc.mode), func(t *testing.T) {
			factory, err := Baseline(baseline.TokenRing, hypergraph.CommitteeRing(tc.n), 1)
			if err != nil {
				t.Fatal(err)
			}
			run := func(t *testing.T, o Options) []byte { return normJSON(t, Explore(factory, o)) }
			check(t, run, Options{Mode: tc.mode, CheckDeadlock: true, Symmetry: true})
		})
	}
	factory := mustCC(t, core.CC2, hypergraph.DisjointCommittees(2, 2), CCOptions{Init: InitCC})
	run := func(t *testing.T, o Options) []byte { return normJSON(t, Explore(factory, o)) }
	for _, mode := range modes {
		t.Run("cc2/disjoint:2,2/"+mode.String(), func(t *testing.T) {
			check(t, run, Options{Mode: mode, CheckDeadlock: true, CheckClosure: true,
				CheckConvergence: mode == sim.SelectSynchronous, Symmetry: true})
		})
	}

	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true, Symmetry: true,
		CheckpointEvery: 512}
	want := run(t, opts)
	t.Run("spilled", func(t *testing.T) {
		o := opts
		var stats RunStats
		o.Workers, o.MemBudget, o.SpillDir, o.Stats = 3, 1<<14, t.TempDir(), &stats
		if got := run(t, o); !bytes.Equal(got, want) {
			t.Fatalf("spilled run diverges:\n%s\nvs\n%s", got, want)
		}
		if stats.ArenaSpilledBytes == 0 {
			t.Fatal("the arena did not spill under a 16 KiB budget")
		}
	})
	t.Run("resumed", func(t *testing.T) {
		res, kills := resumeUntilDone(t, factory, opts, &memCheckpointer{}, rand.New(rand.NewSource(5)))
		if kills == 0 {
			t.Fatal("the run was never interrupted")
		}
		if got := normJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("resumed run (%d interruptions) diverges:\n%s\nvs\n%s", kills, got, want)
		}
	})
}

// TestBatchSpillCheckpointTorture kills the batch pipeline at random
// checkpoint boundaries while the visited arena is forced to disk, on
// the branchiest batch cell (all-subsets over
// the full CC-layer fault space) — so interruptions land between the
// chunks of a layer whose states each enumerate many selection masks.
// Resumed batch runs, the uninterrupted batch run and the scalar
// reference must produce byte-identical reports at 1 and 8 workers.
func TestBatchSpillCheckpointTorture(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCCFull})
	opts := Options{Mode: sim.SelectAllSubsets, CheckDeadlock: true, CheckClosure: true, CheckpointEvery: 4096}
	want := normJSON(t, Explore(factory, opts))

	scalar := opts
	scalar.DisableBatch = true
	if got := normJSON(t, Explore(factory, scalar)); !bytes.Equal(got, want) {
		t.Fatalf("scalar reference diverges from batch:\n%s\nvs\n%s", got, want)
	}

	// Prove the budget actually forces this cell out of core before
	// torturing it. (Inside the kill loop the stats describe only the
	// final, possibly very short, post-resume attempt.)
	{
		o := opts
		o.MemBudget = 1 << 14
		o.SpillDir = t.TempDir()
		var stats RunStats
		o.Stats = &stats
		if got := normJSON(t, Explore(factory, o)); !bytes.Equal(got, want) {
			t.Fatalf("uninterrupted spill run diverges:\n%s\nvs\n%s", got, want)
		}
		if stats.ArenaSpilledBytes == 0 {
			t.Fatal("the arena did not spill under a 16 KiB budget")
		}
	}

	rng := rand.New(rand.NewSource(11))
	for _, workers := range []int{1, 8} {
		o := opts
		o.Workers = workers
		o.MemBudget = 1 << 14
		o.SpillDir = t.TempDir()
		ck := &memCheckpointer{}
		res, kills := resumeUntilDone(t, factory, o, ck, rng)
		if kills == 0 {
			t.Fatalf("workers=%d: torture run was never interrupted", workers)
		}
		if got := normJSON(t, res); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d (%d interruptions): resumed batch report diverges:\n%s\nvs\n%s",
				workers, kills, got, want)
		}
	}
}

// TestBatchChaosSpill runs the batch pipeline's spill paths on a disk
// that fails a slice of all operations (transient ENOSPC on writes,
// EIO on reads). The contract is the nightly chaos campaign's, scoped
// to one engine run: every faulty attempt must either finish with a
// report byte-identical to the fault-free in-memory run, or fail with
// an error chaos.Classify recognizes — never a wrong answer, never a
// panic. After the disk heals, the same options must converge to the
// exact reference bytes. Seeded, so every fault sequence replays.
func TestBatchChaosSpill(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCCFull})
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true}
	want := normJSON(t, Explore(factory, opts))

	injected, survived := int64(0), 0
	for seed := int64(1); seed <= 4; seed++ {
		ffs := chaos.NewFaultFS(nil, chaos.Faults{Seed: seed, WriteErr: 0.02, ReadErr: 0.02})
		o := opts
		o.MemBudget = 1 << 14
		o.SpillDir = t.TempDir()
		o.FS = ffs
		var stats RunStats
		o.Stats = &stats
		res, err := ExploreCtx(context.Background(), factory, o)
		for _, n := range ffs.Stats() {
			injected += n
		}
		if err != nil {
			if !chaos.Recoverable(err) {
				t.Fatalf("seed %d: unclassified failure: %v", seed, err)
			}
		} else {
			if got := normJSON(t, res); !bytes.Equal(got, want) {
				t.Fatalf("seed %d: chaos spill run diverges from the fault-free run:\n%s\nvs\n%s", seed, got, want)
			}
			if stats.ArenaSpilledBytes == 0 {
				t.Fatalf("seed %d: the arena did not spill under the 16 KiB budget", seed)
			}
			survived++
		}

		// Disk healed: the same faulty FS (faults zeroed) must now
		// converge to the exact reference bytes.
		ffs.SetFaults(chaos.Faults{})
		o.SpillDir = t.TempDir()
		healed, err := ExploreCtx(context.Background(), factory, o)
		if err != nil {
			t.Fatalf("seed %d: healed run failed: %v", seed, err)
		}
		if got := normJSON(t, healed); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: healed run diverges:\n%s\nvs\n%s", seed, got, want)
		}
	}
	if injected == 0 {
		t.Fatal("no faults injected — the test exercised nothing")
	}
	if survived == 0 {
		t.Log("no faulty attempt survived to completion; retry absorption untested at these rates")
	}
}
