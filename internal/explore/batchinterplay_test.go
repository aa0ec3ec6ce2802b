package explore

// The batch-pipeline interplay battery: the columnar expansion path
// against every engine feature that could knock it off the fast path
// — symmetry reduction (which must fall back to scalar, exactly),
// out-of-core spill with checkpoint/resume tortures landing mid-cell,
// and a disk that fails a slice of all operations. The invariant
// throughout is the PR's contract: report bytes identical to the
// scalar in-memory run, or a classified failure — never a wrong
// answer.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// TestBatchSymmetryFallback pins the eligibility rule: a model that
// declares automorphisms, explored with -symmetry, must NOT engage
// the batch kernel (canonicalization needs the decoded successor,
// which the batch path never materializes per selection), and the
// reduced run must stay byte-identical whether or not batch is
// nominally enabled. The full batch run is then held against the
// reduced run the usual way: same verdict, orbit-consistent totals.
func TestBatchSymmetryFallback(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.DisjointCommittees(2, 2), CCOptions{Init: InitCC})
	m := factory()
	if len(m.Syms) == 0 {
		t.Fatal("disjoint:2,2 declared no block symmetry; the fallback has nothing to test")
	}
	sym := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true, Symmetry: true}
	if ws := newWorkerState(m, &sym); ws.bkern != nil {
		t.Fatal("batch kernel engaged under symmetry reduction")
	}
	plain := sym
	plain.Symmetry = false
	if ws := newWorkerState(m, &plain); ws.bkern == nil {
		t.Fatal("batch kernel did not engage without symmetry; eligibility became too strict")
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
	full := Explore(factory, plain)
	if full.Verdict() != red.Verdict() || full.Ok() != red.Ok() {
		t.Fatalf("verdicts diverged:\n  full:    %s\n  reduced: %s", full.Summary(), red.Summary())
	}
	if red.States >= full.States || full.States > 2*red.States {
		t.Fatalf("orbit-inconsistent totals: reduced %d, full %d, group order 2", red.States, full.States)
	}
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
