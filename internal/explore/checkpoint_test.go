package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// memCheckpointer keeps snapshots in memory and can cancel a context
// after the n-th save — the deterministic stand-in for "kill -9 at a
// randomized point" (the engine only reaches quiescent points at chunk
// boundaries, and every chunk boundary is reachable by varying the
// cadence and the save count).
type memCheckpointer struct {
	data        []byte
	saves       int
	cancelAfter int
	cancel      context.CancelFunc
	history     [][]byte // every snapshot ever saved, when recording
	record      bool
}

func (m *memCheckpointer) Load() (io.ReadCloser, error) {
	if m.data == nil {
		return nil, nil
	}
	return io.NopCloser(bytes.NewReader(m.data)), nil
}

func (m *memCheckpointer) Save(write func(w io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	m.data = buf.Bytes()
	m.saves++
	if m.record {
		m.history = append(m.history, append([]byte(nil), m.data...))
	}
	if m.cancelAfter > 0 && m.saves >= m.cancelAfter && m.cancel != nil {
		m.cancel()
	}
	return nil
}

// normJSON marshals a result with the process-local footprint
// measurement zeroed (the documented exclusion from byte-identity).
func normJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	c := *res
	c.StateBytes = 0
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// resumeUntilDone drives a run through repeated interruptions: each
// attempt cancels after a random (seeded) number of checkpoint saves,
// then the next attempt resumes from the latest snapshot, until one
// attempt completes.
func resumeUntilDone[S sim.Cloneable[S]](t *testing.T, factory func() *Model[S], opts Options, ck *memCheckpointer, rng *rand.Rand) (*Result, int) {
	t.Helper()
	interruptions := 0
	for attempt := 0; attempt < 500; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		ck.saves = 0
		ck.cancelAfter = 1 + rng.Intn(3)
		ck.cancel = cancel
		opts.Checkpoint = ck
		res, err := ExploreCtx(ctx, factory, opts)
		cancel()
		if err == nil {
			return res, interruptions
		}
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if ck.data == nil {
			t.Fatalf("attempt %d: interrupted without a snapshot", attempt)
		}
		interruptions++
	}
	t.Fatal("run never completed in 500 attempts")
	return nil, 0
}

// TestCheckpointTorture is the differential kill/resume battery: runs
// interrupted at randomized checkpoint boundaries — serial and -j 8,
// fully in-memory and under a spill-forcing budget — must finish with
// reports byte-identical to the uninterrupted run, counterexample
// traces, truncation flags and all.
func TestCheckpointTorture(t *testing.T) {
	ring3 := hypergraph.CommitteeRing(3)
	cases := []struct {
		name    string
		factory func(t *testing.T) func(opts Options, ck *memCheckpointer, rng *rand.Rand) (*Result, int)
		opts    Options
	}{
		{
			name: "cc2/ring:3/cc-full/central",
			factory: func(t *testing.T) func(Options, *memCheckpointer, *rand.Rand) (*Result, int) {
				f := mustCC(t, core.CC2, ring3, CCOptions{Init: InitCCFull})
				return func(opts Options, ck *memCheckpointer, rng *rand.Rand) (*Result, int) {
					if ck == nil {
						return Explore(f, opts), 0
					}
					return resumeUntilDone(t, f, opts, ck, rng)
				}
			},
			opts: Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true, CheckpointEvery: 4096},
		},
		{
			name: "cc2/ring:3/legit/central/leave-early (violation traces)",
			factory: func(t *testing.T) func(Options, *memCheckpointer, *rand.Rand) (*Result, int) {
				f := mustCC(t, core.CC2, ring3, CCOptions{Init: InitLegit, Mutation: MutationLeaveEarly})
				return func(opts Options, ck *memCheckpointer, rng *rand.Rand) (*Result, int) {
					if ck == nil {
						return Explore(f, opts), 0
					}
					return resumeUntilDone(t, f, opts, ck, rng)
				}
			},
			opts: Options{Mode: sim.SelectCentral, CheckDeadlock: true, MaxViolations: 4, CheckpointEvery: 16},
		},
		{
			name: "token-ring/ring:5/central/truncated",
			factory: func(t *testing.T) func(Options, *memCheckpointer, *rand.Rand) (*Result, int) {
				f, err := Baseline(baseline.TokenRing, hypergraph.CommitteeRing(5), 1)
				if err != nil {
					t.Fatal(err)
				}
				return func(opts Options, ck *memCheckpointer, rng *rand.Rand) (*Result, int) {
					if ck == nil {
						return Explore(f, opts), 0
					}
					return resumeUntilDone(t, f, opts, ck, rng)
				}
			},
			opts: Options{Mode: sim.SelectCentral, CheckDeadlock: true, MaxStates: 20_000, CheckpointEvery: 977},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := tc.factory(t)
			base, _ := run(tc.opts, nil, nil)
			want := normJSON(t, base)
			rng := rand.New(rand.NewSource(7))
			for _, workers := range []int{1, 8} {
				for _, budget := range []int64{0, 1 << 14} {
					opts := tc.opts
					opts.Workers = workers
					opts.MemBudget = budget
					opts.SpillDir = t.TempDir()
					var stats RunStats
					opts.Stats = &stats
					ck := &memCheckpointer{}
					res, kills := run(opts, ck, rng)
					if got := normJSON(t, res); !bytes.Equal(got, want) {
						t.Fatalf("workers=%d budget=%d (%d interruptions): resumed report diverges:\n%s\nvs\n%s",
							workers, budget, kills, got, want)
					}
					if kills == 0 && tc.name == "cc2/ring:3/cc-full/central" {
						t.Fatalf("workers=%d budget=%d: torture run was never interrupted", workers, budget)
					}
				}
			}
		})
	}
}

// TestResumeFromEverySnapshot is the kill -9 model: a crash can land
// immediately after ANY persisted snapshot, with no graceful
// cancellation save to paper over it — so a cold resume from each
// periodic snapshot, exactly as written, must complete to the
// uninterrupted result. (This is the test that catches snapshots
// taken at inconsistent points, e.g. after a layer's last chunk with
// the next layer still un-promoted.)
func TestResumeFromEverySnapshot(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"cc2/cc-full/in-memory", Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true, CheckpointEvery: 4096, Workers: 4}},
		{"token-ring/truncated/spill", Options{Mode: sim.SelectCentral, CheckDeadlock: true, MaxStates: 20_000, CheckpointEvery: 977, Workers: 2, MemBudget: 1 << 14}},
	}
	ring3 := hypergraph.CommitteeRing(3)
	ccFactory := mustCC(t, core.CC2, ring3, CCOptions{Init: InitCCFull})
	trFactory, err := Baseline(baseline.TokenRing, hypergraph.CommitteeRing(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(opts Options) *Result {
				if tc.name == "cc2/cc-full/in-memory" {
					r, err := ExploreCtx(context.Background(), ccFactory, opts)
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
				r, err := ExploreCtx(context.Background(), trFactory, opts)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			opts := tc.opts
			opts.SpillDir = t.TempDir()
			want := normJSON(t, run(opts))

			// A full recorded run: every periodic snapshot it ever wrote.
			rec := &memCheckpointer{record: true}
			opts.Checkpoint = rec
			run(opts)
			if len(rec.history) < 3 {
				t.Fatalf("only %d snapshots recorded; cadence too coarse for this test", len(rec.history))
			}
			for i, snap := range rec.history {
				o := tc.opts
				o.SpillDir = t.TempDir()
				o.Checkpoint = &memCheckpointer{data: snap}
				var stats RunStats
				o.Stats = &stats
				res := run(o)
				if stats.ResumedStates == 0 {
					t.Fatalf("snapshot %d/%d did not resume", i+1, len(rec.history))
				}
				if got := normJSON(t, res); !bytes.Equal(got, want) {
					t.Fatalf("cold resume from snapshot %d/%d diverges:\n%s\nvs\n%s", i+1, len(rec.history), got, want)
				}
			}
		})
	}
}

// TestSpillMatchesInMemory: a memory budget small enough to force the
// arena out of core must not change a single byte of the report — and
// the arena spill must actually engage. The open queue is an arena id
// range, so the arena is the only thing that spills: no frontier
// segment directory ever appears.
func TestSpillMatchesInMemory(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCCFull})
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true, Workers: 4}
	want := normJSON(t, Explore(factory, opts))

	var stats RunStats
	opts.MemBudget = 1 << 14
	opts.SpillDir = t.TempDir()
	opts.Stats = &stats
	checks := 0
	opts.Progress = func(Progress) {
		checks++
		entries, err := os.ReadDir(opts.SpillDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "cc-frontier-") {
				t.Fatalf("frontier spill entry %s appeared in the spill dir", e.Name())
			}
		}
	}
	got := normJSON(t, Explore(factory, opts))
	if !bytes.Equal(got, want) {
		t.Fatalf("out-of-core report diverges from in-memory:\n%s\nvs\n%s", got, want)
	}
	if checks == 0 {
		t.Fatal("the spill dir was never listed mid-run")
	}
	if stats.ArenaSpilledBytes == 0 {
		t.Fatal("arena never spilled under a 16 KiB budget")
	}
	if stats.FrontierSpillSegments != 0 {
		t.Fatalf("%d frontier segments spilled; the open queue is an arena id range", stats.FrontierSpillSegments)
	}
}

// TestReshardDifferential: forcing the visited set through many
// shard-count doublings must not change the report.
func TestReshardDifferential(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCCFull})
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, Workers: 4}
	want := normJSON(t, Explore(factory, opts))

	old := reshardPerShard
	reshardPerShard = 64
	defer func() { reshardPerShard = old }()
	got := normJSON(t, Explore(factory, opts))
	if !bytes.Equal(got, want) {
		t.Fatalf("resharded report diverges:\n%s\nvs\n%s", got, want)
	}

	// And combined with an arena spill (re-sharding redistributes cold
	// slots by their tags, without reading the spilled arena).
	opts.MemBudget = 1 << 14
	opts.SpillDir = t.TempDir()
	got = normJSON(t, Explore(factory, opts))
	if !bytes.Equal(got, want) {
		t.Fatalf("resharded+spilled report diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestCheckpointOptionsMismatchIgnored: a snapshot taken under one
// options tuple must not be applied to a different one — the run
// starts fresh and still answers correctly.
func TestCheckpointOptionsMismatchIgnored(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCC})
	ck := &memCheckpointer{}

	// Capture a mid-run snapshot under MaxStates 2000.
	ctx, cancel := context.WithCancel(context.Background())
	ck.cancelAfter, ck.cancel = 1, cancel
	_, err := ExploreCtx(ctx, factory, Options{
		Mode: sim.SelectCentral, CheckDeadlock: true, MaxStates: 2000, Checkpoint: ck, CheckpointEvery: 256,
	})
	cancel()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want interruption, got %v", err)
	}
	snapshotted := ck.data

	// A different bound must ignore it.
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, MaxStates: 5000}
	want := normJSON(t, Explore(factory, opts))
	ck.cancelAfter, ck.cancel = 0, nil
	var stats RunStats
	opts.Checkpoint = ck
	opts.Stats = &stats
	res, err := ExploreCtx(context.Background(), factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResumedStates != 0 {
		t.Fatalf("mismatched checkpoint was resumed (%d states)", stats.ResumedStates)
	}
	if got := normJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("report after ignored checkpoint diverges:\n%s\nvs\n%s", got, want)
	}
	if len(snapshotted) == 0 {
		t.Fatal("no snapshot captured")
	}
}

// TestCheckpointCorruptionIgnored: truncated or bit-flipped snapshots
// (torn writes cannot happen through the atomic store, but belt and
// suspenders) read as "no checkpoint", never as wrong state.
func TestCheckpointCorruptionIgnored(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCC})
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckpointEvery: 256}
	want := normJSON(t, Explore(factory, Options{Mode: sim.SelectCentral, CheckDeadlock: true}))

	ck := &memCheckpointer{}
	ctx, cancel := context.WithCancel(context.Background())
	ck.cancelAfter, ck.cancel = 1, cancel
	_, err := ExploreCtx(ctx, factory, withCheckpoint(opts, ck))
	cancel()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want interruption, got %v", err)
	}
	valid := append([]byte(nil), ck.data...)

	for name, mangle := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flipped": func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(b)/3] ^= 0x40
			return b
		},
		"empty": func([]byte) []byte { return []byte{} },
		// A version 2 snapshot stored the open queue's ids where version
		// 3 stores the layer width; it must restart, not misread.
		"v2-magic": func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[5] = '2'
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			ck := &memCheckpointer{data: mangle(valid)}
			var stats RunStats
			o := withCheckpoint(opts, ck)
			o.Stats = &stats
			res, err := ExploreCtx(context.Background(), factory, o)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ResumedStates != 0 {
				t.Fatalf("corrupted checkpoint resumed (%d states)", stats.ResumedStates)
			}
			if got := normJSON(t, res); !bytes.Equal(got, want) {
				t.Fatalf("report after corrupted checkpoint diverges:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

func withCheckpoint(opts Options, ck Checkpointer) Options {
	opts.Checkpoint = ck
	return opts
}
