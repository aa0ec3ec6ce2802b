package campaign_test

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/store"
)

// chaosGrid is the battery's cell set: small enough to explore in
// milliseconds, wide enough that faults land across many independent
// store round-trips.
func chaosGrid(t *testing.T) []store.JobSpec {
	t.Helper()
	spec, err := campaign.ParseSpec("cc1,cc2", "ring:3", "central,synchronous", "legit,cc", "")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("grid size %d, want 8", len(cells))
	}
	return cells
}

// refCell is what a fault-free run persists for one cell: the ground
// truth every chaos run is compared against.
type refCell struct {
	verdict string
	states  int
	raw     []byte
}

// buildRef runs the cells against a clean store and collects each
// cell's verdict and exact persisted bytes.
func buildRef(t *testing.T, cells []store.JobSpec) map[string]refCell {
	t.Helper()
	st := openStore(t)
	rep := campaign.Run(context.Background(), st, cells, campaign.RunOptions{Workers: 4})
	if !rep.Ok() || !rep.Complete() {
		t.Fatalf("reference campaign not clean: %s", rep.JSON())
	}
	ref := make(map[string]refCell, len(cells))
	for _, c := range rep.Results {
		_, raw, ok := st.Get(c.Spec)
		if !ok {
			t.Fatalf("reference entry missing for %s", c.Spec)
		}
		ref[c.Key] = refCell{verdict: c.Verdict, states: c.States, raw: raw}
	}
	return ref
}

// TestChaosBatteryEscalating is the robustness acceptance test: the
// same campaign under escalating fault rates must, per cell, either
// produce the reference verdict or fail loudly with a classified
// error — never a wrong verdict, never a hang — and once the disk
// heals, a rerun over the surviving store converges to byte-identical
// persisted entries.
func TestChaosBatteryEscalating(t *testing.T) {
	cells := chaosGrid(t)
	ref := buildRef(t, cells)
	for _, tc := range []struct {
		name   string
		faults chaos.Faults
	}{
		{"rate-0.02", chaos.Faults{Seed: 2,
			WriteErr: 0.02, ReadErr: 0.02, TornWrite: 0.02, SyncErr: 0.02, BitFlip: 0.02}},
		{"rate-0.08", chaos.Faults{Seed: 8,
			WriteErr: 0.08, ReadErr: 0.08, TornWrite: 0.08, SyncErr: 0.08, BitFlip: 0.08, RenameErr: 0.04}},
		{"rate-0.20", chaos.Faults{Seed: 20,
			WriteErr: 0.2, ReadErr: 0.2, TornWrite: 0.2, SyncErr: 0.2, BitFlip: 0.1, RenameErr: 0.1, Permanent: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The store opens on a healthy disk; the faults start once
			// the campaign does (an open that fails is a different,
			// already-covered failure: cccheck exits 4).
			ffs := chaos.NewFaultFS(nil, chaos.Faults{})
			st, err := store.OpenFS(t.TempDir(), ffs)
			if err != nil {
				t.Fatal(err)
			}
			st.SetLog(func(string, ...any) {})
			ffs.SetFaults(tc.faults)

			// Per-test deadline: a hung campaign shows up as skipped
			// cells, which the battery treats as failure.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			rep := campaign.Run(ctx, st, cells, campaign.RunOptions{
				Workers: 4, Exec: campaign.ExecOptions{FS: ffs, RetryBackoff: time.Millisecond},
			})
			if rep.Skipped != 0 {
				t.Fatalf("campaign hung under faults (deadline hit):\n%s", rep.JSON())
			}
			var injected int64
			for _, n := range ffs.Stats() {
				injected += n
			}
			if injected == 0 {
				t.Fatal("no faults injected — the battery exercised nothing")
			}
			for _, c := range rep.Results {
				switch c.Status {
				case campaign.StatusFailed:
					if c.ErrorClass == "" {
						t.Errorf("%s: failed without a classified error: %s", c.Spec, c.Error)
					}
				default:
					r := ref[c.Key]
					if c.Verdict != r.verdict || c.States != r.states {
						t.Errorf("%s: wrong verdict under faults: %s/%d states, want %s/%d",
							c.Spec, c.Verdict, c.States, r.verdict, r.states)
					}
				}
			}

			// Heal the disk and rerun over whatever the chaos run left
			// behind (complete entries, silently corrupted entries, or
			// nothing): the campaign self-stabilizes to a clean report
			// and byte-identical persisted entries.
			ffs.SetFaults(chaos.Faults{})
			rep2 := campaign.Run(context.Background(), st, cells, campaign.RunOptions{Workers: 4})
			if !rep2.Ok() || !rep2.Complete() {
				t.Fatalf("healed rerun not clean:\n%s", rep2.JSON())
			}
			for _, c := range rep2.Results {
				r := ref[c.Key]
				if c.Verdict != r.verdict {
					t.Errorf("%s: healed verdict %s, want %s", c.Spec, c.Verdict, r.verdict)
				}
				_, raw, ok := st.Get(c.Spec)
				if !ok {
					t.Errorf("%s: no entry after the healed rerun", c.Spec)
				} else if !bytes.Equal(raw, r.raw) {
					t.Errorf("%s: healed entry not byte-identical to the fault-free run", c.Spec)
				}
			}
		})
	}
}

// TestChaosENOSPCMidCampaignRecovers: a disk-full error in the middle
// of a campaign's store writes is retried away — the campaign
// completes clean with every entry byte-identical to a fault-free run.
func TestChaosENOSPCMidCampaignRecovers(t *testing.T) {
	cells := chaosGrid(t)
	ref := buildRef(t, cells)
	ffs := chaos.NewFaultFS(nil, chaos.Faults{})
	st, err := store.OpenFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	st.SetLog(func(string, ...any) {})
	// One-shot ENOSPC on the 6th write-side op: with a serial pool that
	// lands inside an early cell's Put, mid-campaign.
	ffs.SetFaults(chaos.Faults{FailWriteAt: 6})
	rep := campaign.Run(context.Background(), st, cells, campaign.RunOptions{
		Workers: 1, Exec: campaign.ExecOptions{RetryBackoff: time.Millisecond},
	})
	if ffs.Stats()["write"] != 1 {
		t.Fatalf("injected %d write faults, want exactly 1", ffs.Stats()["write"])
	}
	if !rep.Ok() || !rep.Complete() {
		t.Fatalf("campaign did not recover from a transient ENOSPC:\n%s", rep.JSON())
	}
	for _, c := range rep.Results {
		r := ref[c.Key]
		if c.Verdict != r.verdict {
			t.Errorf("%s: verdict %s, want %s", c.Spec, c.Verdict, r.verdict)
		}
		if _, raw, ok := st.Get(c.Spec); !ok || !bytes.Equal(raw, r.raw) {
			t.Errorf("%s: entry not byte-identical after the retried write", c.Spec)
		}
	}
}

// TestChaosCorruptEntryRecompute: corruption at rest is absorbed by
// the read path — the damaged entry reads as a miss, is quarantined,
// and the cell recomputes and re-persists the exact reference bytes
// while its neighbors still hit the cache.
func TestChaosCorruptEntryRecompute(t *testing.T) {
	cells := chaosGrid(t)
	st := openStore(t)
	st.SetLog(func(string, ...any) {})
	rep1 := campaign.Run(context.Background(), st, cells, campaign.RunOptions{Workers: 4})
	if !rep1.Ok() || !rep1.Complete() {
		t.Fatalf("setup campaign not clean:\n%s", rep1.JSON())
	}
	victim := rep1.Results[3]
	_, refRaw, ok := st.Get(victim.Spec)
	if !ok {
		t.Fatal("victim entry missing")
	}
	path := filepath.Join(st.Dir(), victim.Key[:2], victim.Key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep2 := campaign.Run(context.Background(), st, cells, campaign.RunOptions{Workers: 4})
	if !rep2.Ok() || !rep2.Complete() {
		t.Fatalf("rerun over a corrupt entry not clean:\n%s", rep2.JSON())
	}
	if rep2.CacheHits != len(cells)-1 || rep2.Explored != 1 {
		t.Fatalf("rerun: %d hits + %d explored, want %d + 1", rep2.CacheHits, rep2.Explored, len(cells)-1)
	}
	if st.Quarantined() == 0 {
		t.Fatal("corrupt entry was not quarantined")
	}
	if rep2.Results[3].Status != campaign.StatusDone || rep2.Results[3].Verdict != victim.Verdict {
		t.Fatalf("victim cell after corruption: %+v", rep2.Results[3])
	}
	if _, raw, ok := st.Get(victim.Spec); !ok || !bytes.Equal(raw, refRaw) {
		t.Fatal("recomputed entry not byte-identical to the original")
	}
}

// TestChaosCorruptCheckpointFreshRun: a damaged snapshot under a job's
// content key is quarantined at restore time and the job converges
// from scratch to the reference verdict — a bad checkpoint can slow a
// run down but never change or wedge it.
func TestChaosCorruptCheckpointFreshRun(t *testing.T) {
	spec := store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc"}
	cells := []store.JobSpec{spec}
	ref := buildRef(t, cells)

	st := openStore(t)
	st.SetLog(func(string, ...any) {})
	ck := st.Checkpoint(spec.Canonical().Key())
	if err := ck.Save(func(w io.Writer) error {
		_, err := w.Write([]byte("not a checkpoint: the explorer must reject and quarantine this"))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	rep := campaign.Run(context.Background(), st, cells, campaign.RunOptions{
		Workers: 1, Exec: campaign.ExecOptions{Checkpoints: st},
	})
	if !rep.Ok() || !rep.Complete() {
		t.Fatalf("run over a corrupt checkpoint not clean:\n%s", rep.JSON())
	}
	r := ref[spec.Canonical().Key()]
	if rep.Results[0].Status != campaign.StatusDone || rep.Results[0].Verdict != r.verdict {
		t.Fatalf("cell did not recompute the reference verdict: %+v", rep.Results[0])
	}
	entries, err := os.ReadDir(filepath.Join(st.Dir(), store.QuarantineDir))
	if err != nil || len(entries) == 0 {
		t.Fatalf("corrupt checkpoint not quarantined: %v (%d files)", err, len(entries))
	}
	if _, raw, ok := st.Get(spec); !ok || !bytes.Equal(raw, r.raw) {
		t.Fatal("fresh run's entry not byte-identical to the reference")
	}
}
