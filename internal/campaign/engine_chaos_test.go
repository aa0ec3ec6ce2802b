package campaign_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/store"
)

// The cross-engine acceptance drill: a campaign on the log engine —
// with compactions forced mid-campaign while the disk injects faults —
// must converge to persisted bytes identical to a fault-free campaign
// on the dir engine. The dir store is the differential oracle; the
// log store's append/supersede/compact machinery must be invisible in
// the bytes.

// TestLogEngineCampaignMatchesDirReference: a clean campaign run into
// each engine persists byte-identical entries, before and after an
// explicit compaction.
func TestLogEngineCampaignMatchesDirReference(t *testing.T) {
	cells := chaosGrid(t)
	ref := buildRef(t, cells) // fault-free dir-engine ground truth

	lg, err := store.OpenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	lg.AutoCompact = false
	rep := campaign.Run(context.Background(), lg, cells, campaign.RunOptions{Workers: 4})
	if !rep.Ok() || !rep.Complete() {
		t.Fatalf("log-engine campaign not clean:\n%s", rep.JSON())
	}
	compareAgainstRef := func(phase string) {
		t.Helper()
		for _, c := range rep.Results {
			_, raw, ok := lg.Get(c.Spec)
			if !ok {
				t.Fatalf("%s: %s missing from the log store", phase, c.Spec)
			}
			if !bytes.Equal(raw, ref[c.Key].raw) {
				t.Fatalf("%s: %s bytes differ from the dir-engine reference", phase, c.Spec)
			}
		}
	}
	compareAgainstRef("pre-compaction")
	if _, err := lg.Compact(); err != nil {
		t.Fatal(err)
	}
	compareAgainstRef("post-compaction")
}

// TestLogEngineMidCampaignCompactionChaos: the same campaign on the
// log engine under injected faults, with compactions forced while
// cells are still running. Per cell: the reference verdict or a
// classified failure, never a wrong answer. After healing, a rerun
// over the survivors converges to bytes identical to the fault-free
// dir-engine reference — compaction included.
func TestLogEngineMidCampaignCompactionChaos(t *testing.T) {
	cells := chaosGrid(t)
	ref := buildRef(t, cells)

	ffs := chaos.NewFaultFS(nil, chaos.Faults{})
	lg, err := store.OpenLogFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	lg.SetLog(func(string, ...any) {})
	ffs.SetFaults(chaos.Faults{Seed: 11,
		WriteErr: 0.05, ReadErr: 0.05, TornWrite: 0.05, SyncErr: 0.05, BitFlip: 0.03})

	// Force compactions while the campaign runs: the write lock
	// serializes them against Puts, and every surviving record is
	// re-validated as it is copied.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		for i := 0; i < 20; i++ {
			select {
			case <-ctx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
			lg.Compact() // errors fine under faults; the store must stay correct
		}
	}()

	rep := campaign.Run(ctx, lg, cells, campaign.RunOptions{
		Workers: 4, Exec: campaign.ExecOptions{FS: ffs, RetryBackoff: time.Millisecond},
	})
	cancel()
	<-compacted
	if rep.Skipped != 0 {
		t.Fatalf("campaign hung under faults:\n%s", rep.JSON())
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
				t.Errorf("%s: wrong verdict under faults+compaction: %s/%d, want %s/%d",
					c.Spec, c.Verdict, c.States, r.verdict, r.states)
			}
		}
	}

	// Heal, rerun, compact once more: byte-identical to the dir oracle.
	ffs.SetFaults(chaos.Faults{})
	rep2 := campaign.Run(context.Background(), lg, cells, campaign.RunOptions{Workers: 4})
	if !rep2.Ok() || !rep2.Complete() {
		t.Fatalf("healed rerun not clean:\n%s", rep2.JSON())
	}
	if _, err := lg.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, c := range rep2.Results {
		_, raw, ok := lg.Get(c.Spec)
		if !ok {
			t.Errorf("%s: no entry after heal+compact", c.Spec)
		} else if !bytes.Equal(raw, ref[c.Key].raw) {
			t.Errorf("%s: healed+compacted entry not byte-identical to the dir-engine reference", c.Spec)
		}
	}
}
