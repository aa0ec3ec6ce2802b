package campaign_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/store"
)

// bigSpec is a cell large enough to be interrupted mid-exploration
// with a fine checkpoint cadence.
func bigSpec() store.JobSpec {
	return store.JobSpec{
		Alg: "token-ring", Topo: "ring:6", Daemon: "central", MaxStates: 60_000,
	}.Canonical()
}

// ckptPath is where the dir engine keeps spec's snapshot.
func ckptPath(st store.Interface, spec store.JobSpec) string {
	return filepath.Join(st.Dir(), "checkpoints", spec.Key()[:2], spec.Key()+".ckpt")
}

// interruptAfterCheckpoint cancels ctx as soon as a checkpoint file
// for spec appears in the store.
func interruptAfterCheckpoint(t *testing.T, st store.Interface, spec store.JobSpec, cancel context.CancelFunc) chan struct{} {
	t.Helper()
	stop := make(chan struct{})
	path := ckptPath(st, spec)
	go func() {
		for i := 0; i < 30_000; i++ {
			if _, err := os.Stat(path); err == nil {
				cancel()
				return
			}
			select {
			case <-stop:
				return
			default:
			}
			time.Sleep(time.Millisecond)
		}
	}()
	return stop
}

// TestRunMidCellResume: a campaign interrupted mid-cell marks the cell
// skipped (snapshot saved); re-running the campaign resumes the cell
// from the snapshot (Event.Resumed proves it) and the final report is
// byte-identical to one computed without any interruption — serial and
// at -j 8.
func TestRunMidCellResume(t *testing.T) {
	cells := []store.JobSpec{bigSpec()}

	// Uninterrupted reference (its own store).
	refStore := openStore(t)
	ref := campaign.Run(context.Background(), refStore, cells, campaign.RunOptions{Workers: 1, Exec: campaign.ExecOptions{Workers: 2}})
	want := ref.JSON()

	for _, workers := range []int{1, 8} {
		st := openStore(t)
		ctx, cancel := context.WithCancel(context.Background())
		watch := interruptAfterCheckpoint(t, st, cells[0], cancel)
		opts := campaign.RunOptions{Workers: workers, Exec: campaign.ExecOptions{
			Workers: 2, Checkpoints: st, CheckpointEvery: 2000,
		}}
		rep := campaign.Run(ctx, st, cells, opts)
		close(watch)
		cancel()
		if rep.Skipped != 1 {
			t.Fatalf("workers=%d: interrupted cell not skipped: %+v", workers, rep.Results[0])
		}

		resumed := 0
		opts.Progress = func(ev campaign.Event) { resumed = ev.Resumed }
		rep = campaign.Run(context.Background(), st, cells, opts)
		if got := rep.JSON(); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: resumed campaign report diverges:\n%s\nvs\n%s", workers, got, want)
		}
		if resumed == 0 {
			t.Fatalf("workers=%d: cell restarted instead of resuming", workers)
		}
	}
}
