package store_test

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/store"
)

func payload(ck *store.Checkpoint, t *testing.T, data string) {
	t.Helper()
	err := ck.Save(func(w io.Writer) error {
		_, err := io.WriteString(w, data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func readBack(t *testing.T, ck *store.Checkpoint) string {
	t.Helper()
	r, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		return ""
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCheckpointRoundTrip: Save/Load/Delete, including the
// no-checkpoint and overwrite cases.
func TestCheckpointRoundTrip(t *testing.T) {
	st := open(t)
	ck := st.Checkpoint(strings.Repeat("ab", 32))
	if r, err := ck.Load(); err != nil || r != nil {
		t.Fatalf("Load on empty store: %v, %v", r, err)
	}
	payload(ck, t, "snapshot-1")
	if got := readBack(t, ck); got != "snapshot-1" {
		t.Fatalf("got %q", got)
	}
	payload(ck, t, "snapshot-2 (newer)")
	if got := readBack(t, ck); got != "snapshot-2 (newer)" {
		t.Fatalf("got %q after overwrite", got)
	}
	if err := ck.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Delete(); err != nil {
		t.Fatalf("Delete is not idempotent: %v", err)
	}
	if r, _ := ck.Load(); r != nil {
		r.Close()
		t.Fatal("checkpoint survives Delete")
	}
}

// TestCheckpointSaveFailureKeepsPrevious: a Save whose writer fails
// must leave the previous snapshot untouched (the atomicity contract
// the explorer's crash-safety rests on).
func TestCheckpointSaveFailureKeepsPrevious(t *testing.T) {
	st := open(t)
	ck := st.Checkpoint(strings.Repeat("cd", 32))
	payload(ck, t, "good")
	err := ck.Save(func(w io.Writer) error {
		io.WriteString(w, "half a snapsh")
		return io.ErrUnexpectedEOF
	})
	if err == nil {
		t.Fatal("failed write reported success")
	}
	if got := readBack(t, ck); got != "good" {
		t.Fatalf("previous snapshot clobbered: %q", got)
	}
}

// TestGCCheckpoints: checkpoints whose job has a persisted verdict are
// orphans and get collected; live ones (no verdict yet) survive, as do
// abandoned Save temp files (removed).
func TestGCCheckpoints(t *testing.T) {
	st := open(t)
	doneSpec := smallSpec()
	res, err := campaign.Execute(doneSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(doneSpec, res); err != nil {
		t.Fatal(err)
	}
	orphan := st.Checkpoint(doneSpec.Key())
	payload(orphan, t, "orphaned: the verdict exists")

	liveKey := strings.Repeat("77", 32)
	live := st.Checkpoint(liveKey)
	payload(live, t, "still running")

	// Cluster shard snapshots follow their job: a crashed coordinator's
	// leftovers go once the job has a verdict, and never before — a
	// peer sharing the directory may be mid-job.
	orphanShard := st.Checkpoint(store.ShardSnapshotKey(doneSpec.Key(), 2))
	payload(orphanShard, t, "orphaned shard")
	liveShard := st.Checkpoint(store.ShardSnapshotKey(liveKey, 0))
	payload(liveShard, t, "shard of a running job")

	// An abandoned temp file from a crashed Save.
	tmpDir := filepath.Join(st.Dir(), "checkpoints", "99")
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tmpDir, ".ckpt-12345"), []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}

	if n := st.GCCheckpoints(); n != 3 {
		t.Fatalf("GC removed %d files, want 3 (orphan + its shard + temp)", n)
	}
	for _, ck := range []*store.Checkpoint{orphan, orphanShard} {
		if r, _ := ck.Load(); r != nil {
			r.Close()
			t.Fatal("orphaned checkpoint survived GC")
		}
	}
	if got := readBack(t, live); got != "still running" {
		t.Fatalf("live checkpoint damaged by GC: %q", got)
	}
	if got := readBack(t, liveShard); got != "shard of a running job" {
		t.Fatalf("shard snapshot of a verdict-less job damaged by GC: %q", got)
	}
	if n := st.GCCheckpoints(); n != 0 {
		t.Fatalf("second GC removed %d files, want 0", n)
	}
}
