package explore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
)

func drainAll(t *testing.T, f *Frontier, chunk int) []int32 {
	t.Helper()
	var out []int32
	buf := make([]int32, 0, chunk)
	for f.Len() > 0 {
		got, err := f.PopChunk(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("frontier claims length but pops nothing")
		}
		out = append(out, got...)
	}
	return out
}

// TestFrontierFIFO: with and without spilling, ids come back in exact
// push order — the property the whole out-of-core design rests on.
func TestFrontierFIFO(t *testing.T) {
	const n = 50_000
	for _, budget := range []int64{0, 1 << 12} {
		f := NewFrontier(budget, t.TempDir(), nil)
		for i := int32(0); i < n; i++ {
			if err := f.Push(i); err != nil {
				t.Fatal(err)
			}
		}
		if f.Len() != n {
			t.Fatalf("budget %d: Len = %d, want %d", budget, f.Len(), n)
		}
		if budget > 0 && f.SpillSegments == 0 {
			t.Fatalf("budget %d: nothing spilled for %d ids", budget, n)
		}
		if budget == 0 && f.SpillSegments != 0 {
			t.Fatal("unbudgeted frontier spilled")
		}
		out := drainAll(t, f, 777) // chunk size coprime to segment sizes
		for i, id := range out {
			if id != int32(i) {
				t.Fatalf("budget %d: out[%d] = %d, want %d", budget, i, id, i)
			}
		}
		f.Close()
	}
}

// TestFrontierInterleaved: pushes interleaved with pops (the seeding
// pattern plus hypothetical future uses) stay FIFO across spills.
func TestFrontierInterleaved(t *testing.T) {
	f := NewFrontier(1<<12, t.TempDir(), nil)
	defer f.Close()
	next := int32(0)
	want := int32(0)
	buf := make([]int32, 0, 100)
	for round := 0; round < 200; round++ {
		for i := 0; i < 300; i++ {
			if err := f.Push(next); err != nil {
				t.Fatal(err)
			}
			next++
		}
		got, err := f.PopChunk(buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range got {
			if id != want {
				t.Fatalf("round %d: popped %d, want %d", round, id, want)
			}
			want++
		}
	}
	for _, id := range drainAll(t, f, 100) {
		if id != want {
			t.Fatalf("drain: popped %d, want %d", id, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d ids, pushed %d", want, next)
	}
}

// TestFrontierSegmentsDeleted: spilled segment files are removed as
// they are drained, and Close removes the rest.
func TestFrontierSegmentsDeleted(t *testing.T) {
	dir := t.TempDir()
	f := NewFrontier(1<<12, dir, nil)
	for i := int32(0); i < 20_000; i++ {
		if err := f.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	if f.SpillSegments == 0 {
		t.Fatal("no segments spilled")
	}
	count := func() int {
		n := 0
		filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				n++
			}
			return nil
		})
		return n
	}
	before := count()
	if before == 0 {
		t.Fatal("no segment files on disk")
	}
	drainAll(t, f, 4096)
	if got := count(); got != 0 {
		t.Fatalf("%d segment files survive a full drain", got)
	}

	// And Close cleans up a half-drained frontier.
	f2 := NewFrontier(1<<12, dir, nil)
	for i := int32(0); i < 20_000; i++ {
		if err := f2.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	if count() == 0 {
		t.Fatal("no segment files before Close")
	}
	f2.Close()
	if got := count(); got != 0 {
		t.Fatalf("%d segment files survive Close", got)
	}
}

// TestFrontierAppendRemaining: the checkpoint snapshot of a
// half-drained spilling frontier is exactly the undrained suffix, and
// taking it does not disturb the drain.
func TestFrontierAppendRemaining(t *testing.T) {
	const n = 30_000
	f := NewFrontier(1<<12, t.TempDir(), nil)
	defer f.Close()
	for i := int32(0); i < n; i++ {
		if err := f.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]int32, 0, 1000)
	popped := 0
	for popped < n/3 {
		got, err := f.PopChunk(buf)
		if err != nil {
			t.Fatal(err)
		}
		popped += len(got)
	}
	snap, err := f.AppendRemaining(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != n-popped {
		t.Fatalf("snapshot has %d ids, want %d", len(snap), n-popped)
	}
	for i, id := range snap {
		if id != int32(popped+i) {
			t.Fatalf("snap[%d] = %d, want %d", i, id, popped+i)
		}
	}
	rest := drainAll(t, f, 1000)
	if len(rest) != n-popped {
		t.Fatalf("drained %d ids after snapshot, want %d", len(rest), n-popped)
	}
	for i, id := range rest {
		if id != snap[i] {
			t.Fatalf("drain diverges from snapshot at %d: %d vs %d", i, id, snap[i])
		}
	}
}

// TestFrontierSegmentCorruption: a spilled segment is live,
// non-redundant queue data — damage at any structural boundary must
// surface as a classified *chaos.CorruptError with the file parked
// aside (*.quarantine), never as a silently shortened drain.
func TestFrontierSegmentCorruption(t *testing.T) {
	corrupt := func(name string, mutate func([]byte) []byte) {
		dir := t.TempDir()
		f := NewFrontier(1<<12, dir, nil)
		defer f.Close()
		for i := int32(0); i < 20_000; i++ {
			if err := f.Push(i); err != nil {
				t.Fatal(err)
			}
		}
		if f.SpillSegments == 0 {
			t.Fatalf("%s: nothing spilled", name)
		}
		seg := findSpillFile(t, dir, "seg-00000000")
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, mutate(data), 0o600); err != nil {
			t.Fatal(err)
		}
		buf := make([]int32, 0, 4096)
		var derr error
		for f.Len() > 0 && derr == nil {
			_, derr = f.PopChunk(buf)
		}
		if derr == nil {
			t.Fatalf("%s: drain succeeded through a damaged segment", name)
		}
		var ce *chaos.CorruptError
		if !errors.As(derr, &ce) {
			t.Fatalf("%s: drain error %v is not a CorruptError", name, derr)
		}
		if _, err := os.Stat(seg + ".quarantine"); err != nil {
			t.Fatalf("%s: damaged segment not quarantined: %v", name, err)
		}
	}
	corrupt("bitflip-payload", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 0x01
		return c
	})
	corrupt("bitflip-header", func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[0] ^= 0x01
		return c
	})
	corrupt("truncate-half", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("truncate-empty", func(b []byte) []byte { return nil })
}

// TestFrontierSpillRetriesTransient: a one-shot ENOSPC mid-spill is
// retried away and the drain order stays exactly push order — faults
// that heal leave no trace.
func TestFrontierSpillRetriesTransient(t *testing.T) {
	ffs := chaos.NewFaultFS(nil, chaos.Faults{FailWriteAt: 1})
	f := NewFrontier(1<<12, t.TempDir(), ffs)
	defer f.Close()
	const n = 20_000
	for i := int32(0); i < n; i++ {
		if err := f.Push(i); err != nil {
			t.Fatalf("push %d: spill did not retry a transient fault: %v", i, err)
		}
	}
	if ffs.Stats()["write"] == 0 {
		t.Fatal("fault was not injected — the test exercised nothing")
	}
	out := drainAll(t, f, 777)
	if len(out) != n {
		t.Fatalf("drained %d ids, want %d", len(out), n)
	}
	for i, id := range out {
		if id != int32(i) {
			t.Fatalf("out[%d] = %d, want %d", i, id, i)
		}
	}
}
