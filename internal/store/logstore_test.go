package store_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/store"
)

// Log-engine structural tests: segment framing, torn tails,
// mid-segment corruption, rotation, and compaction. The cross-engine
// semantics live in engine_test.go; this file pokes at the segment
// files directly.

func openLog(t *testing.T) *store.LogStore {
	t.Helper()
	st, err := store.OpenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.AutoCompact = false
	t.Cleanup(func() { st.Close() })
	return st
}

// segFiles lists the segment files on disk, sorted by name.
func segFiles(t *testing.T, st *store.LogStore) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(st.Dir(), "segments"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	return names
}

// fillLog puts n fabricated verdicts and returns their keys and raw
// bytes.
func fillLog(t *testing.T, st *store.LogStore, n int) ([]string, map[string][]byte) {
	t.Helper()
	keys := make([]string, n)
	raws := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		spec := seedSpec(i)
		raw, err := st.Put(spec, fakeResult(100+i, false))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = spec.Key()
		raws[spec.Key()] = raw
	}
	return keys, raws
}

// TestLogTornTailDroppedOnReopen: a crash mid-append leaves a partial
// frame at the segment tail; reopening drops it silently (no
// quarantine — it is the expected crash artifact), serves every intact
// record, and the lost key recomputes via a fresh Put.
func TestLogTornTailDroppedOnReopen(t *testing.T) {
	st := openLog(t)
	keys, raws := fillLog(t, st, 3)
	dir := st.Dir()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: keep the first two records plus half of the third.
	seg := filepath.Join(dir, "segments", segFiles(t, st)[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recLen := len(data) / 3
	cut := 2*recLen + recLen/2
	if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("Len = %d after torn tail, want 2", st2.Len())
	}
	for _, key := range keys[:2] {
		if _, _, raw, ok := st2.GetByKey(key); !ok || !bytes.Equal(raw, raws[key]) {
			t.Fatalf("intact record %s lost or mutated", key[:8])
		}
	}
	if _, _, _, ok := st2.GetByKey(keys[2]); ok {
		t.Fatal("torn record served")
	}
	if st2.Quarantined() != 0 {
		t.Fatal("a torn tail is a crash artifact, not corruption — nothing to quarantine")
	}
	// The key recomputes: a fresh Put serves the same bytes as before.
	raw, err := st2.Put(seedSpec(2), fakeResult(102, false))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raws[keys[2]]) {
		t.Fatal("repaired record bytes differ")
	}
}

// TestLogMidSegmentCorruptionQuarantined: damage before the tail is
// corruption, not a crash artifact — the scan keeps the good prefix,
// quarantines the remainder as a specimen, and the lost keys miss.
func TestLogMidSegmentCorruptionQuarantined(t *testing.T) {
	st := openLog(t)
	keys, raws := fillLog(t, st, 3)
	dir := st.Dir()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "segments", segFiles(t, st)[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the second record's payload.
	recLen := len(data) / 3
	data[recLen+recLen/2] ^= 0x10
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 1 {
		t.Fatalf("Len = %d after mid-segment damage, want 1 (the good prefix)", st2.Len())
	}
	if _, _, raw, ok := st2.GetByKey(keys[0]); !ok || !bytes.Equal(raw, raws[keys[0]]) {
		t.Fatal("record before the damage lost")
	}
	for _, key := range keys[1:] {
		if _, _, _, ok := st2.GetByKey(key); ok {
			t.Fatalf("record at/after the damage served: %s", key[:8])
		}
	}
	if st2.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1 specimen", st2.Quarantined())
	}
	// The specimen names the segment and offset it came from.
	qdir := filepath.Join(dir, store.QuarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("quarantine dir: %v %v", entries, err)
	}
	if !strings.Contains(entries[0].Name(), ".seg@") {
		t.Fatalf("specimen %q does not name its segment@offset", entries[0].Name())
	}
}

// TestLogSegmentRotation: a tiny segment cap produces many segments;
// reopen indexes them all and later segments supersede earlier ones.
func TestLogSegmentRotation(t *testing.T) {
	st := openLog(t)
	st.SegmentMaxBytes = 1 // rotate after every record
	keys, raws := fillLog(t, st, 5)
	// Overwrite key 0 so a later segment supersedes an earlier one.
	raw2, err := st.Put(seedSpec(0), fakeResult(999, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(segFiles(t, st)) != 6 {
		t.Fatalf("%d segments, want 6", len(segFiles(t, st)))
	}
	dir := st.Dir()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 5 {
		t.Fatalf("Len = %d, want 5", st2.Len())
	}
	if _, _, raw, ok := st2.GetByKey(keys[0]); !ok || !bytes.Equal(raw, raw2) {
		t.Fatal("the superseding record did not win across reopen")
	}
	for _, key := range keys[1:] {
		if _, _, raw, ok := st2.GetByKey(key); !ok || !bytes.Equal(raw, raws[key]) {
			t.Fatalf("record %s lost across rotation+reopen", key[:8])
		}
	}
	if st2.Stats().GarbageBytes == 0 {
		t.Fatal("superseded record not accounted as garbage")
	}
}

// TestLogCompactionPacksAndDeletes: compaction rewrites only live
// records, deletes every old segment, zeroes garbage, and a reopen of
// the compacted store serves identical bytes.
func TestLogCompactionPacksAndDeletes(t *testing.T) {
	st := openLog(t)
	st.SegmentMaxBytes = 1
	keys, raws := fillLog(t, st, 4)
	for i := 0; i < 4; i++ { // supersede everything once
		if _, err := st.Put(seedSpec(i), fakeResult(100+i, false)); err != nil {
			t.Fatal(err)
		}
	}
	before := segFiles(t, st)
	st.SegmentMaxBytes = store.DefaultSegmentMaxBytes // pack into one output
	stats, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Live != 4 || stats.Segments != 1 {
		t.Fatalf("CompactStats = %+v, want 4 live in 1 segment", stats)
	}
	after := segFiles(t, st)
	if len(after) != 1 {
		t.Fatalf("%d segments after compaction, want 1 (before: %v)", len(after), before)
	}
	if st.Stats().GarbageBytes != 0 {
		t.Fatal("garbage not zeroed by compaction")
	}
	for _, key := range keys {
		if _, _, raw, ok := st.GetByKey(key); !ok || !bytes.Equal(raw, raws[key]) {
			t.Fatalf("record %s lost or mutated by compaction", key[:8])
		}
	}
	// Puts keep working after compaction and land above the new segment.
	if _, err := st.Put(seedSpec(9), fakeResult(9, false)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 5 {
		t.Fatalf("Len = %d after post-compaction Put, want 5", st.Len())
	}
}

// TestLogAutoCompactTriggers: with a tiny garbage floor, background
// compaction kicks in once superseded bytes dominate and reclaims
// them without disturbing a single verdict.
func TestLogAutoCompactTriggers(t *testing.T) {
	st := openLog(t)
	st.AutoCompact = true
	st.CompactMinGarbage = 1
	keys, _ := fillLog(t, st, 2)
	var want [][]byte
	for i := 0; i < 2; i++ {
		raw, err := st.Put(seedSpec(i), fakeResult(500+i, false))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, raw)
	}
	// More overwrites so garbage > live regardless of scheduling.
	for round := 0; round < 4; round++ {
		for i := 0; i < 2; i++ {
			raw, err := st.Put(seedSpec(i), fakeResult(500+i, false))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = raw
		}
	}
	if err := st.Close(); err != nil { // waits for the background pass
		t.Fatal(err)
	}
	if st.Stats().Compactions == 0 {
		t.Fatal("background compaction never triggered")
	}
	st2, err := store.OpenLog(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for i, key := range keys {
		if _, _, raw, ok := st2.GetByKey(key); !ok || !bytes.Equal(raw, want[i]) {
			t.Fatalf("key %d lost or mutated across auto-compaction", i)
		}
	}
}

// TestLogSingleWriterLock: a log cache has one open handle at a time. A
// second opener — by name or by layout detection — is refused with a
// permanent, never-retried error naming the lock file, instead of both
// handles writing segments/00000000.seg and one losing its verdicts;
// once the first handle is closed the directory opens again.
func TestLogSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	st, err := store.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Before the first verdict as after it: a layout-detecting open of a
	// fresh, held log cache must not fall back to an unlocked dir store.
	refused := func(stage string) {
		t.Helper()
		for _, open := range []func() (store.Interface, error){
			func() (store.Interface, error) { return store.OpenLog(dir) },
			func() (store.Interface, error) { return store.OpenEngine("", dir, nil) },
		} {
			second, err := open()
			var locked *store.LockedError
			if !errors.As(err, &locked) {
				if second != nil {
					second.Close()
				}
				t.Fatalf("%s: second opener of a held log cache: err = %v, want a *store.LockedError", stage, err)
			}
			if chaos.Classify(err) != chaos.Permanent {
				t.Fatalf("%s: lock refusal classified %v, want permanent", stage, chaos.Classify(err))
			}
			lock := filepath.Join(dir, "LOCK")
			if msg := err.Error(); !strings.Contains(msg, lock) || !strings.Contains(msg, "another process holds this log cache") {
				t.Fatalf("%s: lock refusal %q does not name %s and its holder", stage, msg, lock)
			}
		}
	}
	refused("no verdict yet")
	raw, err := st.Put(seedSpec(0), fakeResult(7, false))
	if err != nil {
		t.Fatal(err)
	}
	refused("one verdict")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.OpenLog(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer st2.Close()
	if _, _, got, ok := st2.GetByKey(seedSpec(0).Key()); !ok || !bytes.Equal(got, raw) {
		t.Fatal("the first handle's verdict did not survive its Close")
	}
}

// TestLogConcurrentReadsDuringCompaction: readers racing Puts and an
// explicit compaction see only complete, correct entries, and never a
// miss — every key stays present throughout (run under -race in CI's
// store shard).
func TestLogConcurrentReadsDuringCompaction(t *testing.T) {
	st := openLog(t)
	keys, raws := fillLog(t, st, 8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[(g+i)%len(keys)]
				if _, _, raw, ok := st.GetByKey(key); !ok || !bytes.Equal(raw, raws[key]) {
					t.Errorf("reader %d: %s missed or served wrong bytes (ok=%v)", g, key[:8], ok)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if _, err := st.Put(seedSpec(i%8), fakeResult(100+i%8, false)); err != nil {
			t.Error(err)
		}
		if i%5 == 4 {
			if _, err := st.Compact(); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestLogReadsNeverMissDuringCompactions: readers racing back-to-back
// compactions, each of which deletes the segments the readers' index
// lookups named and closes their held read handles, still find every
// key that stays present.
func TestLogReadsNeverMissDuringCompactions(t *testing.T) {
	st := openLog(t)
	keys, raws := fillLog(t, st, 8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[(g+i)%len(keys)]
				if _, _, raw, ok := st.GetByKey(key); !ok || !bytes.Equal(raw, raws[key]) {
					t.Errorf("reader %d: %s missed or served wrong bytes (ok=%v)", g, key[:8], ok)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if _, err := st.Compact(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLogReadHandlesTrackLiveSegments: the engine holds at most one
// read handle per live segment across compactions (the handles of
// deleted segments are closed), and Close releases all of them.
func TestLogReadHandlesTrackLiveSegments(t *testing.T) {
	st := openLog(t)
	st.SegmentMaxBytes = 1024 // several segments
	keys, raws := fillLog(t, st, 8)
	readAll := func(round int) {
		t.Helper()
		for _, key := range keys {
			if _, _, raw, ok := st.GetByKey(key); !ok || !bytes.Equal(raw, raws[key]) {
				t.Fatalf("round %d: %s missed or served wrong bytes", round, key[:8])
			}
		}
		if open, live := st.OpenReaders(), st.Stats().Segments; open == 0 || open > live {
			t.Fatalf("round %d: %d read handles open over %d live segments", round, open, live)
		}
	}
	readAll(0)
	for round := 1; round <= 5; round++ {
		for i := 0; i < 8; i++ { // supersede every record, so compaction rewrites them all
			if _, err := st.Put(seedSpec(i), fakeResult(100+i, false)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		readAll(round)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if open := st.OpenReaders(); open != 0 {
		t.Fatalf("Close left %d read handles open", open)
	}
}

// openCounter counts the segment opens that reach the filesystem.
type openCounter struct {
	chaos.FS
	opens int
}

func (c *openCounter) Open(name string) (chaos.File, error) {
	c.opens++
	return c.FS.Open(name)
}

// TestLogReadFaultDropsHandle: a transient fault on a held handle's
// ReadAt drops the handle, and the retry reopens the segment and reads
// the right bytes.
func TestLogReadFaultDropsHandle(t *testing.T) {
	ffs := chaos.NewFaultFS(nil, chaos.Faults{})
	fsys := &openCounter{FS: ffs}
	st, err := store.OpenLogFS(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys, raws := fillLog(t, st, 1)
	key := keys[0]
	for i := 0; i < 2; i++ { // read op 1 opens the segment; ops 2 and 3 are ReadAts
		if _, _, raw, ok := st.GetByKey(key); !ok || !bytes.Equal(raw, raws[key]) {
			t.Fatalf("read %d missed or served wrong bytes", i)
		}
	}
	if fsys.opens != 1 {
		t.Fatalf("two reads opened the segment %d times, want 1 (one held handle)", fsys.opens)
	}
	ffs.SetFaults(chaos.Faults{FailReadAt: 4}) // the next ReadAt fails with EIO
	if _, _, raw, ok := st.GetByKey(key); !ok || !bytes.Equal(raw, raws[key]) {
		t.Fatal("the retry after a transient read fault missed or served wrong bytes")
	}
	if got := ffs.Stats()["read"]; got != 1 {
		t.Fatalf("injected %d read faults, want 1", got)
	}
	if fsys.opens != 2 {
		t.Fatalf("segment opened %d times, want 2: the faulted handle must be dropped and reopened", fsys.opens)
	}
	if open := st.OpenReaders(); open != 1 {
		t.Fatalf("%d read handles open after the retry, want 1", open)
	}
}

// TestLogBitFlipUnderHeldHandleQuarantined: a record damaged at rest
// after its segment's read handle was opened is still caught by the
// frame checksum on the next read through that handle, quarantined,
// and repaired by the next Put.
func TestLogBitFlipUnderHeldHandleQuarantined(t *testing.T) {
	st := openLog(t)
	keys, raws := fillLog(t, st, 1)
	key := keys[0]
	if _, _, _, ok := st.GetByKey(key); !ok {
		t.Fatal("first read missed")
	}
	if st.OpenReaders() != 1 {
		t.Fatal("the first read did not leave a held handle")
	}
	seg := filepath.Join(st.Dir(), "segments", segFiles(t, st)[0])
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 60); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b, 60); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, _, ok := st.GetByKey(key); ok {
		t.Fatal("a bit-flipped record was served through a held handle")
	}
	if st.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined())
	}
	if _, err := st.Put(seedSpec(0), fakeResult(100, false)); err != nil {
		t.Fatal(err)
	}
	if _, _, raw, ok := st.GetByKey(key); !ok || !bytes.Equal(raw, raws[key]) {
		t.Fatal("the repair Put is not served")
	}
}
