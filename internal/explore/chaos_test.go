package explore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
)

// findSpillFile locates the single spill artifact matching pattern
// under dir (recursively — open-queue segments live in a nested
// cc-frontier-* directory).
func findSpillFile(t *testing.T, dir, pattern string) string {
	t.Helper()
	var found string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if ok, _ := filepath.Match(pattern, d.Name()); ok {
			found = path
		}
		return nil
	})
	if found == "" {
		t.Fatalf("no spill file matching %q under %s", pattern, dir)
	}
	return found
}

// spillVisited builds a Visited with nstates promoted two-word keys
// and forces ids below hotFrom onto the arena spill file.
func spillVisited(t *testing.T, dir string, fsys chaos.FS, nstates int, hotFrom int32) *Visited {
	t.Helper()
	v := NewVisited(2)
	v.SetSerial(true)
	v.EnableArenaSpill(dir, 1024)
	if fsys != nil {
		v.SetFS(fsys)
	}
	for i := 0; i < nstates; i++ {
		key := []uint64{uint64(i), uint64(i) ^ 0xabc}
		v.Probe(key, hashWords(key), uint64(i), -1, nil)
	}
	for _, fr := range v.Drain() {
		v.Promote(fr)
	}
	v.Reset()
	if err := v.Housekeep(hotFrom); err != nil {
		t.Fatal(err)
	}
	if v.SpilledBytes() == 0 {
		t.Fatal("arena did not spill")
	}
	return v
}

// coldKey reads a spilled key, converting the internal ioPanic that
// carries classified read failures back into an error.
func coldKey(v *Visited, id int32) (key []uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			ip, ok := r.(ioPanic)
			if !ok {
				panic(r)
			}
			err = ip.err
		}
	}()
	return v.Key(id), nil
}

// TestArenaColdReadCorruption: a bit flip in a spilled arena record is
// caught by the per-record checksum and surfaces as a classified
// *chaos.CorruptError — never a wrong key, which would silently merge
// distinct states and corrupt the verdict.
func TestArenaColdReadCorruption(t *testing.T) {
	dir := t.TempDir()
	v := spillVisited(t, dir, nil, 1000, 900)
	// Undamaged cold reads round-trip exactly.
	got, err := coldKey(v, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 20 || got[1] != 20^0xabc {
		t.Fatalf("cold key 20 = %v", got)
	}
	// Flip one payload bit in record 10.
	spill := findSpillFile(t, dir, "cc-arena-*")
	fh, err := os.OpenFile(spill, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := v.recSize()
	buf := []byte{0}
	if _, err := fh.ReadAt(buf, 10*rec+3); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x10
	if _, err := fh.WriteAt(buf, 10*rec+3); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	if _, err := coldKey(v, 10); err == nil {
		t.Fatal("corrupted arena record read back as a valid key")
	} else {
		var ce *chaos.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("cold read error %v is not a CorruptError", err)
		}
	}
	// Neighbouring records are untouched: damage is contained to the
	// record whose checksum failed.
	if got, err := coldKey(v, 11); err != nil || got[0] != 11 {
		t.Fatalf("record 11 damaged by record 10's corruption: %v %v", got, err)
	}
}

// TestArenaColdReadRetriesTransient: a one-shot EIO on the spill-file
// read is retried in place; the key still comes back exact.
func TestArenaColdReadRetriesTransient(t *testing.T) {
	ffs := chaos.NewFaultFS(nil, chaos.Faults{})
	v := spillVisited(t, t.TempDir(), ffs, 1000, 900)
	ffs.SetFaults(chaos.Faults{FailReadAt: 1})
	got, err := coldKey(v, 42)
	if err != nil {
		t.Fatalf("cold read did not retry a transient fault: %v", err)
	}
	if got[0] != 42 || got[1] != 42^0xabc {
		t.Fatalf("cold key 42 = %v", got)
	}
	if ffs.Stats()["read"] == 0 {
		t.Fatal("fault was not injected — the test exercised nothing")
	}
}

// TestTableRebuildReadsNoKeys: stripes grow and the table re-shards by
// slot tag alone, so with every spill-file read failing permanently
// neither reads a key back — no I/O panic, no read attempted — and once
// the disk heals every cold and hot key still answers with its id.
func TestTableRebuildReadsNoKeys(t *testing.T) {
	ffs := chaos.NewFaultFS(nil, chaos.Faults{})
	v := spillVisited(t, t.TempDir(), ffs, 1000, 900)
	defer v.Close()
	ffs.SetFaults(chaos.Faults{ReadErr: 1, Permanent: 1})
	old := reshardPerShard
	reshardPerShard = 64
	defer func() { reshardPerShard = old }()

	key := func(i int) []uint64 { return []uint64{uint64(i), uint64(i) ^ 0xabc} }
	const n = 8000
	grown := false
	err := func() (err error) {
		defer catchIO(&err)
		for i := 1000; i < n; i++ {
			v.Probe(key(i), hashWords(key(i)), uint64(i), -1, nil)
		}
		for i := range v.shards {
			grown = grown || len(v.shards[i].slots) > 64
		}
		for _, fr := range v.Drain() {
			v.Promote(fr)
		}
		v.Reset()
		return v.Housekeep(7000)
	}()
	if err != nil {
		t.Fatalf("table rebuild read the spill file: %v", err)
	}
	if !grown || len(v.shards) == 64 {
		t.Fatalf("stripes grown %t, shards %d: the test exercised nothing", grown, len(v.shards))
	}
	if got := ffs.Stats()["read"]; got != 0 {
		t.Fatalf("%d spill-file reads attempted during growth and re-sharding", got)
	}

	ffs.SetFaults(chaos.Faults{})
	for i := 0; i < n; i++ {
		if got := v.Probe(key(i), hashWords(key(i)), ^uint64(0), -1, nil); got != int32(i) {
			t.Fatalf("key %d probes back as %d", i, got)
		}
	}
	if v.baseID != 7000 {
		t.Fatalf("hot watermark %d, want 7000", v.baseID)
	}
}
