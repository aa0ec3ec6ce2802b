package explore

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// TestFamilyMemberIsTheIndex: a registered family names every
// configuration of the product by its stream index below the cut, and
// nothing else: not the configurations past the cut, and not a key one
// bit off a configuration unless that key is itself a kept one.
func TestFamilyMemberIsTheIndex(t *testing.T) {
	m := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCC})()
	const kept = 500 // of 729
	var keys [][]uint64
	index := map[[2]uint64]int32{}
	m.Inits(func(cfg []core.State) bool {
		key := make([]uint64, m.Codec.Words)
		m.Codec.Encode(key, cfg)
		index[[2]uint64(append(slices.Clone(key), 0, 0)[:2])] = int32(len(keys))
		keys = append(keys, key)
		return true
	})
	if len(keys) != 729 || m.Codec.Words > 2 {
		t.Fatalf("the ring:3 cc family streamed %d configurations of %d words, want 729 of at most 2", len(keys), m.Codec.Words)
	}
	f := newFamily(m.Codec.ProcOff, m.Codec.ProcBits, procTables(&m.Codec, m.InitDomains), keys[0], kept)
	want := func(key []uint64) int32 {
		if i, ok := index[[2]uint64(append(slices.Clone(key), 0, 0)[:2])]; ok && i < kept {
			return i
		}
		return -1
	}
	for i, key := range keys {
		if got := f.member(key); got != want(key) {
			t.Fatalf("configuration %d: member %d, want %d", i, got, want(key))
		}
		for b := range 64 * len(key) {
			key[b/64] ^= 1 << (b % 64)
			if got := f.member(key); got != want(key) {
				t.Fatalf("configuration %d with bit %d flipped: member %d, want %d", i, b, got, want(key))
			}
			key[b/64] ^= 1 << (b % 64)
		}
	}
}

// TestCheckpointV4FamilyResumes: a version 4 snapshot written when the
// seed layer still held a slot and a link per init (testdata: CC2 ·
// ring:4 · cc · central, taken mid seed layer — 4,096 of its 6,561
// inits expanded, 1,815 successors pending) resumes, at one worker and
// at three, to the uninterrupted run's exact report, and the restored
// family holds no slot and no link storage.
func TestCheckpointV4FamilyResumes(t *testing.T) {
	f, err := os.Open("testdata/checkpoint_v4_family.bin.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, checkpointMagic[:]) {
		t.Fatalf("testdata/checkpoint_v4_family.bin.gz starts %q, want the version 4 magic", data[:8])
	}
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(4), CCOptions{Init: InitCC})
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true}
	want := normJSON(t, Explore(factory, opts))
	for _, workers := range []int{1, 3} {
		o := opts
		o.Workers = workers
		o.Checkpoint = &memCheckpointer{data: data}
		b := newLocalBackend(factory, o)
		resumed, err := b.restore()
		if err != nil || !resumed {
			t.Fatalf("-j %d: the checkpoint did not resume (%v)", workers, err)
		}
		if b.vs.States() != 6561 || b.vs.fam.len() != 6561 || b.run.done != 4096 || b.vs.Pending() != 1815 {
			t.Fatalf("-j %d: restored %d states, a family of %d, %d expanded, %d pending; want 6561, 6561, 4096, 1815",
				workers, b.vs.States(), b.vs.fam.len(), b.run.done, b.vs.Pending())
		}
		if n := promotedSlots(b.vs); n != 0 || len(b.run.links.parent) != 0 {
			t.Fatalf("-j %d: the restored family holds %d slots and %d link blocks", workers, n, len(b.run.links.parent))
		}
		err = b.run.run(context.Background(), b, true)
		b.vs.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := normJSON(t, b.run.res); !bytes.Equal(got, want) {
			t.Fatalf("-j %d: the resumed report differs from the uninterrupted run:\n%s\nvs\n%s", workers, got, want)
		}
	}
}
