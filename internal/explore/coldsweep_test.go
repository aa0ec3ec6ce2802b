package explore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The cold sweep: a production probe that meets a spilled id's hash tag
// — a stripe owner's, or the locked propose of a cluster peer, a seed
// or a restore — defers the proposal, and the commit (or a checkpoint)
// settles it by reading the spill file in sorted ranges. These tests
// pin what that must not change: a true duplicate of a spilled state
// vanishes, a tag collision is promoted exactly where an immediate
// compare would have put it, and a snapshot taken while proposals are
// deferred loses none.

// tagTwins returns two distinct one-word keys whose hashes share their
// low 32 bits — the tag a promoted slot keeps — found by a birthday
// search over small keys (about 2^16 of them).
func tagTwins(t *testing.T) (a, b uint64) {
	t.Helper()
	seen := map[uint32]uint64{}
	for k := uint64(1); k < 1<<22; k++ {
		tag := uint32(hashWords([]uint64{k}))
		if prev, ok := seen[tag]; ok {
			return prev, k
		}
		seen[tag] = k
	}
	t.Fatal("no tag collision among 2^22 keys")
	return 0, 0
}

// TestColdCollisionSettles is the Visited-level check: two keys with
// one hash are spilled, then other keys with that hash — one of them a
// spilled key itself — are proposed on the owner path and through
// propose. Nothing is read from the spill file until the commit; after
// it the true duplicate has vanished and every collision is promoted at
// the rank of its least position, with that position's parent, on one
// owner or two. A proposal is deferred under the first spilled key of
// its chain, so a duplicate of the second is found by the re-probe.
func TestColdCollisionSettles(t *testing.T) {
	const words = 2
	const hash = 0x9e3779b97f4a7c15                 // shared by every key below
	spilled, twin := []uint64{7, 7}, []uint64{7, 6} // ids 0 and 2
	type prop struct {
		key    []uint64
		hash   uint64
		pos    uint64
		parent int32
	}
	other := prop{[]uint64{3, 1}, 0x0123456789abcdef, 4, 11} // a fresh key with a hash of its own
	cases := []struct {
		name  string
		props []prop
		want  [][]uint64 // promoted keys, in id order
		par   []int32    // their parents
	}{
		{
			name: "collision once",
			props: []prop{
				{spilled, hash, 1, 10},
				{[]uint64{7, 8}, hash, 5, 12},
				other,
			},
			want: [][]uint64{other.key, {7, 8}},
			par:  []int32{11, 12},
		},
		{
			name: "collision twice: the least position wins",
			props: []prop{
				{[]uint64{7, 8}, hash, 5, 12},
				other,
				{spilled, hash, 6, 10},
				{[]uint64{7, 8}, hash, 2, 13},
			},
			want: [][]uint64{{7, 8}, other.key},
			par:  []int32{13, 11},
		},
		{
			name: "two collisions, one duplicate",
			props: []prop{
				{[]uint64{9, 9}, hash, 8, 14},
				{spilled, hash, 0, 10},
				{[]uint64{7, 8}, hash, 3, 12},
			},
			want: [][]uint64{{7, 8}, {9, 9}},
			par:  []int32{12, 14},
		},
		{
			name: "a duplicate of the second spilled key",
			props: []prop{
				{twin, hash, 1, 10},
				{[]uint64{7, 8}, hash, 5, 12},
			},
			want: [][]uint64{{7, 8}},
			par:  []int32{12},
		},
	}
	paths := []struct {
		name  string
		probe func(v *Visited, p prop)
	}{
		{"owner", func(v *Visited, p prop) {
			v.probeStripe(&v.shards[p.hash&v.smask], p.key, p.hash, p.pos, p.parent, deferCold)
		}},
		{"propose", func(v *Visited, p prop) { v.propose(p.key, p.hash, p.pos, p.parent) }},
	}
	for _, tc := range cases {
		for _, path := range paths {
			for _, owners := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/owners:%d", tc.name, path.name, owners), func(t *testing.T) {
					v := NewVisited(words)
					v.EnableArenaSpill(t.TempDir(), 8)
					defer v.Close()
					var links TraceLinks
					v.Probe(spilled, hash, 0, -1, nil)
					v.Probe([]uint64{1, 2}, 0xfedcba9876543210, 1, -1, nil)
					v.Probe(twin, hash, 2, -1, nil)
					if _, _, err := v.commit(owners, -1, &links); err != nil {
						t.Fatal(err)
					}
					if err := v.Housekeep(int32(v.States())); err != nil {
						t.Fatal(err)
					}
					if v.SpilledBytes() == 0 {
						t.Fatal("the seed keys never spilled")
					}
					if id := v.Probe(spilled, hash, 9, -1, nil); id != 0 {
						t.Fatalf("Probe of a spilled key returned %d, want its id 0", id)
					}
					reads := v.ColdReads()
					base := v.States()
					for _, p := range tc.props {
						path.probe(v, p)
					}
					if got := v.ColdReads(); got != reads {
						t.Fatalf("the probes read the spill file %d times", got-reads)
					}
					kept, _, err := v.commit(owners, -1, &links)
					if err != nil {
						t.Fatal(err)
					}
					if kept != len(tc.want) {
						t.Fatalf("promoted %d states, want %d", kept, len(tc.want))
					}
					for i, key := range tc.want {
						id := int32(base + i)
						if got := v.Key(id); !wordsEqual(got, key) || len(got) != len(key) {
							t.Fatalf("id %d holds %v, want %v", id, got, key)
						}
						if got := links.At(int(id)); got != tc.par[i] {
							t.Fatalf("id %d has parent %d, want %d", id, got, tc.par[i])
						}
					}
					if id := v.Probe(spilled, hash, 9, -1, nil); id != 0 {
						t.Fatalf("the spilled key answers %d after the commit, want 0", id)
					}
					if id := v.Probe(twin, hash, 9, -1, nil); id != 2 {
						t.Fatalf("the second spilled key answers %d after the commit, want 2", id)
					}
				})
			}
		}
	}
}

// gridCell is one counter of the grid model below.
type gridCell uint8

func (c gridCell) Clone() gridCell { return c }

// Grid model: gridProcs counters that each step may raise by one while
// their sum stays at most gridDepth, so BFS layer d is the counters
// summing to d, and (d+1, 0, …, 0) has a single predecessor — item 0 of
// layer d. The codec packs the counters under a set top bit, except
// that it gives twinEarly (layer 1) and twinLate (the first state of
// the last layer) the two tag twins, whose top bit is clear: two distinct
// states with one tag, one spilled long before the other is proposed.
const (
	gridProcs = 6
	gridDepth = 13
)

var (
	twinEarly = [gridProcs]gridCell{0, 1}
	twinLate  = [gridProcs]gridCell{gridDepth}
)

func gridPack(cfg []gridCell) uint64 {
	var w uint64
	for p, c := range cfg {
		w |= uint64(c) << (4 * p)
	}
	return w
}

func gridModel(t *testing.T) func() *Model[gridCell] {
	keyEarly, keyLate := tagTwins(t)
	packEarly, packLate := gridPack(twinEarly[:]), gridPack(twinLate[:])
	edges := []hypergraph.Edge{}
	for p := 0; p+1 < gridProcs; p++ {
		edges = append(edges, hypergraph.Edge{p, p + 1})
	}
	h, err := hypergraph.New(gridProcs, edges)
	if err != nil {
		t.Fatal(err)
	}
	never := func([]gridCell, int) bool { return false }
	return func() *Model[gridCell] {
		return &Model[gridCell]{
			Name: "grid",
			Prog: &sim.Program[gridCell]{
				NumProcs: gridProcs,
				Actions: []sim.Action[gridCell]{{
					Name: "inc",
					Guard: func(cfg []gridCell, p int) bool {
						sum := 0
						for _, c := range cfg {
							sum += int(c)
						}
						return sum < gridDepth
					},
					Body: func(cfg []gridCell, p int, next *gridCell, _ *rand.Rand) { *next = cfg[p] + 1 },
				}},
				Init: func(int, *rand.Rand) gridCell { return 0 },
			},
			Probe: spec.Probe[gridCell]{H: h, Meets: func([]gridCell, int) bool { return false }, Waiting: never, Done: never},
			Codec: Codec[gridCell]{
				Words: 1,
				Encode: func(dst []uint64, cfg []gridCell) {
					switch w := gridPack(cfg); w {
					case packEarly:
						dst[0] = keyEarly
					case packLate:
						dst[0] = keyLate
					default:
						dst[0] = 1<<63 | w
					}
				},
				Decode: func(cfg []gridCell, src []uint64) {
					w := src[0] &^ (1 << 63)
					switch src[0] {
					case keyEarly:
						w = packEarly
					case keyLate:
						w = packLate
					}
					for p := range cfg {
						cfg[p] = gridCell(w >> (4 * p) & 15)
					}
				},
			},
			Inits: func(yield func([]gridCell) bool) { yield(make([]gridCell, gridProcs)) },
		}
	}
}

// TestCheckpointKeepsDeferredCollision resumes a spilled run from every
// snapshot it wrote, one per chunk boundary. The grid's next-to-last
// layer is two chunks wide, and its first item proposes twinLate, whose tag
// matches the long-spilled twinEarly: the snapshot between the two
// chunks is taken while that collision is deferred and nowhere else. A
// resume from it must still promote the state, so every resumed verdict
// equals the uninterrupted one.
func TestCheckpointKeepsDeferredCollision(t *testing.T) {
	factory := gridModel(t)
	states := 1 // C(gridDepth+gridProcs, gridProcs): the counters summing to at most gridDepth
	for i := 1; i <= gridProcs; i++ {
		states = states * (gridDepth + i) / i
	}
	for _, workers := range []int{1, 2} {
		opts := Options{Mode: sim.SelectCentral, Workers: workers, MemBudget: 1 << 12, SpillDir: t.TempDir()}
		var stats RunStats
		opts.Stats = &stats
		base := Explore(factory, opts)
		if base.States != states || stats.ArenaSpilledBytes == 0 {
			t.Fatalf("workers=%d: %d states (want %d), %d bytes spilled", workers, base.States, states, stats.ArenaSpilledBytes)
		}
		want := normJSON(t, base)

		rec := &memCheckpointer{record: true}
		opts.Checkpoint, opts.CheckpointEvery = rec, 1
		if got := normJSON(t, Explore(factory, opts)); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: the checkpointing run diverges:\n%s\nvs\n%s", workers, got, want)
		}
		for i, snap := range rec.history {
			o := opts
			o.SpillDir = t.TempDir()
			o.Checkpoint, o.CheckpointEvery = &memCheckpointer{data: snap}, 0
			var st RunStats
			o.Stats = &st
			res, err := ExploreCtx(context.Background(), factory, o)
			if err != nil {
				t.Fatal(err)
			}
			if st.ResumedStates == 0 {
				t.Fatalf("workers=%d: snapshot %d/%d did not resume", workers, i+1, len(rec.history))
			}
			if got := normJSON(t, res); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d: resume from snapshot %d/%d diverges:\n%s\nvs\n%s", workers, i+1, len(rec.history), got, want)
			}
		}
	}
}
