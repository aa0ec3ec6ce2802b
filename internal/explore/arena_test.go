package explore

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// TestArenaGrowsByPages: a commit that grows the arena adds at most its
// new rows plus one page to the arena's footprint (the arena's share of
// Bytes), and the pages already held neither move nor change — growth
// never copies. A spill then frees exactly the pages its ids fill
// wholly, and every id still reads back its key.
func TestArenaGrowsByPages(t *testing.T) {
	const words = 3
	rowBytes, pageBytes := int64(words*8), int64(pageStates*words*8)
	v := NewVisited(words)
	defer v.Close()
	var links TraceLinks
	rng := rand.New(rand.NewSource(1))
	var keys [][]uint64
	for _, n := range []int{10, pageStates - 10, 3*pageStates + 5, 1, pageStates} {
		for i := range n {
			key := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
			v.Probe(key, hashWords(key), uint64(i), -1, nil)
			keys = append(keys, key)
		}
		held := v.States()
		before := v.arenaBytes()
		pages := append([][]uint64(nil), v.pages...)
		kept, _, err := v.commit(1, -1, &links)
		if err != nil {
			t.Fatal(err)
		}
		if kept != n {
			t.Fatalf("committed %d of %d", kept, n)
		}
		if grew := v.arenaBytes() - before; grew > int64(n)*rowBytes+pageBytes {
			t.Fatalf("a commit of %d rows grew the arena by %d bytes, over %d rows plus one page", n, grew, n)
		}
		for i, p := range pages {
			if &v.pages[i][0] != &p[0] {
				t.Fatalf("page %d moved in a commit of %d rows onto %d", i, n, held)
			}
		}
		for id, key := range keys {
			if !wordsEqual(v.Key(int32(id)), key) {
				t.Fatalf("state %d reads %x, want %x", id, v.Key(int32(id)), key)
			}
		}
	}

	hotFrom := int32(2*pageStates + 7)
	v.EnableArenaSpill(t.TempDir(), 1)
	if err := v.Housekeep(hotFrom); err != nil {
		t.Fatal(err)
	}
	if got, want := v.SpilledBytes(), int64(hotFrom)*rowBytes; got != want {
		t.Fatalf("spilled %d bytes, want exactly ids below %d: %d", got, hotFrom, want)
	}
	for i, p := range v.pages {
		if freed := p == nil; freed != (i < int(hotFrom)>>pageShift) {
			t.Fatalf("page %d freed=%v after a spill below id %d", i, freed, hotFrom)
		}
	}
	for id, key := range keys {
		if !wordsEqual(v.Key(int32(id)), key) {
			t.Fatalf("state %d reads %x after the spill, want %x", id, v.Key(int32(id)), key)
		}
	}
}

// TestArenaSpillBytesUnchanged pins the spill trigger through the
// paged arena: CC2 · ring:4 · cc under a 1 MiB budget spills exactly
// the 992,768 arena bytes it spilled when the arena was one slice (the
// trigger still counts (States − baseID) rows, not pages), at any
// worker count.
func TestArenaSpillBytesUnchanged(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(4), CCOptions{Init: InitCC})
	for _, workers := range []int{1, 3} {
		var st RunStats
		res := Explore(factory, Options{
			Mode: sim.SelectCentral, Workers: workers, CheckDeadlock: true, CheckClosure: true,
			MemBudget: 1 << 20, SpillDir: t.TempDir(), Stats: &st,
		})
		if res.States != 78_386 || !res.Ok() || st.ArenaSpilledBytes != 992_768 {
			t.Fatalf("-j %d: %s, %d arena bytes spilled; want 78,386 states verified and 992,768 bytes", workers, res.Summary(), st.ArenaSpilledBytes)
		}
	}
}
