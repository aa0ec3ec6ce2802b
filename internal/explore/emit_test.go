package explore

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// extent is a byte range of the heap, named for the failure message.
type extent struct {
	name   string
	lo, hi uintptr // [lo, hi)
}

// sliceExtents lists the backing array (to capacity) of every slice
// field of the struct p points to, unexported ones included.
func sliceExtents(owner string, p any) []extent {
	v := reflect.ValueOf(p).Elem()
	var out []extent
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice || f.Cap() == 0 {
			continue
		}
		lo := f.Pointer()
		out = append(out, extent{
			owner + "." + v.Type().Field(i).Name,
			lo, lo + uintptr(f.Cap())*f.Type().Elem().Size(),
		})
	}
	return out
}

// TestWorkerScratchCacheLines keeps the false-sharing fix fixed: two
// worker states built back to back, as ExploreCtx and NewPeer build
// them, for the explore-wide cell (cc1/triples:3) must not have any
// scratch — the structs themselves, their report slots, any slice of
// either or of their core.Kernels and local-transition caches — on a
// 64-byte line the other worker's scratch also touches. At seven
// processes and five committees nearly every one of these slices is
// smaller than a line, so made with plain make they pack several to a
// line next to whatever the allocator hands out next; which neighbours
// they get varies from run to run, so the test also pins the property
// that rules a neighbour out: each backing array is a whole number of
// lines.
func TestWorkerScratchCacheLines(t *testing.T) {
	factory := mustCC(t, core.CC1, hypergraph.ChainOfTriples(3), CCOptions{Init: InitLegit})
	opts := &Options{Mode: sim.SelectAllSubsets, CheckDeadlock: true, CheckClosure: true}
	const line = 64
	var per [2][]extent
	for w := range per {
		ws := newWorkerState(factory(), opts)
		k, ok := ws.bkern.(*core.Kernel)
		if !ok {
			t.Fatalf("worker %d: batch kernel is %T, want *core.Kernel", w, ws.bkern)
		}
		if ws.local == nil {
			t.Fatalf("worker %d: no local-transition cache", w)
		}
		name := fmt.Sprintf("worker%d", w)
		per[w] = append(sliceExtents(name, ws), sliceExtents(name+".kernel", k)...)
		per[w] = append(per[w], sliceExtents(name+".local", ws.local)...)
		for _, x := range per[w] {
			if (x.hi-x.lo)%line != 0 {
				t.Errorf("%s: %d-byte backing array is not a whole number of cache lines", x.name, x.hi-x.lo)
			}
		}
		ext := func(name string, p unsafe.Pointer, size uintptr) extent {
			return extent{name, uintptr(p), uintptr(p) + size}
		}
		per[w] = append(per[w],
			ext(name, unsafe.Pointer(ws), unsafe.Sizeof(*ws)),
			ext(name+".kernel", unsafe.Pointer(k), unsafe.Sizeof(*k)),
			ext(name+".local", unsafe.Pointer(ws.local), unsafe.Sizeof(*ws.local)),
			ext(name+".rep", unsafe.Pointer(&ws.rep), unsafe.Sizeof(ws.rep)))
	}
	for _, a := range per[0] {
		for _, b := range per[1] {
			if a.lo/line <= (b.hi-1)/line && b.lo/line <= (a.hi-1)/line {
				t.Errorf("%s [%#x,%#x) and %s [%#x,%#x) share a cache line", a.name, a.lo, a.hi, b.name, b.lo, b.hi)
			}
		}
	}
}

// TestSuccFilterRules pins the filter's two skip rules and nothing more:
// anything it cannot prove a no-op is forwarded.
func TestSuccFilterRules(t *testing.T) {
	shrinkFilter(t, 1) // every key shares the one slot
	f := newSuccFilter(2)
	f.tag = 1
	k1, k2 := []uint64{7, 1}, []uint64{7, 2} // differ in the last word only
	for _, step := range []struct {
		what string
		key  []uint64
		pos  uint64
		tag  uint64
		skip bool
	}{
		{"first proposal", k1, 5, 1, false},
		{"same layer, larger position: the min-merge would discard it", k1, 9, 1, true},
		{"same layer, smaller position: it must reach the merge", k1, 3, 1, false},
		{"…and is what later proposals are now measured against", k1, 4, 1, true},
		{"later layer: the key was committed, whatever the position", k1, 0, 2, true},
		{"same hash, different key: compared word for word", k2, 9, 2, false},
		{"k1 was evicted by k2: forwarded again", k1, 9, 2, false},
	} {
		f.tag = step.tag
		if got := f.seen(step.key, 42, step.pos); got != step.skip {
			t.Fatalf("%s: seen(%v, pos %d) in layer %d = %v, want %v", step.what, step.key, step.pos, step.tag, got, step.skip)
		}
	}
}

// filteredWorker is a lone worker state (sole owner of vs's stripes)
// with a live successor filter, one layer open.
func filteredWorker(t *testing.T, opts *Options) (*workerState[core.State], *Visited) {
	ws := newWorkerState(mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCC})(), opts)
	ws.filter = newSuccFilter(ws.model.Codec.Words)
	ws.beginLayer(0)
	vs := NewVisited(ws.model.Codec.Words)
	vs.SetSerial(true)
	t.Cleanup(vs.Close)
	return ws, vs
}

// TestEmitSmallerPositionWinsMerge: positions are not monotone per
// worker on a peer hosting several shards, so a key the filter has seen
// from item 5 may be re-derived from item 2 — that proposal must get
// through and must become the pending entry's parent.
func TestEmitSmallerPositionWinsMerge(t *testing.T) {
	ws, vs := filteredWorker(t, &Options{})
	key := make([]uint64, ws.model.Codec.Words)
	key[0] = 0xabc
	var agg LayerReport
	for _, e := range []struct {
		id   int32
		item int
	}{{70, 5}, {30, 2}, {90, 9}} {
		ws.open(vs, &agg, e.id, e.item)
		ws.emit(key)
	}
	fresh := vs.Drain()
	if len(fresh) != 1 {
		t.Fatalf("%d pending entries, want 1", len(fresh))
	}
	if f := fresh[0]; f.Pos != 2<<32 || f.Parent != 30 {
		t.Fatalf("pending entry is (pos %#x, parent %d), want the item-2 proposal (pos %#x, parent 30)",
			f.Pos, f.Parent, uint64(2<<32))
	}
}

// TestEmitAtCapBypassesFilter: a key the filter remembers forwarding may
// be one the state bound then dropped. In the at-cap layers that follow
// it must still be reported as a miss — the truncation flag is part of
// the verdict.
func TestEmitAtCapBypassesFilter(t *testing.T) {
	opts := &Options{MaxStates: 1}
	ws, vs := filteredWorker(t, opts)
	words := ws.model.Codec.Words
	kept, dropped := make([]uint64, words), make([]uint64, words)
	kept[0], dropped[0] = 1, 2
	var agg LayerReport
	ws.open(vs, &agg, -1, 0)
	ws.emit(kept)
	ws.emit(dropped)
	fresh := vs.Drain()
	if len(fresh) != 2 {
		t.Fatalf("%d pending entries, want 2", len(fresh))
	}
	if _, _, err := vs.commit(1, 1, &TraceLinks{}); err != nil { // promote the first, drop the second
		t.Fatal(err)
	}

	ws.beginLayer(0)
	ws.open(vs, &agg, 0, 0)
	if !ws.curAtCap {
		t.Fatal("layer after the bound was hit is not at cap")
	}
	ws.emit(kept)
	if agg.Truncated {
		t.Fatal("a promoted key reported as a miss")
	}
	ws.emit(dropped)
	if !agg.Truncated {
		t.Fatal("the dropped key was swallowed: the at-cap path consulted the filter")
	}
	if vs.Pending() != 0 {
		t.Fatal("an at-cap layer inserted a pending entry")
	}
}

// TestRouteBufferHandOff drives the owner hand-off by hand: two workers
// sharing one set each emit a key the other owns; until the owners drain
// neither key is in the set, afterwards both are, with the proposer's
// position, parent and selection intact.
func TestRouteBufferHandOff(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCC})
	opts := &Options{}
	wss := []*workerState[core.State]{newWorkerState(factory(), opts), newWorkerState(factory(), opts)}
	shareStripes(wss)
	words := wss[0].model.Codec.Words
	vs := NewVisited(words)
	defer vs.Close()
	ownerOf := func(key []uint64) int {
		return int(hashWords(key)&vs.smask) * len(wss) >> vs.shardShift
	}
	// One key per owner, found by search.
	keys := make([][]uint64, len(wss))
	for x := uint64(1); keys[0] == nil || keys[1] == nil; x++ {
		k := make([]uint64, words)
		k[0] = x
		if o := ownerOf(k); keys[o] == nil {
			keys[o] = k
		}
	}
	var agg LayerReport
	for w, ws := range wss {
		foreign := keys[1-w]
		ws.open(vs, &agg, int32(10+w), w)
		ws.emit(foreign)
		if ws.routed != 1 || vs.Contains(foreign, hashWords(foreign)) {
			t.Fatalf("worker %d probed a stripe it does not own (routed %d)", w, ws.routed)
		}
	}
	for owner := range wss {
		for _, ws := range wss {
			ws.route[owner].drainInto(vs)
		}
	}
	fresh := vs.Drain()
	if len(fresh) != 2 {
		t.Fatalf("%d pending entries after the drain, want 2", len(fresh))
	}
	for w, f := range fresh { // drained in position order: worker w proposed at item w
		if f.Pos != uint64(w)<<32 || f.Parent != int32(10+w) {
			t.Fatalf("entry %d is (pos %#x, parent %d)", w, f.Pos, f.Parent)
		}
		if key := vs.shards[f.shard].pend[f.pidx].key; !wordsEqual(key, keys[1-w]) {
			t.Fatalf("entry %d holds key %v, want %v", w, key, keys[1-w])
		}
	}
	for _, ws := range wss {
		for o := range ws.route {
			if len(ws.route[o].recs) != 0 {
				t.Fatal("a drained route buffer is not empty")
			}
		}
	}
}
