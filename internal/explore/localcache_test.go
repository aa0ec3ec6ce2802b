package explore

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// shrinkLocal forces every local-transition cache built until the test
// ends down to n entries (a power of two, at least 2). Like shrinkFilter: only for tests that run
// nothing in parallel.
func shrinkLocal(t *testing.T, n int) {
	old := localEntries
	localEntries = n
	t.Cleanup(func() { localEntries = old })
}

// seedLayer probes m's initial configurations into a fresh serial
// visited set and promotes them, returning their ids.
func seedLayer[S sim.Cloneable[S]](m *Model[S]) (*Visited, []int32) {
	vs := NewVisited(m.Codec.Words)
	vs.SetSerial(true)
	enc := make([]uint64, m.Codec.Words)
	seq := uint64(0)
	m.Inits(func(cfg []S) bool {
		m.Codec.Encode(enc, cfg)
		vs.Probe(enc, hashWords(enc), seq, -1, nil)
		seq++
		return true
	})
	var ids []int32
	for _, f := range vs.Drain() {
		ids = append(ids, vs.Promote(f))
	}
	vs.Reset()
	return vs, ids
}

// TestLocalCacheHitCopiedAtLookup pins the aliasing rule: a hit's move
// is copied out of the table when it is looked up, because a miss of the
// same state may be filled over it before the hit is used. With one
// two-entry bucket every process of every state shares it, so expanding
// a state a second time finds it holding the last two processes filled
// the first time (hits), while the lower processes miss and refill it
// before the hits' payloads are patched into the successor keys.
// Each expansion's successor stream must be, key for key, the one of a
// worker without a cache.
func TestLocalCacheHitCopiedAtLookup(t *testing.T) {
	shrinkLocal(t, 2)
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(4), CCOptions{Init: InitCC})
	opts := &Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true}
	cached, plain := newWorkerState(factory(), opts), newWorkerState(factory(), opts)
	if cached.local == nil || cached.local.cacheable != 0b1111 || len(cached.local.tab) != 1 {
		t.Fatal("ring:4 worker has no one-bucket cache over all four processes")
	}
	plain.local, plain.lkern = nil, nil
	var got []uint64
	// One shard, hosted nowhere: every successor reaches the sink.
	sink := &peerHooks{shards: 1, self: -1, frame: func(_ byte, _ int, key []uint64, _ uint64, _ int32) { got = append(got, key...) }}
	cached.cl, plain.cl = sink, sink

	vs, ids := seedLayer(cached.model)
	defer vs.Close()
	agg := &LayerReport{}
	aliased := 0
	for item, id := range ids[:2000] {
		got = got[:0]
		plain.expandBatch(vs, agg, id, item, 0)
		want := slices.Clone(got)
		for pass := 0; pass < 2; pass++ {
			lookups, hits := cached.local.lookups, cached.local.hits
			got = got[:0]
			cached.expandBatch(vs, agg, id, item, 0)
			if !slices.Equal(got, want) {
				t.Fatalf("state %d, pass %d: successor keys differ from the uncached worker's:\n%x\nvs\n%x", id, pass, got, want)
			}
			hits = cached.local.hits - hits
			if misses := cached.local.lookups - lookups - hits; hits > 0 && misses > 0 {
				aliased++
			}
		}
	}
	if aliased == 0 {
		t.Fatal("no expansion had a hit and a miss sharing the bucket")
	}
	if len(agg.Viols) != 0 {
		t.Fatalf("clean model produced %d violations", len(agg.Viols))
	}
}

// TestLocalCacheLookups pins who looks up: on ring:4 every process (each
// reads 3 of 4 blocks) and most lookups hit (79% at one worker); on
// ring:3 no process, since each reads the whole configuration.
func TestLocalCacheLookups(t *testing.T) {
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true, Workers: 1}
	for _, tc := range []struct {
		n    int
		want bool
	}{{4, true}, {3, false}} {
		var st RunStats
		o := opts
		o.Stats = &st
		res := Explore(mustCC(t, core.CC2, hypergraph.CommitteeRing(tc.n), CCOptions{Init: InitCC}), o)
		switch {
		case !tc.want && st.LocalLookups != 0:
			t.Fatalf("ring:%d looked up %d times, want 0", tc.n, st.LocalLookups)
		case tc.want && st.LocalLookups != int64(tc.n)*int64(res.States):
			t.Fatalf("ring:%d looked up %d times, want %d per state over %d states", tc.n, st.LocalLookups, tc.n, res.States)
		case tc.want && st.LocalHits*3 < st.LocalLookups*2:
			t.Fatalf("ring:%d: %d hits of %d lookups, want at least two thirds", tc.n, st.LocalHits, st.LocalLookups)
		}
	}
}

// expandedAllHit returns how many states the workers of b expanded
// through the local-transition cache, and how many of those skipped
// the decode because every process hit.
func expandedAllHit[S sim.Cloneable[S]](wss []*workerState[S]) (expanded, allHits int64) {
	for _, ws := range wss {
		if lc := ws.local; lc != nil {
			expanded += lc.lookups / int64(bits.OnesCount64(lc.cacheable))
			allHits += lc.allHits
		}
	}
	return expanded, allHits
}

// TestAllHitPathEngages pins who skips the decode. CC2 on ring:4 from
// every CC-layer fault under the central daemon, at one worker, expands
// states on both paths: every process a hit (no decode) and some process
// a miss. ring:3, where no process looks up, and the baselines, whose
// generic kernels serve no cache, always decode.
func TestAllHitPathEngages(t *testing.T) {
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true, Workers: 1}
	for _, tc := range []struct {
		n    int
		want bool
	}{{4, true}, {3, false}} {
		b, res := runBackend(t, mustCC(t, core.CC2, hypergraph.CommitteeRing(tc.n), CCOptions{Init: InitCC}), opts)
		expanded, allHits := expandedAllHit(b.wss)
		switch {
		case !tc.want && allHits != 0:
			t.Fatalf("ring:%d: %d states skipped the decode, want none", tc.n, allHits)
		case tc.want && (expanded != int64(res.States) || allHits == 0 || allHits == expanded):
			t.Fatalf("ring:%d: %d of %d expanded states (%d states) skipped the decode, want some but not all", tc.n, allHits, expanded, res.States)
		}
	}
	for _, kind := range []baseline.Kind{baseline.Dining, baseline.TokenRing} {
		factory, err := Baseline(kind, hypergraph.CommitteeRing(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		ws := newWorkerState(factory(), &opts)
		if ws.bkern == nil || ws.local != nil {
			t.Fatalf("%s: batch kernel %v, cache %v: want a batch kernel and no cache", kind, ws.bkern != nil, ws.local != nil)
		}
	}
}
