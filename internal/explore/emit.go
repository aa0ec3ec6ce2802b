package explore

import (
	"math/bits"

	"repro/internal/par"
	"repro/internal/sim"
)

// This file is the successor hand-off: what happens to one successor
// key between the expansion that derived it and the visited set. It is
// one sequence for the scalar and the batch path, on one node and on a
// cluster peer, at any worker count:
//
//	emit → at cap: read-only membership check, nothing else
//	     → filter: drop an exact re-proposal (succFilter)
//	     → cluster peer: peerHooks.sink (local shard or outbox frame)
//	     → one node: probe the stripe if this worker owns it, else
//	       buffer the successor for the stripe's owner (routeBuf)
//
// On one node no stripe lock is taken. The stripes of the visited set
// are split into contiguous ranges, one per worker; during an expansion
// fan-out a worker mutates only its own stripes, and after the fan-out's
// barrier a second fan-out lets every owner drain the buffers addressed
// to it (localBackend.expandChunk). Buffers are therefore empty at every
// chunk boundary, where cancellation, checkpoints, Progress and — at the
// layer's end — Drain, Promote and Housekeep see the set exactly as they
// would had every successor been probed the moment it was derived. With
// one worker every stripe is its own and no buffer is ever written.

// filterEntries is the slot count of a worker's successor filter (a
// power of two). 4,096 slots recognise about 70% of the probes of a
// wide all-subsets layer and cost 160 KB per worker at three key words;
// a variable so tests can shrink it to force constant eviction.
var filterEntries = 1 << 12

// routeFlushRecords bounds the successors a worker buffers for other
// owners: a fan-out stops handing out items once a worker holds this
// many (overshooting by at most the item in hand), the owners drain, and
// the fan-out resumes — so the buffers are sized by this constant, not
// by the width of the layer.
const routeFlushRecords = 4096

// succFilter is a worker's direct-mapped memo of the successors it has
// already forwarded, consulted before a successor leaves the worker. A
// BFS re-derives each state once per inbound transition, and most of
// those re-derivations come from the same worker within a layer or two,
// so dropping them here saves the hash-set probe — or, on a cluster
// peer, the wire record — for the bulk of the stream.
//
// It is exact, not probabilistic: a slot stores the full key and is
// compared word for word, and seen reports a successor only when the
// probe it replaces provably could not change the set:
//
//  1. The key was forwarded in an earlier, committed layer. Commit drops
//     a pending state only when the state bound has no room left, and
//     then every later layer is at the cap, where the filter is not
//     consulted. So in any layer that does consult it, every key
//     forwarded in an earlier layer has been promoted, and a probe for a
//     promoted key is a pure lookup.
//  2. The key was forwarded in the current attempt of the current layer
//     from a smaller position. The pending entry's min-merge keeps the
//     least position, so the later proposal would be discarded. The
//     stored position is compared, never assumed monotone: a peer that
//     hosts several shards walks its items shard by shard.
//
// Anything else — a miss, an evicted slot, a re-proposal from a smaller
// position — is forwarded and recorded. A layer attempt that is rolled
// back (cluster retry) invalidates its entries; a restored checkpoint
// starts with no filter at all.
type succFilter struct {
	words int
	shift uint   // slot = hash >> shift
	tag   uint64 // the current layer attempt, ≥ 1; 0 marks an empty slot
	// tab holds words+2 uint64 per slot: the key, the least position
	// forwarded in layer attempt tag, and that tag.
	tab []uint64
}

func newSuccFilter(words int) *succFilter {
	return &succFilter{
		words: words,
		shift: uint(64 - bits.TrailingZeros(uint(filterEntries))),
		tab:   make([]uint64, filterEntries*(words+2)),
	}
}

// seen reports whether forwarding (key, pos) is provably a no-op; when it
// is not, the proposal is recorded.
func (f *succFilter) seen(key []uint64, hash, pos uint64) bool {
	w := f.words
	e := f.tab[int(hash>>f.shift)*(w+2):][:w+2]
	if e[w+1] != 0 && wordsEqual(e, key) {
		if e[w+1] != f.tag || e[w] < pos {
			return true
		}
		e[w] = pos
		return false
	}
	copy(e, key)
	e[w], e[w+1] = pos, f.tag
	return false
}

// beginLayer opens a layer attempt of the given width (items this
// engine will expand). The filter is allocated at the first layer wider
// than it: a millisecond exploration never pays for the table.
func (ws *workerState[S]) beginLayer(width int) {
	if ws.filter == nil && width > filterEntries {
		ws.filter = newSuccFilter(ws.model.Codec.Words)
	}
	if ws.filter != nil {
		ws.filter.tag++
	}
}

// routeBuf holds the successors one worker derived for stripes another
// worker owns, until that owner drains them.
type routeBuf struct {
	// recs holds words+3 uint64 per record: the key, its hash, its
	// position, and parent<<32 | len(sel).
	recs []uint64
	sels []byte // the records' selections, back to back
}

func (b *routeBuf) add(key []uint64, hash, pos uint64, parent int32, sel []byte) {
	b.recs = append(b.recs, key...)
	b.recs = append(b.recs, hash, pos, uint64(uint32(parent))<<32|uint64(len(sel)))
	b.sels = append(b.sels, sel...)
}

// drainInto probes every buffered record into vs. Called by the owner of
// the records' stripes, after the barrier that ended the writer's
// fan-out.
func (b *routeBuf) drainInto(vs *Visited) {
	w := vs.words
	sels := b.sels
	for r := b.recs; len(r) > 0; r = r[w+3:] {
		hash, meta := r[w], r[w+2]
		n := int(uint32(meta))
		sh := int32(hash & vs.smask)
		vs.probeLocked(&vs.shards[sh], sh, r[:w], hash, r[w+1], int32(meta>>32), sels[:n])
		sels = sels[n:]
	}
	b.recs, b.sels = b.recs[:0], b.sels[:0]
}

// shareStripes makes the workers co-owners of one visited set: worker i
// of n owns the stripes s with s·n/len(stripes) = i.
func shareStripes[S sim.Cloneable[S]](wss []*workerState[S]) {
	for i, ws := range wss {
		ws.self, ws.owners = i, len(wss)
		ws.route = par.PrivateSlice[routeBuf](len(wss))
	}
}

// open points the emit context at the expansion of state id, item
// `item` of its layer.
//
// Once the state bound is exhausted (stable across the whole layer:
// promotion is serial, so every worker sees the same count), fresh
// successors are doomed — a read-only membership check replaces the
// insertion probe, so bounded runs stop allocating pending entries per
// dropped state while the truncation flag still fires exactly when the
// PR 2 engine's add() would have refused a fresh state. Checking
// States() rather than the concurrently-moving pending count keeps the
// decision, and hence the reports, deterministic. A cluster peer takes
// the coordinator's layer-global decision instead of the local count.
func (ws *workerState[S]) open(vs *Visited, agg *LayerReport, id int32, item int) {
	ws.curVS, ws.curAgg, ws.curID, ws.curItem, ws.curBranch = vs, agg, id, item, 0
	ws.curAtCap = ws.opts.MaxStates > 0 && vs.States() >= ws.opts.MaxStates
	if ws.cl != nil {
		ws.curAtCap = ws.cl.atCap
	}
}

// emit hands the next successor of the expansion in flight (see open) to
// the visited set; sel is the selection that produced it.
func (ws *workerState[S]) emit(key []uint64, sel []byte) {
	vs := ws.curVS
	hash := hashWords(key)
	pos := uint64(ws.curItem)<<32 | uint64(ws.curBranch)
	ws.curBranch++
	switch {
	case ws.curAtCap:
		// Never through the filter: a key it remembers forwarding may be
		// one the bound then dropped, and must still count as a miss.
		miss := false
		if ws.cl != nil {
			miss = ws.cl.capMiss(key, hash)
		} else {
			miss = !vs.Contains(key, hash)
		}
		if miss {
			ws.curAgg.Truncated = true
		}
	case ws.filter != nil && ws.filter.seen(key, hash, pos):
	case ws.cl != nil:
		ws.cl.sink(key, hash, pos, ws.cl.parent, sel)
	default:
		sh := int32(hash & vs.smask)
		if o := int(sh) * ws.owners >> vs.shardShift; o != ws.self {
			ws.route[o].add(key, hash, pos, ws.curID, sel)
			ws.routed++
			return
		}
		vs.probeLocked(&vs.shards[sh], sh, key, hash, pos, ws.curID, sel)
	}
}
