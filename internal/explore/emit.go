package explore

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/sim"
)

// This file is the successor hand-off: what happens to one successor
// key between the expansion that derived it and the visited set. It is
// one sequence for the scalar and the batch path, on one node and on a
// cluster peer, at any worker count:
//
//	emit → a kept init of the seed's family: a duplicate, nothing else
//	     → at cap: read-only membership check (maybe remote), nothing else
//	     → filter: drop an exact re-proposal (succFilter)
//	     → cluster peer, another peer's shard: an outbox frame
//	     → probe the stripe if this worker owns it, else buffer the
//	       successor for the stripe's owner (routeBuf)
//
// No stripe lock is taken. The stripes of a node's one visited set, or
// of the one shard a cluster peer hosts, are split into contiguous ranges,
// one per worker (Visited.owner); during an expansion fan-out a worker
// mutates only its own stripes, and after the fan-out's barrier every
// owner drains the buffers addressed to it (fanOut) — on a peer also the
// frame records Ingest queued for it meanwhile. Buffers are therefore
// empty at every barrier, where cancellation, checkpoints, Progress and
// the commit see the set as if every successor had been probed the
// moment it was derived — except that no probe reads the spill file: a
// successor whose hash tag matches a spilled id waits in its stripe,
// deferred, for the commit (or a checkpoint) to settle every stripe's in
// one sorted sweep. With one worker no route buffer is ever written.

// filterEntries is the slot count of a worker's successor filter (a
// power of two). 4,096 slots recognise about 70% of the probes of a
// wide all-subsets layer and cost 160 KB per worker at three key words;
// a variable so tests can shrink it to force constant eviction.
var filterEntries = 1 << 12

// routeFlushRecords bounds the successors a worker buffers for other
// owners: a fan-out stops handing out items once a worker holds this
// many (overshooting by at most the run of items in hand), the owners
// drain, and the fan-out resumes — so the buffers are sized by this
// constant, not by the width of the layer.
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
//  2. The key was forwarded in the current layer from a smaller
//     position. The pending entry's min-merge keeps the least position,
//     so the later proposal would be discarded. The stored position is
//     compared, never assumed monotone.
//
// Anything else — a miss, an evicted slot, a re-proposal from a smaller
// position — is forwarded and recorded. A restored checkpoint starts
// with no filter at all.
type succFilter struct {
	words int
	shift uint   // slot = hash >> shift
	tag   uint64 // the current layer, ≥ 1; 0 marks an empty slot
	// tab holds words+2 uint64 per slot: the key, the least position
	// forwarded in layer tag, and that tag.
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

// beginLayer opens a layer of the given width (items this
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

// routeBuf holds successors for one owner's stripes until it drains them:
// another worker's, or the probe records a cluster peer ingested.
type routeBuf struct {
	// recs holds words+3 uint64 per record: the key's hash, its
	// position, its parent, then the key.
	recs []uint64
}

func (b *routeBuf) add(key []uint64, hash, pos uint64, parent int32) {
	b.recs = append(append(b.recs, hash, pos, uint64(uint32(parent))), key...)
}

// drainInto probes every buffered record into vs: by the records' owner
// after a fan-out's barrier, or in a serial phase.
func (b *routeBuf) drainInto(vs *Visited) {
	for r := b.recs; len(r) > 0; r = r[3+vs.words:] {
		hash := r[0]
		vs.probeStripe(&vs.shards[hash&vs.smask], r[3:3+vs.words], hash, r[1], int32(uint32(r[2])), deferCold)
	}
	b.recs = b.recs[:0]
}

// shareStripes makes the workers co-owners of the visited sets they
// write: worker i of n owns the stripes Visited.owner gives i.
func shareStripes[S sim.Cloneable[S]](wss []*workerState[S]) {
	for i, ws := range wss {
		ws.self, ws.owners = i, len(wss)
		ws.route = par.PrivateSlice[routeBuf](len(wss))
	}
}

// fanRun is how many consecutive items a worker claims off fanOut's
// cursor at a time: the cursor and the full flag are shared atomics, so
// a claim per item costs a contended cache line per state.
const fanRun = 32

// fanOut is the expansion fan-out of both backends (a node's layer chunk,
// a peer's layer): it expands items 0 … size−1 on the workers, which
// claim runs of fanRun of them off a shared cursor. A worker whose route
// buffers reach routeFlushRecords ends the fan-out: the workers stop
// after the run in hand, every owner drains the buffers addressed to it
// into vs, and its inbox unless inbox is nil, and the fan-out resumes at
// the cursor. On return every route buffer is empty.
func fanOut[S sim.Cloneable[S]](wss []*workerState[S], size int, vs *Visited, item func(ws *workerState[S], i int), inbox func(owner int)) error {
	n := len(wss)
	var cursor atomic.Int64
	var full atomic.Bool
	for lo := 0; lo < size; lo = min(int(cursor.Load()), size) {
		cursor.Store(int64(lo))
		full.Store(false)
		// n loops over n "items": the item index, not the goroutine
		// index, names the worker state — one goroutine may run two
		// loops back to back, never two goroutines one loop.
		if err := forEachWorkerIO(n, n, func(_, w int) {
			ws := wss[w]
			for !full.Load() {
				i := int(cursor.Add(fanRun)) - fanRun
				if i >= size {
					return
				}
				for end := min(i+fanRun, size); i < end; i++ {
					item(ws, i)
				}
				if ws.routed >= routeFlushRecords {
					full.Store(true)
				}
			}
		}); err != nil {
			return err
		}
		if err := forEachWorkerIO(n, n, func(_, owner int) {
			for _, ws := range wss {
				ws.route[owner].drainInto(vs)
			}
			if inbox != nil {
				inbox(owner)
			}
		}); err != nil {
			return err
		}
		for _, ws := range wss {
			ws.routed = 0
		}
	}
	return nil
}

// open points the emit context at the expansion of state id, item
// `item` of its layer.
//
// Once the state bound is exhausted (stable across the whole layer:
// promotion is between layers, so every worker sees the same count), fresh
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
// the visited set. Its branch index — the pending min-merge's tie-break
// under one parent — is what lets a trace re-derive the selection.
// mayInit false says the caller knows key is no kept init of the seed's
// family: a block it left as the parent had it is in no init (see
// expandBatch's out mask).
func (ws *workerState[S]) emit(key []uint64, mayInit bool) {
	vs := ws.curVS
	pos := uint64(ws.curItem)<<32 | uint64(ws.curBranch)
	ws.curBranch++
	if mayInit && vs.fam != nil && vs.fam.member(key) >= 0 {
		// A kept init of the seed's family: a depth-0 duplicate, known
		// without a hash, at the cap or not.
		return
	}
	hash := hashWords(key)
	parent, remote := ws.curID, -1 // remote: the successor's shard on another peer
	if ws.cl != nil {
		parent = ws.cl.parent
		if s := ShardOf(hash, ws.cl.shards); s != ws.cl.self {
			remote = s
		}
	}
	switch {
	case ws.curAtCap:
		// Never through the filter: a key it remembers forwarding may be
		// one the bound then dropped, and must still count as a miss.
		// Another peer's shard answers a membership query and folds a
		// miss into its own FinishLayer flag: truncation is a
		// layer-global OR, so where the bit lands cannot show.
		if remote >= 0 {
			ws.cl.frame(recCapCheck, remote, key, 0, 0)
		} else if !vs.slotted(key, hash) {
			ws.curAgg.Truncated = true
		}
	case ws.filter != nil && ws.filter.seen(key, hash, pos):
	case remote >= 0:
		ws.cl.frame(recProbe, remote, key, pos, parent)
	default:
		if o := vs.owner(hash, ws.owners); o != ws.self {
			ws.route[o].add(key, hash, pos, parent)
			ws.routed++
			return
		}
		vs.probeStripe(&vs.shards[hash&vs.smask], key, hash, pos, parent, deferCold)
	}
}
