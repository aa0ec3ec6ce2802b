package explore

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/chaos"
	"repro/internal/par"
)

// Visited is the explorer's concurrent deduplication structure: a
// power-of-two-sharded open-addressing hash set over fixed-width binary
// state encodings, backed by one append-only state arena keyed by dense
// state index. A stripe is mutated by one goroutine at a time, by either
// of two disciplines: Probe takes the stripe's lock (cluster peers,
// whose workers and frame ingests hit the same stripes concurrently;
// a streamed seed, the re-probe of a restored pending set and anything
// else outside a fan-out), and the single-node workers, each owning a
// range of stripes for the length of a fan-out, call probeLocked on
// their own stripes with no lock at all (emit.go). A fresh set can also
// be loaded whole, without probing (load): a checkpoint's arena, or a
// product family's seed layer, whose keys are known distinct.
//
// The BFS uses it in a two-phase rhythm that keeps every report
// byte-identical at any worker count:
//
//  1. During a layer expansion (concurrent), workers Probe each
//     successor directly: known states answer immediately, unknown
//     states become *pending* entries. A pending entry remembers the
//     least (item, branch) layer position that proposed it — a min
//     merge by whoever holds the stripe, so the surviving parent is
//     the one a serial loop would have picked regardless of which
//     worker got there first (and the selection a trace re-derives
//     from it, that parent's least branch to the state, is the one
//     that loop would have recorded).
//  2. Between layers, the owner commit (commit) promotes the pending
//     entries in position order: each stripe owner sorts its own
//     entries, a serial merge ranks the owners' runs, and each owner
//     appends its entries' encodings to the arena at their ranks —
//     dense ids in exactly the serial discovery order.
//
// Promoted encodings live only in the arena (slots store the id), so
// the steady-state cost per state is words*8 bytes of arena plus one
// 8-byte slot (amortized over the table's load factor).
//
// Two levers keep the structure scaling past its in-memory comfort
// zone, both exercised only between layers (Housekeep):
//
//   - The stripe-sharded table is *growable*: when the promoted count
//     outgrows the shard count, the whole table is redistributed over
//     twice as many shards. Slots are placed by their 32-bit hash tag
//     alone (see home), so neither this nor a stripe doubling reads a
//     key back — not even a spilled one. Probe chains and stripe
//     contention stay bounded at any state count instead of individual
//     shards ballooning.
//   - The *cold tail* of the arena can spill to a temp file under a
//     byte budget: ids below the hot watermark (states older than the
//     previous BFS layer — never the ones the current layer expands)
//     move to disk and are read back only when a probe's hash tag
//     matches a cold id, or when a counterexample trace is rebuilt.
type Visited struct {
	words      int
	shards     []vshard
	smask      uint64
	shardShift uint // log2(len(shards)): slot index = tag >> shardShift

	arena    []uint64 // in-memory promoted states: id n at [(n-baseID)*words, ...)
	nstates  int
	serial   bool       // one goroutine probes: Probe skips the locks, inserts are logged in order
	runs     [][]runRec // per-owner commit runs and their sort buffers, reused across
	spare    [][]runRec // layers (scratch, outside Bytes)
	drainBuf []Fresh    // reused across Drain calls

	// Cold-tail spill (optional; see EnableArenaSpill). Ids < baseID
	// live in spillFile as fixed-width records at offset id*recSize(),
	// in id order. Each record is words*8 payload bytes plus an 8-byte
	// FNV-64a checksum, so a bit flip or torn write in the spill file is
	// detected on read-back (a classified corruption error) instead of
	// silently changing deduplication — which could change the verdict.
	spillDir    string
	arenaBudget int64
	fs          chaos.FS
	spillFile   chaos.File
	baseID      int32
	spilled     int64 // payload bytes written to spillFile

	// order is the serial-mode insertion-order log: with one worker,
	// pending entries are inserted in exactly the (item, branch) layer
	// order the commit promotes them in, so the sole owner's run is read
	// off this log instead of the stripes, and sorted only when a
	// checkpoint re-probe perturbed it. Parallel runs leave it empty.
	order []pendRef
}

// pendRef locates one pending entry: shard index plus the shard-local
// pending index (both stable until Reset — slot tables may grow, the
// pend buffers only append).
type pendRef struct {
	shard, pidx int32
}

const (
	slotEmpty int32 = -1 // never used
	slotTomb  int32 = -2 // dropped pending entry (capacity bound)
	slotPend  int32 = -3 // pending: pidx names the shard-local entry
)

// reshardPerShard is the promoted-state count per shard past which the
// table doubles its shard count (Housekeep). A variable so tests can
// force re-sharding on small instances.
var reshardPerShard = 1 << 15

// vslot is 8 bytes: the key itself lives in the arena (promoted) or
// the shard's pending buffer, so the steady-state table cost is 8 bytes
// per slot. pidx is the pending-entry index while pending; promotion
// repurposes it as a 32-bit hash tag, so probe chains reject mismatches
// without touching the arena (the random-access load that would
// otherwise dominate lookups in large spaces — and, with a spilled
// arena, a disk read), and a resize re-places the slot from the tag.
type vslot struct {
	ref  int32 // state id when >= 0, else one of the sentinels above
	pidx int32 // pending index (ref == slotPend) or hash tag (ref >= 0)
}

type vshard struct {
	mu     sync.Mutex
	slots  []vslot
	filled int // non-empty slots, tombstones included (probe-chain load)
	pend   []pendEntry
	keys   []uint64 // backing storage for pending keys
	cold   []uint64 // scratch for comparing against spilled arena keys
	raw    []byte   // scratch for spilled-record reads (under the stripe lock)
}

// rawBuf returns the shard's spilled-record scratch, grown to n bytes.
func (sh *vshard) rawBuf(n int64) []byte {
	if int64(cap(sh.raw)) < n {
		sh.raw = make([]byte, n)
	}
	return sh.raw[:n]
}

type pendEntry struct {
	hash   uint64
	pos    uint64 // least (item, branch) proposing this state
	parent int32
	slot   int32    // current slot index in the shard's table (growLocked updates it)
	key    []uint64 // aliases vshard.keys
}

// Fresh is one drained pending entry, in deterministic discovery order.
type Fresh struct {
	Pos    uint64
	Parent int32

	shard, pidx int32 // the pending entry, for O(1) promotion
}

// NewVisited builds a set for states of the given word width.
func NewVisited(words int) *Visited {
	v := &Visited{words: words, fs: chaos.OS}
	v.setTables(64, 0)
	return v
}

// setTables replaces the table with nshards empty stripes presized for
// nstates promoted states (at most half-loaded, minimum 64 slots), so a
// rebuild rarely re-grows mid-insert, and returns the old stripes.
func (v *Visited) setTables(nshards, nstates int) []vshard {
	per := 64
	for per < 2*nstates/nshards {
		per *= 2
	}
	old := v.shards
	v.shards = make([]vshard, nshards)
	for i := range v.shards {
		v.shards[i].slots = emptySlots(per)
	}
	v.smask = uint64(nshards - 1)
	v.shardShift = 0
	for 1<<v.shardShift < nshards {
		v.shardShift++
	}
	return old
}

func emptySlots(n int) []vslot {
	slots := make([]vslot, n)
	for i := range slots {
		slots[i].ref = slotEmpty
	}
	return slots
}

// home places a slot from its 32-bit hash tag alone — the low half of
// the key's hash, which a promoted slot keeps in pidx: stripe tag &
// smask, first probe index (tag >> shardShift) & (len(slots)-1) in that
// stripe. Growing a stripe or re-sharding therefore never reads a key
// back. While shardShift + log2(len(slots)) <= 32 — which the re-shard
// rule keeps true for every table below about 2^30 states — this is bit
// for bit the placement the full 64-bit hash would give; past that,
// home indexes fall in a narrower prefix of the stripe and linear
// probing spreads them: still correct, with longer chains.
func (v *Visited) home(tag int32) (shIdx int32, idx uint64) {
	t := uint64(uint32(tag))
	shIdx = int32(t & v.smask)
	return shIdx, (t >> v.shardShift) & uint64(len(v.shards[shIdx].slots)-1)
}

// EnableArenaSpill activates the cold-tail spill: once the in-memory
// arena exceeds budget bytes, Housekeep moves everything below its hot
// watermark to a temp file under dir ("" = the system temp dir).
// budget <= 0 turns the spill off. Serial phases only; calling it again
// re-budgets a live set from its next Housekeep on (a cluster peer
// re-splits its budget when it adopts a shard).
func (v *Visited) EnableArenaSpill(dir string, budget int64) {
	v.spillDir, v.arenaBudget = dir, budget
}

// SetFS routes the spill file I/O through fsys (nil = the host
// filesystem). Must be called before the first spill.
func (v *Visited) SetFS(fsys chaos.FS) {
	if fsys == nil {
		fsys = chaos.OS
	}
	v.fs = fsys
}

// recSize is the on-disk footprint of one spilled arena record:
// words*8 payload bytes plus the 8-byte FNV-64a checksum.
func (v *Visited) recSize() int64 { return int64(v.words)*8 + 8 }

// fnv64a is the record checksum (FNV-64a over the payload bytes),
// inlined — the hash/fnv interface allocates a hasher per call, and the
// spill read path runs under the probe stripe lock.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// SpilledBytes reports how many arena bytes live on disk.
func (v *Visited) SpilledBytes() int64 { return v.spilled }

// hashWords mixes a state encoding (splitmix64-style finalizer per
// word; fixed seed, so runs are reproducible).
func hashWords(key []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range key {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
	}
	h ^= h >> 31
	return h
}

// States returns the number of promoted states.
func (v *Visited) States() int { return v.nstates }

// Pending returns the number of pending entries (serial phases only —
// the init-stream bound check; workers never read it). Summed from the
// shard buffers, so the insertion hot path maintains no shared counter.
func (v *Visited) Pending() int {
	n := 0
	for i := range v.shards {
		n += len(v.shards[i].pend)
	}
	return n
}

// Key returns the encoding of promoted state id. For hot ids this is a
// read-only view into the arena (valid until the next promotion batch
// or Housekeep; decode before then or copy); for spilled ids it is a
// freshly allocated copy read back from the spill file (trace
// reconstruction — never the expansion hot path, which only sees ids
// at or above the hot watermark).
func (v *Visited) Key(id int32) []uint64 {
	if id >= v.baseID {
		off := int(id-v.baseID) * v.words
		return v.arena[off : off+v.words : off+v.words]
	}
	buf := make([]uint64, v.words)
	if err := v.readCold(id, buf, make([]byte, v.recSize())); err != nil {
		panic(ioPanic{err})
	}
	return buf
}

// readCold reads a spilled key into buf (len v.words) through the raw
// record scratch (len recSize), verifying the record checksum —
// corruption comes back as *chaos.CorruptError, not a wrong key.
// Transient read faults are retried in place.
func (v *Visited) readCold(id int32, buf []uint64, raw []byte) error {
	err := chaos.Retry(context.Background(), chaos.DefaultPolicy, func() error {
		_, rerr := v.spillFile.ReadAt(raw, int64(id)*v.recSize())
		return rerr
	})
	if err != nil {
		return err
	}
	payload := raw[:8*v.words]
	if fnv64a(payload) != binary.LittleEndian.Uint64(raw[8*v.words:]) {
		return &chaos.CorruptError{
			Path:   v.spillFile.Name(),
			Detail: fmt.Sprintf("arena record %d: checksum mismatch", id),
		}
	}
	for i := range buf {
		buf[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return nil
}

// Bytes reports the retained in-memory footprint of the dedup
// structures: arena plus slot tables plus pending buffers, entry
// structs included (the README/bench bytes-per-state accounting).
// Spilled arena bytes are excluded — they are the point of the spill —
// and reported separately via SpilledBytes.
func (v *Visited) Bytes() int64 {
	b := int64(cap(v.arena)) * 8
	for i := range v.shards {
		sh := &v.shards[i]
		b += int64(cap(sh.slots)) * 8
		b += int64(cap(sh.keys)) * 8
		b += int64(cap(sh.pend)) * int64(unsafe.Sizeof(pendEntry{}))
	}
	b += int64(cap(v.drainBuf)) * int64(unsafe.Sizeof(Fresh{}))
	// The serial insertion-order log and the owner runs are deliberately
	// excluded: their shape depends on the worker count, and StateBytes
	// must be identical at any -j.
	return b
}

// Probe looks up key (with its precomputed hash) and, when absent,
// records it as pending with the proposing layer position and parent.
// When the key is already pending, the least position wins. Returns
// the promoted id (>= 0) when the state is already part of the arena,
// or a negative value otherwise. sel is ignored: a trace re-derives
// each step's selection from its parent (layerDriver.trace).
func (v *Visited) Probe(key []uint64, hash uint64, pos uint64, parent int32, sel []byte) int32 {
	shIdx := int32(hash & v.smask)
	sh := &v.shards[shIdx]
	if v.serial {
		return v.probeLocked(sh, shIdx, key, hash, pos, parent)
	}
	sh.mu.Lock()
	id := v.probeLocked(sh, shIdx, key, hash, pos, parent)
	sh.mu.Unlock()
	return id
}

// SetSerial marks the set as single-goroutine (one worker): Probe then
// skips the stripe locks and inserts are logged in order, which lets
// the commit read its one run off the log instead of sorting. Purely
// an optimization; results are identical.
func (v *Visited) SetSerial(serial bool) { v.serial = serial }

// refEqual compares promoted state ref against key, reading through
// the shard's cold scratch when the id is spilled (only reached on a
// 32-bit hash-tag match, so cold reads happen essentially only on true
// duplicates of pre-watermark states).
func (v *Visited) refEqual(sh *vshard, ref int32, key []uint64) bool {
	if ref >= v.baseID {
		return wordsEqual(v.arenaKey(ref), key)
	}
	if cap(sh.cold) < v.words {
		sh.cold = make([]uint64, v.words)
	}
	cold := sh.cold[:v.words]
	if err := v.readCold(ref, cold, sh.rawBuf(v.recSize())); err != nil {
		panic(ioPanic{err})
	}
	return wordsEqual(cold, key)
}

// probeLocked is Probe for a caller that already holds stripe sh — by
// its lock, or by owning it for the fan-out in flight.
func (v *Visited) probeLocked(sh *vshard, shIdx int32, key []uint64, hash uint64, pos uint64, parent int32) int32 {
	tag := int32(hash)
	_, idx := v.home(tag)
	mask := uint64(len(sh.slots) - 1)
	firstTomb := -1
	for {
		s := &sh.slots[idx]
		switch {
		case s.ref == slotEmpty:
			at := int(idx)
			if firstTomb >= 0 {
				at = firstTomb
			} else {
				sh.filled++
			}
			v.insertPending(sh, shIdx, at, key, hash, pos, parent)
			if sh.filled*3 > len(sh.slots)*2 {
				v.growLocked(sh)
			}
			return slotPend
		case s.ref == slotTomb:
			if firstTomb < 0 {
				firstTomb = int(idx)
			}
		case s.ref >= 0:
			if s.pidx == tag && v.refEqual(sh, s.ref, key) {
				return s.ref
			}
		default: // pending
			e := &sh.pend[s.pidx]
			if e.hash == hash && wordsEqual(e.key, key) {
				if pos < e.pos {
					e.pos, e.parent = pos, parent
				}
				return slotPend
			}
		}
		idx = (idx + 1) & mask
	}
}

// Contains reports whether key is already known (promoted or pending)
// without inserting. The explorer calls it only in layers where the
// state bound is already exhausted — no worker inserts then, so the
// lock-free read is race-free. (Cold arena reads under it go through
// stack scratch, or a fresh buffer for keys wider than four words: the
// shard scratch is not safe to share without the stripe lock.)
func (v *Visited) Contains(key []uint64, hash uint64) bool {
	tag := int32(hash)
	shIdx, idx := v.home(tag)
	sh := &v.shards[shIdx]
	mask := uint64(len(sh.slots) - 1)
	var coldArr [4]uint64
	var rawArr [40]byte // recSize for up to 4 words
	for {
		s := &sh.slots[idx]
		switch {
		case s.ref == slotEmpty:
			return false
		case s.ref == slotTomb:
		case s.ref >= 0:
			if s.pidx == tag {
				if s.ref >= v.baseID {
					if wordsEqual(v.arenaKey(s.ref), key) {
						return true
					}
				} else {
					cold := coldArr[:]
					if v.words > len(coldArr) {
						cold = make([]uint64, v.words)
					} else {
						cold = cold[:v.words]
					}
					raw := rawArr[:]
					if rec := v.recSize(); rec > int64(len(rawArr)) {
						raw = make([]byte, rec)
					} else {
						raw = raw[:rec]
					}
					if err := v.readCold(s.ref, cold, raw); err != nil {
						panic(ioPanic{err})
					}
					if wordsEqual(cold, key) {
						return true
					}
				}
			}
		default:
			e := &sh.pend[s.pidx]
			if e.hash == hash && wordsEqual(e.key, key) {
				return true
			}
		}
		idx = (idx + 1) & mask
	}
}

// arenaKey returns the in-memory encoding of a hot promoted id.
func (v *Visited) arenaKey(id int32) []uint64 {
	off := int(id-v.baseID) * v.words
	return v.arena[off : off+v.words]
}

func wordsEqual(a, b []uint64) bool {
	for i, w := range b {
		if a[i] != w {
			return false
		}
	}
	return true
}

func (v *Visited) insertPending(sh *vshard, shIdx int32, at int, key []uint64, hash uint64, pos uint64, parent int32) {
	off := len(sh.keys)
	sh.keys = append(sh.keys, key...)
	sh.pend = append(sh.pend, pendEntry{
		hash: hash, pos: pos, parent: parent, slot: int32(at),
		key: sh.keys[off : off+v.words : off+v.words],
	})
	pidx := int32(len(sh.pend) - 1)
	sh.slots[at] = vslot{ref: slotPend, pidx: pidx}
	if v.serial {
		v.order = append(v.order, pendRef{shard: shIdx, pidx: pidx})
	}
}

// growLocked doubles a shard's slot table, dropping tombstones. Every
// slot is re-placed from its tag (a pending slot's is its entry's hash),
// so no key is read — a spilled one included.
func (v *Visited) growLocked(sh *vshard) {
	old := sh.slots
	sh.slots = emptySlots(2 * len(old))
	sh.filled = 0
	mask := uint64(len(sh.slots) - 1)
	for _, s := range old {
		tag := s.pidx
		switch {
		case s.ref == slotEmpty || s.ref == slotTomb:
			continue
		case s.ref == slotPend:
			tag = int32(sh.pend[s.pidx].hash)
		}
		_, idx := v.home(tag)
		for sh.slots[idx].ref != slotEmpty {
			idx = (idx + 1) & mask
		}
		sh.slots[idx] = s
		if s.ref == slotPend {
			sh.pend[s.pidx].slot = int32(idx)
		}
		sh.filled++
	}
}

// runRec is one pending entry in an owner's commit run: its layer
// position and where it lives. rankRuns overwrites pos with the
// entry's rank in the layer's promotion order.
type runRec struct {
	pos         uint64
	shard, pidx int32
}

func byPos(a, b runRec) int { return cmp.Compare(a.pos, b.pos) }

// stripes returns the stripes [lo, hi) that owner o of n owns: those
// with s·n/len(shards) = o, the rule emit routes successors by.
func (v *Visited) stripes(o, n int) (lo, hi int) {
	s := len(v.shards)
	return (o*s + n - 1) / n, ((o+1)*s + n - 1) / n
}

// ownerRun gathers owner o's (of n) pending entries into its run,
// sorted by position. A sole owner of a set one goroutine probes reads
// the insertion-order log instead of the stripes: a serial expansion
// proposes states in ascending (item, branch) position, so the log is
// already sorted unless a checkpoint restore re-probed its pending
// snapshot in shard order.
func (v *Visited) ownerRun(o, n int) []runRec {
	run := v.runs[o][:0]
	if v.serial && n == 1 {
		for _, pr := range v.order {
			run = append(run, runRec{v.shards[pr.shard].pend[pr.pidx].pos, pr.shard, pr.pidx})
		}
	} else {
		lo, hi := v.stripes(o, n)
		for s := lo; s < hi; s++ {
			for j := range v.shards[s].pend {
				run = append(run, runRec{v.shards[s].pend[j].pos, int32(s), int32(j)})
			}
		}
	}
	if !slices.IsSortedFunc(run, byPos) {
		run, v.spare[o] = sortRun(run, v.spare[o])
	}
	v.runs[o] = run
	return run
}

// sortRun sorts run by position, using spare as the second buffer, and
// returns the sorted run and the other buffer. It is an LSD radix sort
// over only the bytes in which the run's positions differ: a layer's
// positions span a few low bytes of item index and of branch.
func sortRun(run, spare []runRec) (sorted, other []runRec) {
	var diff uint64
	for _, r := range run {
		diff |= r.pos ^ run[0].pos
	}
	spare = slices.Grow(spare[:0], len(run))[:len(run)]
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, r := range run {
			at[byte(r.pos>>shift)]++
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, r := range run {
			d := byte(r.pos >> shift)
			spare[at[d]] = r
			at[d]++
		}
		run, spare = spare, run
	}
	return run, spare
}

// rankRuns merges the sorted runs by position, overwriting each
// record's pos with its rank in the merged order, and returns the
// total. Positions are unique (each (item, branch) proposes one key,
// and a pending entry keeps the least), so the merged order is strict.
func rankRuns(runs [][]runRec) int {
	heads := make([]int, len(runs))
	for rank := 0; ; rank++ {
		best := -1
		for o, h := range heads {
			if h < len(runs[o]) && (best < 0 || runs[o][h].pos < runs[best][heads[best]].pos) {
				best = o
			}
		}
		if best < 0 {
			return rank
		}
		runs[best][heads[best]].pos = uint64(rank)
		heads[best]++
	}
}

// setOwners sizes the per-owner run buffers for n owners.
func (v *Visited) setOwners(n int) {
	if len(v.runs) != n {
		v.runs, v.spare = make([][]runRec, n), make([][]runRec, n)
	}
}

// commit promotes the pending entries in position order under the
// next dense ids — at most room of them (room < 0: all), the rest
// become tombstones — and sets their trace links. It returns the
// promoted and the pending counts. Between layers only.
//
// owners goroutines share the work, each on the stripes it owns during
// an expansion fan-out (emit.go): every owner sorts its own entries
// into a run, a serial merge ranks the runs, and every owner then
// writes its entries' arena rows, slots and trace links at their ranks
// (disjoint, so no two owners write the same row) and clears its
// stripes' pending buffers.
func (v *Visited) commit(owners, room int, links *TraceLinks) (kept, pending int) {
	v.setOwners(owners)
	runs := v.runs
	par.ForEachWorker(owners, owners, func(_, o int) { v.ownerRun(o, owners) })
	pending = rankRuns(runs)
	kept = pending
	if room >= 0 {
		kept = min(kept, room)
	}
	first, at := int32(v.nstates), len(v.arena)
	v.arena = slices.Grow(v.arena, kept*v.words)[:at+kept*v.words]
	link := links.Extend(kept)
	par.ForEachWorker(owners, owners, func(_, o int) {
		for _, r := range runs[o] {
			sh := &v.shards[r.shard]
			ref, rank := slotTomb, int(r.pos)
			if rank < kept {
				e := &sh.pend[r.pidx]
				ref = first + int32(rank)
				copy(v.arena[at+rank*v.words:], e.key)
				links.Set(link+rank, e.parent)
			}
			v.setRef(sh, r.pidx, ref)
		}
		lo, hi := v.stripes(o, owners)
		for s := lo; s < hi; s++ {
			v.shards[s].resetPend()
		}
		if cap(runs[o]) > 2*len(runs[o])+4096 {
			runs[o], v.spare[o] = nil, nil
		}
	})
	v.nstates += kept
	v.resetOrder()
	return kept, pending
}

// Drain collects the pending entries of all shards, sorted by layer
// position — the deterministic promotion order. It is commit's
// one-owner run, for callers that settle entry by entry (a cluster
// peer's shards, which learn their ids from the coordinator). Between
// layers only, from one goroutine; the returned slice is reused by the
// next Drain.
func (v *Visited) Drain() []Fresh {
	v.setOwners(1)
	run := v.ownerRun(0, 1)
	out := v.drainBuf[:0]
	for _, r := range run {
		e := &v.shards[r.shard].pend[r.pidx]
		out = append(out, Fresh{Pos: r.pos, Parent: e.parent, shard: r.shard, pidx: r.pidx})
	}
	// Reuse the buffer while its capacity tracks the layer size, but
	// release the slack after a spike (a huge seed layer would
	// otherwise stay resident for the whole run).
	if cap(out) > 2*len(out)+4096 {
		v.drainBuf = nil
	} else {
		v.drainBuf = out
	}
	return out
}

// Promote assigns the next dense id to a drained entry, appending its
// encoding to the arena — commit's per-entry step, for one goroutine
// between layers. Every drained entry must be either promoted or
// dropped before the next expansion phase.
func (v *Visited) Promote(f Fresh) int32 {
	id := int32(v.nstates)
	sh := &v.shards[f.shard]
	v.arena = append(v.arena, sh.pend[f.pidx].key...)
	v.nstates++
	v.setRef(sh, f.pidx, id)
	return id
}

// Drop discards a drained entry (capacity bound hit): its slot becomes
// a tombstone, so the state may be proposed — and dropped — again, as
// under the PR 2 engine's bound.
func (v *Visited) Drop(f Fresh) { v.setRef(&v.shards[f.shard], f.pidx, slotTomb) }

// setRef settles pending entry pidx of stripe sh as ref (an id or a
// tombstone). O(1): the entry remembers its current slot (growLocked
// keeps it current), so settling does not re-walk the probe chain.
func (v *Visited) setRef(sh *vshard, pidx, ref int32) {
	e := &sh.pend[pidx]
	s := &sh.slots[e.slot]
	if s.ref != slotPend || s.pidx != pidx {
		panic("explore: pending entry does not own its recorded slot")
	}
	s.ref, s.pidx = ref, int32(e.hash)
}

// Reset clears the pending side after a promotion batch, reusing the
// buffers. Serial phases only.
func (v *Visited) Reset() {
	for i := range v.shards {
		v.shards[i].resetPend()
	}
	v.resetOrder()
}

// resetPend empties the stripe's pending buffers, reusing them while
// their capacity tracks the layer size and releasing the slack after
// a spike (a huge seed layer would otherwise stay resident — and
// counted — for the run).
func (sh *vshard) resetPend() {
	if cap(sh.pend) > 2*len(sh.pend)+64 {
		sh.pend, sh.keys = nil, nil
	} else {
		sh.pend = sh.pend[:0]
		sh.keys = sh.keys[:0]
	}
}

func (v *Visited) resetOrder() {
	if cap(v.order) > 2*len(v.order)+4096 {
		v.order = nil
	} else {
		v.order = v.order[:0]
	}
}

// Housekeep runs the serial-phase scaling maintenance after a
// promotion batch: re-sharding the table when the state count outgrew
// it, then spilling the cold arena tail (ids below hotFrom — states
// older than the previous BFS layer) once the in-memory arena exceeds
// its budget. Must only be called with no pending entries.
func (v *Visited) Housekeep(hotFrom int32) error {
	if v.Pending() != 0 {
		panic("explore: Housekeep with pending entries")
	}
	for v.nstates > len(v.shards)*reshardPerShard {
		v.reshard()
	}
	return v.maybeSpillArena(hotFrom)
}

// reshard doubles the shard count and redistributes the old slot tables
// into the new ones by tag — no key is read, so a spilled arena stays on
// disk. Tombstones are dropped; pending entries must not exist.
func (v *Visited) reshard() {
	old := v.setTables(2*len(v.shards), v.nstates)
	for i := range old {
		for _, s := range old[i].slots {
			if s.ref >= 0 {
				v.restoreSlot(s.ref, s.pidx)
			}
		}
	}
}

// restoreSlot inserts promoted id with hash tag into the (rebuilt) table.
func (v *Visited) restoreSlot(id, tag int32) {
	shIdx, idx := v.home(tag)
	sh := &v.shards[shIdx]
	mask := uint64(len(sh.slots) - 1)
	for sh.slots[idx].ref != slotEmpty {
		idx = (idx + 1) & mask
	}
	sh.slots[idx] = vslot{ref: id, pidx: tag}
	sh.filled++
	if sh.filled*3 > len(sh.slots)*2 {
		v.growLocked(sh)
	}
}

// scanArena streams every promoted key in id order (the checkpoint
// writer): the spilled prefix sequentially from disk, then the
// in-memory arena. The key slice passed to fn is scratch, valid for
// that call only.
func (v *Visited) scanArena(fn func(id int32, key []uint64)) error {
	if v.baseID > 0 {
		r := bufio.NewReaderSize(io.NewSectionReader(v.spillFile, 0, int64(v.baseID)*v.recSize()), 1<<20)
		raw := make([]byte, v.recSize())
		key := make([]uint64, v.words)
		for id := int32(0); id < v.baseID; id++ {
			if _, err := io.ReadFull(r, raw); err != nil {
				return fmt.Errorf("explore: arena scan: %w", err)
			}
			payload := raw[:8*v.words]
			if fnv64a(payload) != binary.LittleEndian.Uint64(raw[8*v.words:]) {
				return fmt.Errorf("explore: arena scan: %w", &chaos.CorruptError{
					Path:   v.spillFile.Name(),
					Detail: fmt.Sprintf("arena record %d: checksum mismatch", id),
				})
			}
			for i := range key {
				key[i] = binary.LittleEndian.Uint64(payload[8*i:])
			}
			fn(id, key)
		}
	}
	for id := v.baseID; int(id) < v.nstates; id++ {
		fn(id, v.arenaKey(id))
	}
	return nil
}

// maybeSpillArena moves ids in [baseID, hotFrom) to the spill file
// when the in-memory arena exceeds its budget. Sequential append; the
// remaining hot arena is compacted into a fresh allocation so the
// memory is actually released.
func (v *Visited) maybeSpillArena(hotFrom int32) error {
	if v.arenaBudget <= 0 || int64(len(v.arena))*8 <= v.arenaBudget || hotFrom <= v.baseID {
		return nil
	}
	if v.spillFile == nil {
		err := chaos.Retry(context.Background(), chaos.DefaultPolicy, func() error {
			f, cerr := v.fs.CreateTemp(v.spillDir, "cc-arena-")
			if cerr != nil {
				return cerr
			}
			v.spillFile = f
			return nil
		})
		if err != nil {
			return fmt.Errorf("explore: arena spill: %w", err)
		}
	}
	words := int(hotFrom-v.baseID) * v.words
	w := bufio.NewWriterSize(io.NewOffsetWriter(v.spillFile, int64(v.baseID)*v.recSize()), 1<<20)
	rec := make([]byte, v.recSize())
	for off := 0; off < words; off += v.words {
		for i, word := range v.arena[off : off+v.words] {
			binary.LittleEndian.PutUint64(rec[8*i:], word)
		}
		binary.LittleEndian.PutUint64(rec[8*v.words:], fnv64a(rec[:8*v.words]))
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("explore: arena spill: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("explore: arena spill: %w", err)
	}
	v.spilled += int64(words) * 8
	rest := make([]uint64, len(v.arena)-words)
	copy(rest, v.arena[words:])
	v.arena = rest
	v.baseID = hotFrom
	return nil
}

// RestoreArena rebuilds the set from a checkpoint stream of nstates
// keys (id order). Ids below hotFrom go straight to the spill file
// when a budget is configured and the arena would exceed it — a
// restored out-of-core run never materializes the full arena in
// memory. Must be called on a fresh set (no promotions, no pending).
func (v *Visited) RestoreArena(r io.Reader, nstates int, hotFrom int32) error {
	spillTo := int32(0)
	if v.arenaBudget > 0 && int64(nstates)*int64(v.words)*8 > v.arenaBudget {
		spillTo = hotFrom
	}
	br := bufio.NewReaderSize(r, 1<<20)
	raw := make([]byte, 8*v.words)
	return v.load(nstates, spillTo, func(key []uint64) error {
		if _, err := io.ReadFull(br, raw); err != nil {
			return fmt.Errorf("explore: arena restore: %v", err)
		}
		for i := range key {
			key[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		return nil
	})
}

// load fills a fresh set with nstates promoted keys, which next writes
// one per call in id order: ids below spillTo go to the spill file, the
// rest to the arena, and each gets its slot. The slot tables are
// presized by the same growth rule a live run would have reached, then
// filled by insertion. The keys must be distinct; nothing here checks.
func (v *Visited) load(nstates int, spillTo int32, next func(key []uint64) error) error {
	if v.nstates != 0 || v.Pending() != 0 {
		panic("explore: loading a non-empty set")
	}
	// Re-apply the shard-count growth rule a live run would have
	// reached, and presize the slot tables for the final load.
	nshards := len(v.shards)
	for nstates > nshards*reshardPerShard {
		nshards *= 2
	}
	v.setTables(nshards, nstates)
	var spillW *bufio.Writer
	if spillTo > 0 {
		err := chaos.Retry(context.Background(), chaos.DefaultPolicy, func() error {
			f, cerr := v.fs.CreateTemp(v.spillDir, "cc-arena-")
			if cerr != nil {
				return cerr
			}
			v.spillFile = f
			return nil
		})
		if err != nil {
			return fmt.Errorf("explore: arena restore: %w", err)
		}
		spillW = bufio.NewWriterSize(io.NewOffsetWriter(v.spillFile, 0), 1<<20)
		v.baseID = spillTo
	}
	v.arena = slices.Grow(v.arena, (nstates-int(spillTo))*v.words)
	rec := make([]byte, v.recSize())
	key := make([]uint64, v.words)
	for id := int32(0); int(id) < nstates; id++ {
		if err := next(key); err != nil {
			return err
		}
		if id < spillTo {
			// Spilled records carry a per-record checksum.
			for i, w := range key {
				binary.LittleEndian.PutUint64(rec[8*i:], w)
			}
			binary.LittleEndian.PutUint64(rec[8*v.words:], fnv64a(rec[:8*v.words]))
			if _, err := spillW.Write(rec); err != nil {
				return fmt.Errorf("explore: arena restore: %w", err)
			}
			v.spilled += int64(8 * v.words)
		} else {
			v.arena = append(v.arena, key...)
		}
		v.restoreSlot(id, int32(hashWords(key)))
	}
	if spillW != nil {
		if err := spillW.Flush(); err != nil {
			return fmt.Errorf("explore: arena restore: %v", err)
		}
	}
	v.nstates = nstates
	return nil
}

// PendSnap is one pending entry as captured by SnapshotPending.
type PendSnap struct {
	Pos    uint64
	Parent int32
	Key    []uint64
}

// SnapshotPending captures every pending entry (any shard order — the
// restore re-probes them, and the min-merge makes insertion order
// irrelevant for distinct keys). The Key slices alias shard storage:
// valid until the next Reset.
func (v *Visited) SnapshotPending() []PendSnap {
	var out []PendSnap
	for i := range v.shards {
		for _, e := range v.shards[i].pend {
			out = append(out, PendSnap{Pos: e.pos, Parent: e.parent, Key: e.key})
		}
	}
	return out
}

// Close releases the spill file, if any.
func (v *Visited) Close() {
	if v.spillFile != nil {
		name := v.spillFile.Name()
		v.spillFile.Close()
		v.fs.Remove(name)
		v.spillFile = nil
	}
}
