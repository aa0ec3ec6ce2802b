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

	"repro/internal/chaos"
)

// Visited is the explorer's concurrent deduplication structure: a
// power-of-two-sharded open-addressing hash set over fixed-width binary
// state encodings, backed by one append-only state arena keyed by dense
// state index. A stripe is mutated by one goroutine at a time, by either
// of two disciplines: Probe takes the stripe's lock (cluster peers,
// whose workers and frame ingests hit the same stripes concurrently;
// seeding, restore and anything else outside a fan-out), and the
// single-node workers, each owning a range of stripes for the length of
// a fan-out, call probeLocked on their own stripes with no lock at all
// (emit.go).
//
// The BFS uses it in a two-phase rhythm that keeps every report
// byte-identical at any worker count:
//
//  1. During a layer expansion (concurrent), workers Probe each
//     successor directly: known states answer immediately, unknown
//     states become *pending* entries. A pending entry remembers the
//     least (item, branch) layer position that proposed it — a min
//     merge by whoever holds the stripe, so the surviving
//     parent/selection is the one the PR 2 serial loop would have
//     picked regardless of which worker got there first.
//  2. Between layers (serial), Drain returns the pending entries
//     sorted by that position; the caller promotes them in order,
//     which appends their encodings to the arena and assigns dense
//     ids — exactly the PR 2 discovery order.
//
// Promoted encodings live only in the arena (slots store the id), so
// the steady-state cost per state is words*8 bytes of arena plus one
// 8-byte slot (amortized over the table's load factor).
//
// Two levers keep the structure scaling past its in-memory comfort
// zone, both exercised only from the serial phase (Housekeep):
//
//   - The stripe-sharded table is *growable*: when the promoted count
//     outgrows the shard count, the whole table re-hashes into twice as
//     many shards (rebuilt from a sequential arena scan, so even a
//     spilled arena is read once, in order). Probe chains and stripe
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
	shardShift uint // log2(len(shards)): slot index = hash >> shardShift

	arena    []uint64 // in-memory promoted states: id n at [(n-baseID)*words, ...)
	nstates  int
	serial   bool    // one goroutine probes: Probe skips the locks, inserts are logged in order
	drainBuf []Fresh // reused across Drain calls

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
	spilled     int64         // payload bytes written to spillFile
	restoreW    *bufio.Writer // in-flight restore spill writer (readCold flushes it)

	// order is the serial-mode insertion-order log: with one worker,
	// pending entries are inserted in exactly the (item, branch) layer
	// order Drain must return, so Drain walks this log instead of
	// sorting — unless a min-merge or a checkpoint re-probe perturbed
	// the order (Drain verifies monotonicity and falls back to the
	// sort). Parallel runs leave it empty.
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
// the shard's pending buffer, and full hashes are recomputed on resize,
// so the steady-state table cost is 8 bytes per slot. pidx is the
// pending-entry index while pending; promotion repurposes it as a
// 32-bit hash tag, so probe chains reject mismatches without touching
// the arena (the random-access load that would otherwise dominate
// lookups in large spaces — and, with a spilled arena, a disk read).
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
	slot   int32 // current slot index in the shard's table (growLocked updates it)
	sel    string
	key    []uint64 // aliases vshard.keys
}

// Fresh is one drained pending entry, in deterministic discovery order.
type Fresh struct {
	Pos    uint64
	Parent int32
	Sel    string

	hash        uint64
	key         []uint64
	shard, pidx int32 // the pending entry, for O(1) promotion
}

// selString interns a selection byte string: the overwhelmingly common
// single-process selections (central branching) share one string per
// process index instead of allocating per fresh state.
func selString(sel []byte) string {
	switch len(sel) {
	case 0:
		return ""
	case 1:
		return singleSel[sel[0]]
	}
	return string(sel)
}

var singleSel = func() (t [256]string) {
	for i := range t {
		t[i] = string([]byte{byte(i)})
	}
	return
}()

// NewVisited builds a set for states of the given word width.
func NewVisited(words int) *Visited {
	const nshards = 64
	v := &Visited{words: words, fs: chaos.OS}
	v.setShards(make([]vshard, nshards))
	for i := range v.shards {
		v.shards[i].slots = make([]vslot, 64)
		for j := range v.shards[i].slots {
			v.shards[i].slots[j].ref = slotEmpty
		}
	}
	return v
}

func (v *Visited) setShards(shards []vshard) {
	v.shards = shards
	v.smask = uint64(len(shards) - 1)
	shift := uint(0)
	for 1<<shift < len(shards) {
		shift++
	}
	v.shardShift = shift
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
// corruption comes back as *chaos.CorruptError, not a wrong key. During
// a restore the spill file is mid-append: flush the writer first so
// every id below the watermark is readable (no-op once drained).
// Transient read faults are retried in place.
func (v *Visited) readCold(id int32, buf []uint64, raw []byte) error {
	if v.restoreW != nil {
		if err := v.restoreW.Flush(); err != nil {
			return err
		}
	}
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
	const pendEntrySize = 64 // hash+pos+parent+string header+slice header
	b := int64(cap(v.arena)) * 8
	for i := range v.shards {
		sh := &v.shards[i]
		b += int64(cap(sh.slots)) * 8
		b += int64(cap(sh.keys)) * 8
		b += int64(cap(sh.pend)) * pendEntrySize
	}
	b += int64(cap(v.drainBuf)) * 48
	// The serial insertion-order log is deliberately excluded: it exists
	// only at one worker, and StateBytes must be identical at any -j.
	return b
}

// Probe looks up key (with its precomputed hash) and, when absent,
// records it as pending with the proposing layer position, parent and
// selection. When the key is already pending, the least position wins.
// Returns the promoted id (>= 0) when the state is already part of the
// arena, or a negative value otherwise. sel is copied only when a
// pending entry is created or improved.
func (v *Visited) Probe(key []uint64, hash uint64, pos uint64, parent int32, sel []byte) int32 {
	shIdx := int32(hash & v.smask)
	sh := &v.shards[shIdx]
	if v.serial {
		return v.probeLocked(sh, shIdx, key, hash, pos, parent, sel)
	}
	sh.mu.Lock()
	id := v.probeLocked(sh, shIdx, key, hash, pos, parent, sel)
	sh.mu.Unlock()
	return id
}

// SetSerial marks the set as single-goroutine (one worker): Probe then
// skips the stripe locks and inserts are logged in order, which lets
// Drain skip its sort. Purely an optimization; results are identical.
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
func (v *Visited) probeLocked(sh *vshard, shIdx int32, key []uint64, hash uint64, pos uint64, parent int32, sel []byte) int32 {
	mask := uint64(len(sh.slots) - 1)
	idx := (hash >> v.shardShift) & mask
	tag := int32(hash)
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
			v.insertPending(sh, shIdx, at, key, hash, pos, parent, sel)
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
					e.pos, e.parent, e.sel = pos, parent, selString(sel)
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
// lock-free read is race-free. (Cold arena reads under it allocate a
// scratch buffer per call: the shard scratch is not safe to share
// without the stripe lock.)
func (v *Visited) Contains(key []uint64, hash uint64) bool {
	sh := &v.shards[hash&v.smask]
	mask := uint64(len(sh.slots) - 1)
	idx := (hash >> v.shardShift) & mask
	tag := int32(hash)
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

func (v *Visited) insertPending(sh *vshard, shIdx int32, at int, key []uint64, hash uint64, pos uint64, parent int32, sel []byte) {
	off := len(sh.keys)
	sh.keys = append(sh.keys, key...)
	sh.pend = append(sh.pend, pendEntry{
		hash: hash, pos: pos, parent: parent, slot: int32(at), sel: selString(sel),
		key: sh.keys[off : off+v.words : off+v.words],
	})
	pidx := int32(len(sh.pend) - 1)
	sh.slots[at] = vslot{ref: slotPend, pidx: pidx}
	if v.serial {
		v.order = append(v.order, pendRef{shard: shIdx, pidx: pidx})
	}
}

// growLocked doubles a shard's slot table, dropping tombstones.
func (v *Visited) growLocked(sh *vshard) {
	old := sh.slots
	sh.slots = make([]vslot, 2*len(old))
	for i := range sh.slots {
		sh.slots[i].ref = slotEmpty
	}
	sh.filled = 0
	mask := uint64(len(sh.slots) - 1)
	for _, s := range old {
		if s.ref == slotEmpty || s.ref == slotTomb {
			continue
		}
		idx := (v.slotHash(sh, &s) >> v.shardShift) & mask
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

// slotHash recomputes the hash of an occupied slot's key.
func (v *Visited) slotHash(sh *vshard, s *vslot) uint64 {
	if s.ref >= 0 {
		if s.ref >= v.baseID {
			return hashWords(v.arenaKey(s.ref))
		}
		if cap(sh.cold) < v.words {
			sh.cold = make([]uint64, v.words)
		}
		cold := sh.cold[:v.words]
		if err := v.readCold(s.ref, cold, sh.rawBuf(v.recSize())); err != nil {
			panic(ioPanic{err})
		}
		return hashWords(cold)
	}
	return sh.pend[s.pidx].hash
}

// Drain collects the pending entries of all shards, sorted by layer
// position — the deterministic promotion order. Serial phases only;
// the returned slice is reused by the next Drain.
//
// With one worker the insertion-order log already is the position
// order (a serial expansion proposes states in ascending (item, branch)
// position), so Drain walks the log and only falls back to the sort
// when the order was perturbed — a checkpoint restore re-probes its
// pending snapshot in shard order, and its min-merges can lower the
// position of an already-logged entry.
func (v *Visited) Drain() []Fresh {
	out := v.drainBuf[:0]
	if v.serial && len(v.order) > 0 {
		mono := true
		last := uint64(0)
		for _, pr := range v.order {
			e := &v.shards[pr.shard].pend[pr.pidx]
			if e.pos < last {
				mono = false
				break
			}
			last = e.pos
			out = append(out, Fresh{
				Pos: e.pos, Parent: e.parent, Sel: e.sel,
				hash: e.hash, key: e.key, shard: pr.shard, pidx: pr.pidx,
			})
		}
		if mono {
			return v.keepDrainBuf(out)
		}
		out = out[:0]
	}
	for i := range v.shards {
		for j := range v.shards[i].pend {
			e := &v.shards[i].pend[j]
			out = append(out, Fresh{
				Pos: e.pos, Parent: e.parent, Sel: e.sel,
				hash: e.hash, key: e.key, shard: int32(i), pidx: int32(j),
			})
		}
	}
	slices.SortFunc(out, func(a, b Fresh) int { return cmp.Compare(a.Pos, b.Pos) })
	return v.keepDrainBuf(out)
}

// keepDrainBuf reuses the drain buffer while its capacity tracks the
// layer size, but releases the slack after a spike (a huge seed layer
// would otherwise stay resident for the whole run).
func (v *Visited) keepDrainBuf(out []Fresh) []Fresh {
	if cap(out) > 2*len(out)+4096 {
		v.drainBuf = nil
	} else {
		v.drainBuf = out
	}
	return out
}

// Promote assigns the next dense id to a drained entry, appending its
// encoding to the arena. Serial phases only; every drained entry must
// be either promoted or dropped before the next expansion phase.
func (v *Visited) Promote(f Fresh) int32 {
	id := int32(v.nstates)
	v.arena = append(v.arena, f.key...)
	v.nstates++
	v.setRef(f, id)
	return id
}

// Drop discards a drained entry (capacity bound hit): its slot becomes
// a tombstone, so the state may be proposed — and dropped — again, as
// under the PR 2 engine's bound.
func (v *Visited) Drop(f Fresh) { v.setRef(f, slotTomb) }

func (v *Visited) setRef(f Fresh, ref int32) {
	// O(1): the drained entry remembers its shard, pending index and
	// current slot (growLocked keeps the slot current), so promotion
	// does not re-walk the probe chain.
	sh := &v.shards[f.shard]
	e := &sh.pend[f.pidx]
	s := &sh.slots[e.slot]
	if s.ref != slotPend || s.pidx != f.pidx {
		panic("explore: drained entry does not own its recorded slot")
	}
	s.ref, s.pidx = ref, int32(f.hash)
}

// Reset clears the pending side after a promotion batch, reusing the
// buffers. Serial phases only.
func (v *Visited) Reset() {
	for i := range v.shards {
		sh := &v.shards[i]
		// Reuse pending buffers while their capacity tracks the layer
		// size; release the slack after a spike (a huge seed layer
		// would otherwise stay resident — and counted — for the run).
		if cap(sh.pend) > 2*len(sh.pend)+64 {
			sh.pend, sh.keys = nil, nil
		} else {
			sh.pend = sh.pend[:0]
			sh.keys = sh.keys[:0]
		}
	}
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
		if err := v.reshard(); err != nil {
			return err
		}
	}
	return v.maybeSpillArena(hotFrom)
}

// reshard doubles the shard count and rebuilds every slot table from a
// sequential arena scan (spilled prefix read once, in id order).
// Tombstones are dropped; pending entries must not exist.
func (v *Visited) reshard() error {
	shards := make([]vshard, 2*len(v.shards))
	// Presize each shard so the rebuild does not immediately re-grow:
	// expected states per shard, at most half-loaded, minimum 64 slots.
	per := 64
	for per < 2*v.nstates/len(shards) {
		per *= 2
	}
	for i := range shards {
		shards[i].slots = make([]vslot, per)
		for j := range shards[i].slots {
			shards[i].slots[j].ref = slotEmpty
		}
	}
	v.setShards(shards)
	return v.scanArena(func(id int32, key []uint64) {
		v.restoreSlot(id, key, hashWords(key))
	})
}

// restoreSlot inserts a promoted id into the (rebuilt) table.
func (v *Visited) restoreSlot(id int32, key []uint64, hash uint64) {
	sh := &v.shards[hash&v.smask]
	mask := uint64(len(sh.slots) - 1)
	idx := (hash >> v.shardShift) & mask
	for sh.slots[idx].ref != slotEmpty {
		idx = (idx + 1) & mask
	}
	sh.slots[idx] = vslot{ref: id, pidx: int32(hash)}
	sh.filled++
	if sh.filled*3 > len(sh.slots)*2 {
		v.growLocked(sh)
	}
}

// scanArena streams every promoted key in id order: the spilled prefix
// sequentially from disk, then the in-memory arena. The key slice
// passed to fn is scratch, valid for that call only.
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
// memory. The slot tables are pre-sized by the same growth rule a live
// run would have reached, then filled by insertion. Must be called on
// a fresh set (no promotions, no pending).
func (v *Visited) RestoreArena(r io.Reader, nstates int, hotFrom int32) error {
	if v.nstates != 0 || v.Pending() != 0 {
		panic("explore: RestoreArena on a non-empty set")
	}
	// Re-apply the shard-count growth rule a live run would have
	// reached, and presize the slot tables for the final load so the
	// rebuild rarely re-grows mid-insert.
	nshards := len(v.shards)
	for nstates > nshards*reshardPerShard {
		nshards *= 2
	}
	per := 64
	for per < 2*nstates/nshards {
		per *= 2
	}
	shards := make([]vshard, nshards)
	for i := range shards {
		shards[i].slots = make([]vslot, per)
		for j := range shards[i].slots {
			shards[i].slots[j].ref = slotEmpty
		}
	}
	v.setShards(shards)
	spillTo := int32(0)
	if v.arenaBudget > 0 && int64(nstates)*int64(v.words)*8 > v.arenaBudget {
		spillTo = hotFrom
	}
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
		// Ids below the watermark are readable mid-restore (growLocked
		// may rehash them) via readCold's flush hook.
		v.baseID = spillTo
		v.restoreW = spillW
		defer func() { v.restoreW = nil }()
	}
	br := bufio.NewReaderSize(r, 1<<20)
	raw := make([]byte, 8*v.words)
	rec := make([]byte, v.recSize())
	key := make([]uint64, v.words)
	for id := int32(0); int(id) < nstates; id++ {
		if _, err := io.ReadFull(br, raw); err != nil {
			return fmt.Errorf("explore: arena restore: %v", err)
		}
		for i := range key {
			key[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		if id < spillTo {
			// The checkpoint stream carries bare keys; spilled records
			// get their per-record checksum appended here.
			copy(rec, raw)
			binary.LittleEndian.PutUint64(rec[8*v.words:], fnv64a(raw))
			if _, err := spillW.Write(rec); err != nil {
				return fmt.Errorf("explore: arena restore: %w", err)
			}
			v.spilled += int64(len(raw))
		} else {
			v.arena = append(v.arena, key...)
		}
		v.restoreSlot(id, key, hashWords(key))
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
	Sel    string
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
			out = append(out, PendSnap{Pos: e.pos, Parent: e.parent, Sel: e.sel, Key: e.key})
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
