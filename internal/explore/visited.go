package explore

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/chaos"
	"repro/internal/par"
)

// Visited is the explorer's deduplication structure: a
// power-of-two-sharded open-addressing hash set over fixed-width binary
// state encodings, backed by a state arena of fixed-size pages keyed by
// dense state index. It has one write discipline and no lock: during an
// expansion fan-out a stripe is written only by the worker that owns it
// (owner; emit.go), on one node or a cluster peer, and between fan-outs
// by one goroutine (propose, Probe). The set leaves a layer through the
// one owner commit below. A fresh set can also be loaded whole, without
// probing (load): a checkpoint's arena, or a product family's seed
// layer, whose keys are known distinct.
//
// The BFS uses it in a two-phase rhythm that keeps every report
// byte-identical at any worker count:
//
//  1. During a layer expansion (concurrent), each successor is probed
//     by its stripe's owner: known states answer immediately, unknown
//     states become *pending* entries. A pending entry remembers the
//     least (item, branch) layer position that proposed it — a min merge
//     by the stripe's owner, so the surviving parent is the one a serial
//     loop would have picked regardless of which worker got there first
//     (and the selection a trace re-derives from it, that parent's
//     least branch to the state, is the one that loop would have
//     recorded). No production probe reads the spill file: a proposal
//     whose hash tag matches a spilled id (and no hot or pending key) is
//     *deferred* — parked in the stripe with that cold id.
//  2. Between layers, the owner commit runs in two halves. rank first
//     settles every stripe's deferred proposals in one serial sweep
//     (settle): the true duplicates are dropped and the tag collisions
//     probed into the pending set. Then each stripe owner sorts its own
//     pending entries by position and a serial merge ranks the owners'
//     runs. promote then has each owner write its entries' encodings
//     into the arena at their ranks — dense ids in exactly the serial
//     discovery order — up to a bound, tombstoning the rest. commit is
//     the two back to back; a cluster peer calls them apart, with the
//     coordinator's bound in between (peer.go). A checkpoint settles
//     first too. Settling changes only when a collision's pending entry
//     is made, never its least position, so the ids are those of an
//     immediate compare.
//
// Promoted encodings live only in the arena (slots store the id), so
// the steady-state cost per state is words*8 bytes of arena plus one
// 8-byte slot (amortized over the table's load factor). A product
// family of initial configurations registered by the seed (setFamily)
// holds no slot at all: its members' ids are computed from their keys
// (family.member), so the family costs its arena rows and a few small
// per-process tables.
//
// The arena grows by whole pages of pageStates states, which never
// move: a commit appends pages and writes rows into them, so growth
// never copies the rows already held.
//
// Two levers keep the structure scaling past its in-memory comfort
// zone, both exercised only between layers (Housekeep):
//
//   - The stripe-sharded table is *growable*: when the slotted count
//     outgrows the shard count, the whole table is redistributed over
//     twice as many shards. Slots are placed by their 32-bit hash tag
//     alone (see home), so neither this nor a stripe doubling reads a
//     key back — not even a spilled one. Probe chains and stripe
//     contention stay bounded at any state count instead of individual
//     shards ballooning.
//   - The *cold tail* of the arena can spill to a temp file under a
//     byte budget: ids below the hot watermark (states older than the
//     previous BFS layer — never the ones the current layer expands)
//     move to disk, the pages they fill wholly are freed, and they are
//     read back only at the commit's sorted sweep, or on the spot where
//     an answer is due at once: an at-cap membership check (Contains), a
//     settled collision's re-probe, a trace (Key), and Probe (bench/).
type Visited struct {
	words      int
	shards     []vshard
	smask      uint64
	shardShift uint // log2(len(shards)): slot index = tag >> shardShift

	// pages holds the in-memory promoted states: id n at
	// pages[n>>pageShift][(n&pageMask)*words:]. A page is allocated
	// whole when the first id on it is promoted and set to nil when
	// the spill has written every id on it; a page that holds baseID
	// keeps its spilled rows until the rest of it spills.
	pages    [][]uint64
	nstates  int
	fam      *family    // the seed's product family, or nil (setFamily)
	runs     [][]runRec // per-owner commit runs and their sort buffers, reused across
	spare    [][]runRec // layers (scratch, outside Bytes); settle borrows the first
	ranked   int        // the pending count rank ranked into runs; −1 once promote used it
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
	spilled     int64        // payload bytes written to spillFile
	coldReads   atomic.Int64 // read calls issued against spillFile (ColdReads)
}

const (
	slotEmpty int32 = -1 // never used
	slotTomb  int32 = -2 // dropped pending entry (capacity bound)
	slotPend  int32 = -3 // pending: pidx names the shard-local entry
)

// reshardPerShard is the slotted-state count per shard past which the
// table doubles its shard count (Housekeep). A variable so tests can
// force re-sharding on small instances.
var reshardPerShard = 1 << 15

// The arena's page size: pageStates states of words words each.
const (
	pageShift  = 12
	pageStates = 1 << pageShift
	pageMask   = pageStates - 1
)

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
	slots  []vslot
	filled int // non-empty slots, tombstones included (probe-chain load)
	pend   []pendEntry
	keys   []uint64 // backing storage for pending keys
	cold   []uint64 // scratch for comparing against spilled arena keys
	raw    []byte   // scratch for spilled-record reads
	// deferred holds the probes parked on a cold tag match until the
	// commit settles them (settle): words+3 uint64 per record, the key,
	// its hash, its position and parent<<32 | cold id.
	deferred []uint64
}

type pendEntry struct {
	hash   uint64
	pos    uint64 // least (item, branch) proposing this state
	parent int32
	slot   int32    // current slot index in the shard's table (grow updates it)
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
	v := &Visited{words: words, fs: chaos.OS, ranked: -1}
	v.setTables(64, 0)
	v.setOwners(1)
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
// inlined — the hash/fnv interface allocates a hasher per call.
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
		return v.arenaKey(id)
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
	if err := v.readSpill(raw, id); err != nil {
		return err
	}
	return v.record(id, raw, buf)
}

// readSpill fills raw with the spilled records from id on (a whole
// number of them), retrying transient read faults in place. Every call
// counts as one cold read.
func (v *Visited) readSpill(raw []byte, id int32) error {
	v.coldReads.Add(1)
	return chaos.Retry(context.Background(), chaos.DefaultPolicy, func() error {
		_, rerr := v.spillFile.ReadAt(raw, int64(id)*v.recSize())
		return rerr
	})
}

// record checks spilled record id (raw, len recSize) against its
// checksum and decodes its key into buf (len v.words).
func (v *Visited) record(id int32, raw []byte, buf []uint64) error {
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

// ColdReads reports the read calls issued against the spill file so
// far: the commit's sweep ranges, the reads made on the spot (at-cap
// membership checks, settled collisions' re-probes, Probe) and trace
// rebuilds.
func (v *Visited) ColdReads() int64 { return v.coldReads.Load() }

// Bytes reports the retained in-memory footprint of the dedup
// structures: arena pages plus slot tables plus pending buffers, entry
// structs included (the README/bench bytes-per-state accounting).
// Spilled arena bytes are excluded — they are the point of the spill —
// and reported separately via SpilledBytes.
func (v *Visited) Bytes() int64 {
	b := v.arenaBytes()
	for i := range v.shards {
		sh := &v.shards[i]
		b += int64(cap(sh.slots)) * 8
		b += int64(cap(sh.keys)) * 8
		b += int64(cap(sh.pend)) * int64(unsafe.Sizeof(pendEntry{}))
	}
	b += int64(cap(v.drainBuf)) * int64(unsafe.Sizeof(Fresh{}))
	// The owner runs are deliberately excluded: their shape depends on
	// the worker count, and StateBytes must be identical at any -j. So
	// are the stripes' deferred proposals, which every commit empties.
	return b
}

// Probe looks up key (with its precomputed hash) and, when absent,
// records it as pending with the proposing layer position and parent.
// When the key is already pending, the least position wins. Returns
// the promoted id (>= 0) when the state is already part of the arena,
// spilled ids and family members included (Probe compares the first on
// the spot and computes the second), or a negative value otherwise.
// sel is ignored: a trace re-derives each step's selection from its
// parent (layerDriver.trace). Serial phases only. Only bench/ (whose
// visited.probe_cold_ns pass needs a cold hit answered at once) and
// tests call it; the explorer defers cold tag matches (probeStripe).
func (v *Visited) Probe(key []uint64, hash uint64, pos uint64, parent int32, sel []byte) int32 {
	if v.fam != nil {
		if id := v.fam.member(key); id >= 0 {
			return id
		}
	}
	return v.probeStripe(&v.shards[hash&v.smask], key, hash, pos, parent, compareCold)
}

// SetSerial is a no-op, kept for bench/, which calls it: the set has no
// lock to skip, and Probe is serial already.
func (v *Visited) SetSerial(bool) {}

// propose is probeStripe with deferCold for a serial phase, which holds
// every stripe: a streamed seed and a restored pending set. Its keys are
// never family members (a streaming seed registers none).
func (v *Visited) propose(key []uint64, hash uint64, pos uint64, parent int32) {
	v.probeStripe(&v.shards[hash&v.smask], key, hash, pos, parent, deferCold)
}

// owner returns which of n stripe owners owns hash's stripe: owner o
// holds the stripes s with s·n/len(shards) = o (stripes).
func (v *Visited) owner(hash uint64, n int) int {
	return int(hash&v.smask) * n >> v.shardShift
}

// coldEqual compares spilled state id against key, reading its record
// through the caller's scratch: cold (len words) and raw (len recSize).
func (v *Visited) coldEqual(id int32, key, cold []uint64, raw []byte) bool {
	if err := v.readCold(id, cold, raw); err != nil {
		panic(ioPanic{err})
	}
	return wordsEqual(cold, key)
}

// scratch returns buf resliced to n, or a fresh slice if it is short.
func scratch[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// probeStripe's cold argument, for spilled ids whose tag matches.
const (
	deferCold   int32 = -1 // read none (every production probe)
	compareCold int32 = -2 // read each on the spot (Probe)
)

// probeStripe is Probe for a caller that holds stripe sh — by owning it
// for the fan-out in flight, or by running in a serial phase. A promoted slot
// is only compared on a 32-bit tag match. With deferCold no spilled id
// is read back: a proposal whose walk ends at an empty slot without
// meeting its key is deferred to settle under its first spilled tag
// match, with a negative return. Otherwise each spilled tag match is
// compared on the spot but cold itself, when it is an id: settle's
// re-probe of a collision skips the one its sweep compared.
func (v *Visited) probeStripe(sh *vshard, key []uint64, hash uint64, pos uint64, parent int32, cold int32) int32 {
	tag := int32(hash)
	_, idx := v.home(tag)
	mask := uint64(len(sh.slots) - 1)
	firstTomb := -1
	deferTo := int32(-1)
	for {
		s := &sh.slots[idx]
		switch {
		case s.ref == slotEmpty:
			if deferTo >= 0 {
				sh.deferred = append(sh.deferred, key...)
				sh.deferred = append(sh.deferred, hash, pos, uint64(uint32(parent))<<32|uint64(uint32(deferTo)))
				return slotPend
			}
			at := int(idx)
			if firstTomb >= 0 {
				at = firstTomb
			} else {
				sh.filled++
			}
			v.insertPending(sh, at, key, hash, pos, parent)
			if sh.filled*3 > len(sh.slots)*2 {
				v.grow(sh)
			}
			return slotPend
		case s.ref == slotTomb:
			if firstTomb < 0 {
				firstTomb = int(idx)
			}
		case s.ref >= 0:
			switch {
			case s.pidx != tag:
			case s.ref >= v.baseID:
				if wordsEqual(v.arenaKey(s.ref), key) {
					return s.ref
				}
			case cold == deferCold:
				if deferTo < 0 {
					deferTo = s.ref
				}
			case s.ref != cold:
				sh.cold, sh.raw = scratch(sh.cold, v.words), scratch(sh.raw, int(v.recSize()))
				if v.coldEqual(s.ref, key, sh.cold, sh.raw) {
					return s.ref
				}
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
// state bound is already exhausted — nothing inserts then, so any
// number of goroutines may read at once.
func (v *Visited) Contains(key []uint64, hash uint64) bool {
	return v.fam != nil && v.fam.member(key) >= 0 || v.slotted(key, hash)
}

// slotted is Contains for a key known to be outside the family: the
// slot table alone, with a spilled tag match compared on the spot.
// (Its cold reads go through scratch declared where they happen, or a
// fresh buffer for keys wider than four words: concurrent readers may
// share a stripe, so they cannot share its scratch.)
func (v *Visited) slotted(key []uint64, hash uint64) bool {
	tag := int32(hash)
	shIdx, idx := v.home(tag)
	sh := &v.shards[shIdx]
	mask := uint64(len(sh.slots) - 1)
	for {
		s := &sh.slots[idx]
		switch {
		case s.ref == slotEmpty:
			return false
		case s.ref == slotTomb:
		case s.ref >= 0 && s.pidx != tag:
		case s.ref >= v.baseID:
			if wordsEqual(v.arenaKey(s.ref), key) {
				return true
			}
		case s.ref >= 0:
			var coldArr [4]uint64
			var rawArr [40]byte // recSize for up to 4 words
			if v.coldEqual(s.ref, key, scratch(coldArr[:], v.words), scratch(rawArr[:], int(v.recSize()))) {
				return true
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
	off := int(id&pageMask) * v.words
	return v.pages[id>>pageShift][off : off+v.words : off+v.words]
}

// growArena appends pages until ids below n have one. A page is
// allocated whole and never moves, so the rows already held are never
// copied.
func (v *Visited) growArena(n int) {
	for len(v.pages)<<pageShift < n {
		v.pages = append(v.pages, make([]uint64, pageStates*v.words))
	}
}

// arenaBytes is the arena's in-memory footprint: its live pages.
func (v *Visited) arenaBytes() int64 {
	var b int64
	for _, p := range v.pages {
		b += int64(cap(p)) * 8
	}
	return b
}

func wordsEqual(a, b []uint64) bool {
	for i, w := range b {
		if a[i] != w {
			return false
		}
	}
	return true
}

func (v *Visited) insertPending(sh *vshard, at int, key []uint64, hash uint64, pos uint64, parent int32) {
	off := len(sh.keys)
	sh.keys = append(sh.keys, key...)
	sh.pend = append(sh.pend, pendEntry{
		hash: hash, pos: pos, parent: parent, slot: int32(at),
		key: sh.keys[off : off+v.words : off+v.words],
	})
	sh.slots[at] = vslot{ref: slotPend, pidx: int32(len(sh.pend) - 1)}
}

// grow doubles a shard's slot table, dropping tombstones. Every
// slot is re-placed from its tag (a pending slot's is its entry's hash),
// so no key is read — a spilled one included.
func (v *Visited) grow(sh *vshard) {
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
// entry's rank in the layer's promotion order. (settle sorts deferred
// proposals in the same records, keyed by cold id.)
type runRec struct {
	pos         uint64
	shard, pidx int32
}

func byPos(a, b runRec) int { return cmp.Compare(a.pos, b.pos) }

// stripes returns the stripes [lo, hi) that owner o of n owns: those
// with s·n/len(shards) = o, the rule owner routes successors by.
func (v *Visited) stripes(o, n int) (lo, hi int) {
	s := len(v.shards)
	return (o*s + n - 1) / n, ((o+1)*s + n - 1) / n
}

// ownerRun gathers owner o's (of n) stripes' pending entries into its
// run, sorted by position.
func (v *Visited) ownerRun(o, n int) []runRec {
	run := v.runs[o][:0]
	lo, hi := v.stripes(o, n)
	for s := lo; s < hi; s++ {
		for j := range v.shards[s].pend {
			run = append(run, runRec{v.shards[s].pend[j].pos, int32(s), int32(j)})
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
// positions span a few low bytes of item index and of branch, and a
// settle's cold ids the low bytes of the spilled id range.
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

// The settle's coalescing bounds: one read spans deferred cold ids at
// most sweepGap bytes of records apart, and at most sweepChunk bytes
// in all. A gap costs a copy out of the page cache, a split costs a
// system call; their break-even is a few KiB, and the chunk bounds the
// read buffer.
const (
	sweepGap   = 16 << 10
	sweepChunk = 128 << 10
)

// settle resolves every stripe's deferred proposals in one serial
// sweep: sorted by cold id, the spilled records they name are read in
// ascending ranges — a cold id at most sweepGap bytes past the last
// joins its read, up to sweepChunk bytes — and a proposal whose key is
// its record's is a duplicate and vanishes. Any other is a tag
// collision, probed again after the sweep under its own position and
// parent with the other spilled tag matches compared on the spot, so
// the pending set is the one an immediate compare would have built. A
// failed or corrupt cold read comes back as the error. The sort borrows
// the first owner's run buffers, which rank fills only afterwards (a
// proposal is a runRec whose pos is its cold id and whose pidx is its
// record's index in the stripe's deferred buffer), and the reads go
// through stripe 0's scratch. Between layers or chunks only.
func (v *Visited) settle() (err error) {
	defer catchIO(&err)
	rw := v.words + 3
	refs := v.runs[0][:0]
	for s := range v.shards {
		d := v.shards[s].deferred
		for i := 0; i*rw < len(d); i++ {
			refs = append(refs, runRec{pos: uint64(uint32(d[i*rw+rw-1])), shard: int32(s), pidx: int32(i)})
		}
	}
	if len(refs) == 0 {
		return nil
	}
	refs, v.spare[0] = sortRun(refs, v.spare[0])
	v.runs[0] = refs
	sh0, rs := &v.shards[0], v.recSize()
	sh0.cold = scratch(sh0.cold, v.words)
	collisions := refs[:0] // overwrites only records already swept
	for i := 0; i < len(refs); {
		first, j := int32(refs[i].pos), i+1
		for j < len(refs) && int64(refs[j].pos-refs[j-1].pos)*rs <= sweepGap && (int64(refs[j].pos)-int64(first)+1)*rs <= sweepChunk {
			j++
		}
		size := (int64(refs[j-1].pos) - int64(first) + 1) * rs
		sh0.raw = scratch(sh0.raw, int(max(size, sweepChunk)))
		raw := sh0.raw[:size]
		if err := v.readSpill(raw, first); err != nil {
			panic(ioPanic{err})
		}
		decoded := int32(-1)
		for _, r := range refs[i:j] {
			if id := int32(r.pos); id != decoded {
				at := int64(id-first) * rs
				if err := v.record(id, raw[at:at+rs], sh0.cold); err != nil {
					panic(ioPanic{err})
				}
				decoded = id
			}
			if !wordsEqual(sh0.cold, v.shards[r.shard].deferred[int(r.pidx)*rw:][:v.words]) {
				collisions = append(collisions, r)
			}
		}
		i = j
	}
	for _, r := range collisions {
		rec := v.shards[r.shard].deferred[int(r.pidx)*rw:][:rw]
		v.probeStripe(&v.shards[r.shard], rec[:v.words], rec[v.words], rec[v.words+1], int32(rec[v.words+2]>>32), int32(r.pos))
	}
	for s := range v.shards {
		v.shards[s].resetDeferred()
	}
	return nil
}

// commit promotes the pending entries in position order under the
// next dense ids — at most room of them (room < 0: all), the rest
// become tombstones — and sets their trace links: rank, then promote.
// It returns the promoted and the pending counts, or the failure of a
// cold read. Between layers only.
func (v *Visited) commit(owners, room int, links *TraceLinks) (kept, pending int, err error) {
	if pending, err = v.rank(owners); err != nil {
		return 0, 0, err
	}
	kept = pending
	if room >= 0 {
		kept = min(kept, room)
	}
	v.promote(kept, links)
	return kept, pending, nil
}

// rank is the commit's first half. It settles the deferred proposals
// (settle), then owners goroutines share it, each on the stripes it
// owns during an expansion fan-out (emit.go): every owner sorts its own
// pending entries into a run, and a serial merge ranks the runs. It
// returns the pending count, or the failure of a cold read. Between
// layers only; ranking again re-reads the entries' positions, so it may
// be repeated until promote consumes the ranks.
func (v *Visited) rank(owners int) (pending int, err error) {
	v.setOwners(owners)
	if err = v.settle(); err != nil {
		return 0, err
	}
	par.ForEachWorker(owners, owners, func(_, o int) { v.ownerRun(o, owners) })
	v.ranked = rankRuns(v.runs)
	return v.ranked, nil
}

// promote is the commit's second half: the pending entries ranked
// below kept take the next dense ids in rank order — arena rows, slots
// and, unless links is nil, trace links — and the rest become
// tombstones. The owners that ranked share the work, each writing its
// entries at their ranks (disjoint, so no two owners write the same
// row) and clearing its stripes' pending buffers.
func (v *Visited) promote(kept int, links *TraceLinks) {
	if kept > v.ranked {
		panic("explore: promoting more entries than were ranked")
	}
	owners, runs := len(v.runs), v.runs
	first := int32(v.nstates)
	v.growArena(v.nstates + kept)
	link := 0
	if links != nil {
		link = links.Extend(kept)
	}
	par.ForEachWorker(owners, owners, func(_, o int) {
		for _, r := range runs[o] {
			sh := &v.shards[r.shard]
			ref, rank := slotTomb, int(r.pos)
			if rank < kept {
				e := &sh.pend[r.pidx]
				ref = first + int32(rank)
				copy(v.arenaKey(ref), e.key)
				if links != nil {
					links.Set(link+rank, e.parent)
				}
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
	v.ranked = -1
}

// Drain settles the deferred proposals, then collects the pending
// entries of all shards, sorted by layer position — the deterministic
// promotion order. It is rank's one-owner run, for callers that promote
// entry by entry (bench/ and tests). Between layers only, from one
// goroutine; the returned slice is reused by the next Drain.
func (v *Visited) Drain() []Fresh {
	v.setOwners(1)
	v.ranked = -1 // the run holds positions, not ranks
	if err := v.settle(); err != nil {
		panic(ioPanic{err})
	}
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
// encoding to the arena — promote's per-entry step, for one goroutine
// between layers (bench/ and tests). Every drained entry must be
// promoted before Reset.
func (v *Visited) Promote(f Fresh) int32 {
	id := int32(v.nstates)
	sh := &v.shards[f.shard]
	v.growArena(v.nstates + 1)
	copy(v.arenaKey(id), sh.pend[f.pidx].key)
	v.nstates++
	v.setRef(sh, f.pidx, id)
	return id
}

// setRef settles pending entry pidx of stripe sh as ref (an id or a
// tombstone). O(1): the entry remembers its current slot (grow
// keeps it current), so settling does not re-walk the probe chain.
func (v *Visited) setRef(sh *vshard, pidx, ref int32) {
	e := &sh.pend[pidx]
	s := &sh.slots[e.slot]
	if s.ref != slotPend || s.pidx != pidx {
		panic("explore: pending entry does not own its recorded slot")
	}
	s.ref, s.pidx = ref, int32(e.hash)
}

// Reset clears the pending side after a Drain and its Promotes,
// reusing the buffers (bench/ and tests). Serial phases only.
func (v *Visited) Reset() {
	for i := range v.shards {
		v.shards[i].resetPend()
	}
}

// resetDeferred empties the stripe's deferred proposals, with
// resetPend's rule for the slack.
func (sh *vshard) resetDeferred() {
	if cap(sh.deferred) > 2*len(sh.deferred)+256 {
		sh.deferred = nil
	} else {
		sh.deferred = sh.deferred[:0]
	}
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

// Housekeep runs the serial-phase scaling maintenance after a
// promotion batch: re-sharding the table when the slotted-state count
// (family members hold no slot) outgrew it, then spilling the cold
// arena tail (ids below hotFrom — states older than the previous BFS
// layer) once the in-memory arena exceeds its budget. Must only be
// called with no pending entries.
func (v *Visited) Housekeep(hotFrom int32) error {
	for i := range v.shards {
		if len(v.shards[i].pend) != 0 || len(v.shards[i].deferred) != 0 {
			panic("explore: Housekeep with pending entries")
		}
	}
	for v.nslotted() > len(v.shards)*reshardPerShard {
		v.reshard()
	}
	return v.maybeSpillArena(hotFrom)
}

// reshard doubles the shard count and redistributes the old slot tables
// into the new ones by tag — no key is read, so a spilled arena stays on
// disk. Tombstones are dropped; pending entries must not exist.
func (v *Visited) reshard() {
	old := v.setTables(2*len(v.shards), v.nslotted())
	for i := range old {
		for _, s := range old[i].slots {
			if s.ref >= 0 {
				v.restoreSlot(s.ref, s.pidx)
			}
		}
	}
}

// nslotted is the number of promoted states that hold a slot: all but
// the family's.
func (v *Visited) nslotted() int { return v.nstates - v.fam.len() }

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
		v.grow(sh)
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
			if err := v.record(id, raw, key); err != nil {
				return fmt.Errorf("explore: arena scan: %w", err)
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
// when the in-memory arena, (States − baseID) rows, exceeds its budget.
// Sequential append; the pages those ids fill wholly are freed, and the
// page holding hotFrom stays until the rest of it spills.
func (v *Visited) maybeSpillArena(hotFrom int32) error {
	if v.arenaBudget <= 0 || int64(v.nstates-int(v.baseID))*int64(v.words)*8 <= v.arenaBudget || hotFrom <= v.baseID {
		return nil
	}
	if err := v.createSpill(); err != nil {
		return fmt.Errorf("explore: arena spill: %w", err)
	}
	w := bufio.NewWriterSize(io.NewOffsetWriter(v.spillFile, int64(v.baseID)*v.recSize()), 1<<20)
	rec := make([]byte, v.recSize())
	for id := v.baseID; id < hotFrom; id++ {
		if _, err := w.Write(v.putRecord(rec, v.arenaKey(id))); err != nil {
			return fmt.Errorf("explore: arena spill: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("explore: arena spill: %w", err)
	}
	v.spilled += int64(hotFrom-v.baseID) * int64(v.words) * 8
	for p := int(v.baseID) >> pageShift; (p+1)<<pageShift <= int(hotFrom); p++ {
		v.pages[p] = nil
	}
	v.baseID = hotFrom
	return nil
}

// createSpill opens the spill file, once.
func (v *Visited) createSpill() error {
	if v.spillFile != nil {
		return nil
	}
	return chaos.Retry(context.Background(), chaos.DefaultPolicy, func() error {
		f, err := v.fs.CreateTemp(v.spillDir, "cc-arena-")
		if err != nil {
			return err
		}
		v.spillFile = f
		return nil
	})
}

// putRecord encodes key as a spill record into rec (len recSize): the
// payload words, then their FNV-64a checksum.
func (v *Visited) putRecord(rec []byte, key []uint64) []byte {
	for i, word := range key {
		binary.LittleEndian.PutUint64(rec[8*i:], word)
	}
	binary.LittleEndian.PutUint64(rec[8*v.words:], fnv64a(rec[:8*v.words]))
	return rec
}

// RestoreArena rebuilds the set from a checkpoint stream of nstates
// keys (id order). Ids below hotFrom go straight to the spill file
// when a budget is configured and the arena would exceed it — a
// restored out-of-core run never materializes the full arena in
// memory. The ids of a registered family must hold its members, in
// order. Must be called on a fresh set (no promotions, no pending).
func (v *Visited) RestoreArena(r io.Reader, nstates int, hotFrom int32) error {
	spillTo := int32(0)
	if v.arenaBudget > 0 && int64(nstates)*int64(v.words)*8 > v.arenaBudget {
		spillTo = hotFrom
	}
	br := bufio.NewReaderSize(r, 1<<20)
	raw := make([]byte, 8*v.words)
	id := int32(0)
	return v.load(nstates, spillTo, func(key []uint64) error {
		if _, err := io.ReadFull(br, raw); err != nil {
			return fmt.Errorf("explore: arena restore: %v", err)
		}
		for i := range key {
			key[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		if int(id) < v.fam.len() && v.fam.member(key) != id {
			return fmt.Errorf("explore: arena restore: state %d is not the initial configuration it names", id)
		}
		id++
		return nil
	})
}

// load fills a fresh set with nstates promoted keys, which next writes
// one per call in id order: ids below spillTo go to the spill file, the
// rest to the arena, and each outside the family gets its slot. The
// slot tables are presized by the same growth rule a live run would
// have reached, then filled by insertion. The keys must be distinct;
// nothing here checks.
func (v *Visited) load(nstates int, spillTo int32, next func(key []uint64) error) error {
	if v.nstates != 0 || v.Pending() != 0 || nstates < v.fam.len() {
		panic("explore: loading a non-empty set, or fewer states than its family")
	}
	// Re-apply the shard-count growth rule a live run would have
	// reached, and presize the slot tables for the final load.
	slotted := nstates - v.fam.len()
	nshards := len(v.shards)
	for slotted > nshards*reshardPerShard {
		nshards *= 2
	}
	v.setTables(nshards, slotted)
	var spillW *bufio.Writer
	if spillTo > 0 {
		if err := v.createSpill(); err != nil {
			return fmt.Errorf("explore: arena restore: %w", err)
		}
		spillW = bufio.NewWriterSize(io.NewOffsetWriter(v.spillFile, 0), 1<<20)
		v.baseID = spillTo
		// The pages spillTo fills wholly are never allocated.
		v.pages = make([][]uint64, spillTo>>pageShift)
	}
	v.growArena(nstates)
	rec := make([]byte, v.recSize())
	key := make([]uint64, v.words)
	for id := int32(0); int(id) < nstates; id++ {
		if err := next(key); err != nil {
			return err
		}
		if id < spillTo {
			if _, err := spillW.Write(v.putRecord(rec, key)); err != nil {
				return fmt.Errorf("explore: arena restore: %w", err)
			}
			v.spilled += int64(8 * v.words)
		} else {
			copy(v.arenaKey(id), key)
		}
		if int(id) >= v.fam.len() {
			v.restoreSlot(id, int32(hashWords(key)))
		}
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
