package explore

import (
	"math/bits"
	"unsafe"

	"repro/internal/par"
	"repro/internal/sim"
)

// This file is the batch pipeline's local-transition cache: a process's
// move is computed once per neighbourhood, not once per expanded state.
//
// Every guard and body of process p reads only p and the processes in
// Prog.Locality(p) (the program's declared read set), so p's chosen
// action, its applied block payload, its post S/P fields and its
// SpecNeutral bit are a function of those processes' codec blocks —
// exactly, not heuristically: the CC model freezes the environment
// eager and pins nondeterministic choice to core.ChooseFirst, so
// nothing else feeds a move. The key is therefore p plus the bits of
// those blocks, read straight out of the parent's encoding; a BFS
// re-meets the same neighbourhood in many configurations, and a hit
// skips p's guard walk, Clone, Apply and EncodeProc.
//
// Three cases never look anything up. A process whose read set is every
// process has a key that names the whole configuration, which the BFS
// expands once, so it could never hit (all of ring:3, star hubs). A
// process whose key is over 128 bits is left out to keep an entry four
// words. A worker with no cacheable process, or whose kernel lacks the
// localKernel capability (the generic kernels of the baselines and of
// mutated programs), has no cache at all and treats every process as a
// miss.
//
// The table is a worker's own two-way set-associative array of 64-byte
// buckets, sized from its own misses: it starts at localStart entries
// and doubles whenever it has missed as many times as it has entries
// since it last grew, up to localEntries. Like the successor filter it
// is scratch outside Visited.Bytes and StateBytes.

// localKernel is the capability a batch kernel declares to serve the
// cache: Eval that takes known moves (EvalHits), and its recorded post
// S/P fields as a word it can be handed back (Post, SetPost). core.Kernel
// implements it.
type localKernel[S sim.Cloneable[S]] interface {
	batchEval[S]
	// EvalHits is Eval where every process p in hit takes acts[p] (an
	// action index, or -1) instead of walking its guards.
	EvalHits(cfg []S, hit uint64, acts []int) uint64
	// Post returns the post S/P word the last Apply of p recorded.
	Post(p int) uint32
	// SetPost records p's post S/P word in place of applying its body.
	SetPost(p int, post uint32)
}

// localCacheBytes is the most a worker's table may grow to.
const localCacheBytes = 512 << 10

// localEntries is the entry cap of a worker's table (a power of two, at
// least 2): localCacheBytes of entries. A variable so tests can shrink it
// to force constant collision and eviction.
var localEntries = localCacheBytes / int(unsafe.Sizeof(localEntry{}))

// localStart is the entry count a table starts at.
const localStart = 256

// localEntry is one cached move. meta is 0 for an empty slot, else the
// post S/P word in bits 0–31, the action plus one in bits 32–47, the
// process plus one in bits 48–55 and the SpecNeutral bit in bit 63.
type localEntry struct {
	key     [2]uint64
	payload uint64
	meta    uint64
}

// localBucket is one cache line of the table: two entries, the one
// filled last first.
type localBucket [2]localEntry

const (
	metaActShift  = 32
	metaProcShift = 48
	metaNeutral   = 63
)

// keySeg is a run of adjacent codec blocks: width bits at bit offset off
// of the encoding, placed at bit at of the key.
type keySeg struct{ off, width, at int }

// localCache is one worker's table plus the per-expansion record of what
// lookup found, which the rest of the expansion reads instead of the
// table: a miss filled later in the same expansion may overwrite the
// entry a hit came from.
type localCache struct {
	cacheable uint64     // processes that look up
	segs      [][]keySeg // per cacheable process: its key's runs
	tab       []localBucket
	shift     uint // bucket = hash >> shift
	max       int  // localEntries at construction
	misses    int  // fills since the table last grew

	// Written by lookup for the state in flight.
	key  [][2]uint64
	act  []int
	post []uint32

	lookups, hits int64
}

// newLocalCache compiles the key layout of m's cacheable processes, or
// returns nil when there are none (no Locality declaration, or every
// process reads every process or more than 128 bits).
func newLocalCache[S sim.Cloneable[S]](m *Model[S]) *localCache {
	n := m.Prog.NumProcs // at most 64: the batch pipeline's bound
	if m.Prog.Locality == nil {
		return nil
	}
	var reads [64]uint64
	var cacheable uint64
	for p := 0; p < n; p++ {
		read := uint64(1) << uint(p)
		for _, q := range m.Prog.Locality(p) {
			read |= 1 << uint(q)
		}
		width := 0
		for rm := read; rm != 0; rm &= rm - 1 {
			width += m.Codec.ProcBits[bits.TrailingZeros64(rm)]
		}
		if bits.OnesCount64(read) < n && width <= 128 {
			reads[p] = read
			cacheable |= 1 << uint(p)
		}
	}
	if cacheable == 0 {
		return nil
	}
	// The struct's counters are written per expansion: a whole line of
	// its own keeps them off other workers' lines.
	c := &par.PrivateSlice[localCache](1)[0]
	c.cacheable = cacheable
	c.segs = par.PrivateSlice[[]keySeg](n)
	for rest := cacheable; rest != 0; rest &= rest - 1 {
		p := bits.TrailingZeros64(rest)
		c.segs[p] = keySegs(m.Codec.ProcOff, m.Codec.ProcBits, reads[p])
	}
	c.max = localEntries
	c.resize(min(localStart, c.max))
	c.key = par.PrivateSlice[[2]uint64](n)
	c.act = par.PrivateSlice[int](n)
	c.post = par.PrivateSlice[uint32](n)
	return c
}

// keySegs lays the blocks of the processes in read out as key runs in
// process order, joining a block to the run before it when it follows
// that run in the encoding and the run still fits a word.
func keySegs(off, width []int, read uint64) []keySeg {
	var segs []keySeg
	at := 0
	for rm := read; rm != 0; rm &= rm - 1 {
		q := bits.TrailingZeros64(rm)
		if k := len(segs) - 1; k >= 0 && segs[k].off+segs[k].width == off[q] && segs[k].width+width[q] <= 64 {
			segs[k].width += width[q]
		} else {
			segs = append(segs, keySeg{off: off[q], width: width[q], at: at})
		}
		at += width[q]
	}
	return segs
}

// resize replaces the table by an empty one of n entries (a power of
// two, at least 2) and re-places the old entries, older ones first so
// each bucket keeps its order. Doubling maps old bucket i to 2i or
// 2i+1, so no entry is lost.
func (c *localCache) resize(n int) {
	old := c.tab
	c.tab = make([]localBucket, n/2)
	c.shift = uint(64 - bits.TrailingZeros(uint(n/2)))
	for i := range old {
		for w := len(old[i]) - 1; w >= 0; w-- {
			if e := &old[i][w]; e.meta != 0 {
				c.put(*e)
			}
		}
	}
	c.misses = 0
}

// bucket hashes a key and its process to their bucket.
func (c *localCache) bucket(k [2]uint64, p int) *localBucket {
	h := k[0]*0x9e3779b97f4a7c15 ^ k[1]*0xc2b2ae3d27d4eb4f ^ uint64(p+1)*0x165667b19e3779f9
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return &c.tab[h>>c.shift]
}

// holds reports whether e is the entry of key k of process p: the whole
// key and the process, compared on every hit.
func (e *localEntry) holds(k [2]uint64, p int) bool {
	return e.key == k && int(e.meta>>metaProcShift&0xff) == p+1
}

// put files e as the first entry of its bucket, evicting the bucket's
// older entry.
func (c *localCache) put(e localEntry) {
	b := c.bucket(e.key, int(e.meta>>metaProcShift&0xff)-1)
	b[1], b[0] = b[0], e
}

// keyOf assembles p's key from the encoding parent.
func (c *localCache) keyOf(parent []uint64, p int) (k [2]uint64) {
	for _, s := range c.segs[p] {
		r := bitReader{src: parent, bit: s.off}
		v := r.get(s.width)
		if s.at < 64 {
			k[0] |= v << s.at
			if s.at+s.width > 64 {
				k[1] |= v >> (64 - s.at)
			}
		} else {
			k[1] |= v << (s.at - 64)
		}
	}
	return k
}

// lookup looks every cacheable process of the state encoded by parent
// up. For each hit p it copies the move out of the table there and
// then: act[p] and post[p] here, the payload into payload[p], the
// SpecNeutral bit into neutral. It returns the hit processes.
func (c *localCache) lookup(parent []uint64, payload []uint64) (hit, neutral uint64) {
	for rest := c.cacheable; rest != 0; rest &= rest - 1 {
		p := bits.TrailingZeros64(rest)
		k := c.keyOf(parent, p)
		c.key[p] = k
		b := c.bucket(k, p)
		e := &b[0]
		if !e.holds(k, p) {
			if e = &b[1]; !e.holds(k, p) {
				continue
			}
		}
		hit |= 1 << uint(p)
		c.act[p] = int(e.meta>>metaActShift&0xffff) - 1
		c.post[p] = uint32(e.meta)
		payload[p] = e.payload
		neutral |= e.meta >> metaNeutral << uint(p)
	}
	c.lookups += int64(bits.OnesCount64(c.cacheable))
	c.hits += int64(bits.OnesCount64(hit))
	return hit, neutral
}

// fillLocal records in c the moves of the cacheable processes lookup
// missed, as k chose and applied them for the state in flight (the
// payloads in payload, the SpecNeutral bits in neutral), and grows the
// table once it has missed as many times as it has entries.
func fillLocal[S sim.Cloneable[S]](c *localCache, k localKernel[S], hit, neutral uint64, payload []uint64) {
	for rest := c.cacheable &^ hit; rest != 0; rest &= rest - 1 {
		p := bits.TrailingZeros64(rest)
		act := k.Action(p)
		meta := uint64(uint16(act+1))<<metaActShift | uint64(p+1)<<metaProcShift
		var pay uint64
		if act >= 0 {
			meta |= uint64(k.Post(p)) | neutral>>uint(p)&1<<metaNeutral
			pay = payload[p]
		}
		c.put(localEntry{key: c.key[p], payload: pay, meta: meta})
		c.misses++
	}
	if n := 2 * len(c.tab); c.misses >= n && n < c.max {
		c.resize(2 * n)
	}
}

// localCounts sums the workers' cache counters (RunStats.LocalLookups,
// LocalHits).
func localCounts[S sim.Cloneable[S]](wss []*workerState[S]) (lookups, hits int64) {
	for _, ws := range wss {
		if ws.local != nil {
			lookups += ws.local.lookups
			hits += ws.local.hits
		}
	}
	return lookups, hits
}
