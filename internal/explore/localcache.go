package explore

import (
	"math/bits"
	"unsafe"

	"repro/internal/hypergraph"
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
// The same blocks fix every spec read the expansion makes about p: its
// S/P fields, Correct(p) and the Meets value of each committee of E_p
// (whose members are p's G_H neighbours, its Locality). An entry stores
// them too, so a state whose every process hits is never decoded: the
// kernel takes its columns from the table (localKernel.SetParent), and
// only a state with a miss is decoded and judged committee by
// committee. An entry also records whether p's block is in none of the
// seed family's inits (expandBatch's out mask).
//
// Three cases never look anything up. A process whose read set is every
// process has a key that names the whole configuration, which the BFS
// expands once, so it could never hit (all of ring:3, star hubs). A
// process whose key is over 128 bits is left out to keep an entry four
// words. A worker with no cacheable process, or whose kernel lacks the
// localKernel capability (the generic kernels of the baselines and of
// mutated programs), has no cache at all and treats every process as a
// miss. A worker with a process that does not look up, or with more
// than metaMeetsBits committees at one process, decodes every state.
//
// The table is a worker's own two-way set-associative array of 64-byte
// buckets, sized from its own misses: it starts at localStart entries
// and doubles whenever it has missed as many times as it has entries
// since it last grew, up to localEntries. Like the successor filter it
// is scratch outside Visited.Bytes and StateBytes.

// localKernel is the capability a batch kernel declares to serve the
// cache: Eval that takes known moves (EvalHits) or known parent columns
// (SetParent), and its recorded S/P fields as words it can be handed
// back (Pre, Post, SetPost). core.Kernel implements it.
type localKernel[S sim.Cloneable[S]] interface {
	batchEval[S]
	// EvalHits is Eval where every process p in hit takes acts[p] (an
	// action index, or -1) instead of walking its guards.
	EvalHits(cfg []S, hit uint64, acts []int) uint64
	// SetParent is Eval with nothing left to judge: every process p
	// takes acts[p], its S/P word pre[p] and Correct bit p of correct,
	// and every committee e the Meets bit e of meets. It returns the
	// enabled set; the batchEval reads answer as after Eval.
	SetParent(pre []uint16, correct, meets uint64, acts []int) uint64
	// Pre returns p's S/P word in the configuration of the last Eval.
	Pre(p int) uint16
	// Post returns the post S/P word the last Apply of p recorded.
	Post(p int) uint16
	// SetPost records p's post S/P word in place of applying its body.
	SetPost(p int, post uint16)
}

// localCacheBytes is the most a worker's table may grow to.
const localCacheBytes = 512 << 10

// localEntries is the entry cap of a worker's table (a power of two, at
// least 2): localCacheBytes of entries. A variable so tests can shrink it
// to force constant collision and eviction.
var localEntries = localCacheBytes / int(unsafe.Sizeof(localEntry{}))

// localStart is the entry count a table starts at.
const localStart = 256

// localEntry is one cached move and the parent's spec bits about its
// process. meta is 0 for an empty slot, else:
//
//	bits  0–15  the post S/P word (localKernel.Post)
//	bits 16–31  the pre S/P word (localKernel.Pre)
//	bits 32–39  the action plus one
//	bits 40–47  the process plus one
//	bit  48     SpecNeutral
//	bit  49     Correct(p)
//	bit  50     p's block is in no init of the seed's family
//	bits 51–63  Meets of the committees of E_p, in EdgesOf order
type localEntry struct {
	key     [2]uint64
	payload uint64
	meta    uint64
}

// localBucket is one cache line of the table: two entries, the one
// filled last first.
type localBucket [2]localEntry

const (
	metaPreShift   = 16
	metaActShift   = 32
	metaProcShift  = 40
	metaNeutral    = 48
	metaCorrect    = 49
	metaOut        = 50
	metaMeetsShift = 51
	metaMeetsBits  = 64 - metaMeetsShift
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

	// skipDecode: every process looks up and an entry holds the Meets
	// bits of all its committees, so a state whose every process hits
	// needs no decode. edges[p] is E_p; committee e's Meets bit is bit
	// meetsBit[e] of the entry of its member meetsOwner[e].
	skipDecode bool
	edges      [][]int
	meetsOwner []int
	meetsBit   []uint8

	// Written by lookup for the state in flight: per process, and for
	// correct and out a bit per hit process.
	key          [][2]uint64
	act          []int
	post, pre    []uint16
	meets        []uint64
	correct, out uint64

	lookups, hits, allHits int64
}

// newLocalCache compiles the key layout of m's cacheable processes, or
// returns nil when there are none (no Locality declaration, or every
// process reads every process or more than 128 bits) or when the
// program has more actions than an entry's action field holds.
func newLocalCache[S sim.Cloneable[S]](m *Model[S]) *localCache {
	n := m.Prog.NumProcs // at most 64: the batch pipeline's bound
	if m.Prog.Locality == nil || len(m.Prog.Actions) >= 0xff {
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
	c.post = par.PrivateSlice[uint16](n)
	c.pre = par.PrivateSlice[uint16](n)
	c.meets = par.PrivateSlice[uint64](n)
	c.compileMeets(m.Probe.H, n)
	return c
}

// compileMeets sets skipDecode, and the committee-to-entry map it needs,
// when every one of the n processes looks up, is a professor of h, and
// has at most metaMeetsBits committees, and every committee has a
// member.
func (c *localCache) compileMeets(h *hypergraph.H, n int) {
	if c.cacheable != 1<<uint(n)-1 || h.N() != n {
		return
	}
	c.edges = par.PrivateSlice[[]int](n)
	c.meetsOwner = par.PrivateSlice[int](h.M())
	c.meetsBit = par.PrivateSlice[uint8](h.M())
	for e := range c.meetsOwner {
		c.meetsOwner[e] = -1
	}
	for p := n - 1; p >= 0; p-- {
		c.edges[p] = h.EdgesOf(p)
		if len(c.edges[p]) > metaMeetsBits {
			return
		}
		for i, e := range c.edges[p] {
			c.meetsOwner[e], c.meetsBit[e] = p, uint8(i)
		}
	}
	for _, p := range c.meetsOwner {
		if p < 0 {
			return
		}
	}
	c.skipDecode = true
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
// up. For each hit p it copies the entry out of the table there and
// then: act[p], post[p], pre[p], meets[p] and bit p of correct and out
// here, the payload into payload[p], the SpecNeutral bit into neutral.
// It returns the hit processes.
func (c *localCache) lookup(parent []uint64, payload []uint64) (hit, neutral uint64) {
	var correct, out uint64
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
		meta := e.meta
		hit |= 1 << uint(p)
		c.act[p] = int(meta>>metaActShift&0xff) - 1
		c.post[p] = uint16(meta)
		c.pre[p] = uint16(meta >> metaPreShift)
		c.meets[p] = meta >> metaMeetsShift
		payload[p] = e.payload
		neutral |= meta >> metaNeutral & 1 << uint(p)
		correct |= meta >> metaCorrect & 1 << uint(p)
		out |= meta >> metaOut & 1 << uint(p)
	}
	c.correct, c.out = correct, out
	c.lookups += int64(bits.OnesCount64(c.cacheable))
	c.hits += int64(bits.OnesCount64(hit))
	return hit, neutral
}

// setParent hands k the state lookup found whole (skipDecode, every
// process a hit) in place of decoding and judging it, and returns the
// enabled set.
func setParent[S sim.Cloneable[S]](c *localCache, k localKernel[S]) uint64 {
	var meets uint64
	for e, p := range c.meetsOwner {
		meets |= c.meets[p] >> c.meetsBit[e] & 1 << uint(e)
	}
	c.allHits++
	return k.SetParent(c.pre, c.correct, meets, c.act)
}

// fillLocal records in c the moves of the cacheable processes lookup
// missed, as k chose and applied them for the state in flight (the
// payloads in payload, the SpecNeutral bits in neutral, the blocks in
// no init in out), with the parent's spec bits k holds about them, and
// grows the table once it has missed as many times as it has entries.
func fillLocal[S sim.Cloneable[S]](c *localCache, k localKernel[S], hit, neutral, out uint64, payload []uint64) {
	for rest := c.cacheable &^ hit; rest != 0; rest &= rest - 1 {
		p := bits.TrailingZeros64(rest)
		act := k.Action(p)
		meta := uint64(k.Pre(p))<<metaPreShift | uint64(uint8(act+1))<<metaActShift | uint64(p+1)<<metaProcShift |
			out>>uint(p)&1<<metaOut
		if k.Correct(p) {
			meta |= 1 << metaCorrect
		}
		if c.skipDecode {
			for i, e := range c.edges[p] {
				if k.EdgeMeets(e) {
					meta |= 1 << uint(metaMeetsShift+i)
				}
			}
		}
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
