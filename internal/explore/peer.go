package explore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/par"
	"repro/internal/sim"
)

// This file is the peer half of the distributed checker: a PeerEngine
// hosts a subset of the hash-range shards of the global visited set and
// expands its slice of each BFS layer, shipping successors it does not
// own to the owning peer as binary frontier frames. The other half — the
// coordinator that drives the layer barriers, merges the per-shard
// pending metadata into the global promotion order and assigns dense
// global ids (gids) — lives in internal/cluster.
//
// Determinism carries over from the single-node engine unchanged,
// because nothing that decides the result moves:
//
//   - every successor still carries pos = item<<32|branch with item the
//     *global* layer index (gid − firstGid of the layer), so each pos
//     value is proposed for exactly one key by exactly one expansion and
//     the min-merge under the owning shard's lock is a strict total
//     order, independent of frame arrival order;
//   - promotion stays serial: the coordinator merges the per-shard
//     pos-sorted pending lists (each shard's kept subset is a prefix of
//     its own list, because the global kept set is a pos prefix) and the
//     peer promotes in exactly that order, so gids are assigned in the
//     single-node discovery order;
//   - the at-cap decision is layer-global (the coordinator broadcasts
//     "cluster-wide promoted count >= MaxStates"), matching the
//     single-node States() check which only moves between layers.
//
// A shard — not a peer — is the unit of recovery: SnapshotShard writes a
// checkpoint-format image of one shard at a layer barrier, and
// AdoptShard rebuilds it on any surviving peer, which is what lets the
// cluster tolerate node loss mid-layer (survivors roll their pending
// state back to the barrier; the arena only mutates at commit time, so
// no snapshot restore is needed for them).

// ShardOf maps a state hash to its owning shard: the high word of
// hash×n, which is monotone in hash — shard s owns the contiguous hash
// range [s·2⁶⁴/n, (s+1)·2⁶⁴/n). The shard count is fixed at cluster
// start (one per initial peer); node loss moves whole shards to
// adopters instead of re-hashing.
func ShardOf(hash uint64, n int) int {
	hi, _ := bits.Mul64(hash, uint64(n))
	return int(hi)
}

// Defaulted returns a copy of o with the zero-value knobs resolved:
// the one place ExploreCtx, a cluster coordinator and its peer engines
// get their MaxBranch/MaxViolations/Workers defaults from.
func (o Options) Defaulted() Options {
	if o.MaxBranch == 0 {
		o.MaxBranch = 1 << 16
	}
	if o.MaxViolations == 0 {
		o.MaxViolations = 5
	}
	if o.Workers <= 0 {
		o.Workers = par.Workers
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// renderKey decodes an encoded state and renders it the way trace steps
// are rendered.
func (m *Model[S]) renderKey(key []uint64) string {
	cfg := make([]S, m.Prog.NumProcs)
	m.Codec.Decode(cfg, key)
	return m.render(cfg)
}

// PendMeta is the promotion-relevant view of one pending entry: what
// the coordinator needs to merge shards into the global discovery order
// and extend its trace links. Parent is a gid.
type PendMeta struct {
	Pos    uint64 `json:"pos"`
	Parent int32  `json:"parent"`
}

// PeerEngine is the coordinator-facing surface of one cluster peer. All
// methods except Ingest are called from the coordinator's serial
// phases, one at a time; Ingest is called concurrently with Expand
// (frames arrive while workers expand) and is internally synchronized
// by the visited set's stripe locks — which is why a peer's workers go
// through the locked Probe, where the single-node workers own stripes.
type PeerEngine interface {
	// Seed enumerates the model's full deterministic init stream and
	// probes the configurations owned by a hosted shard (pos = stream
	// position, parent −1), stopping early once the local pending count
	// exceeds MaxStates — provably past the global kept prefix.
	Seed() error
	// Expand expands this peer's slice of the current layer: every
	// state promoted into a hosted shard at the last commit. firstGid
	// anchors the global item numbering (item = gid − firstGid); atCap
	// is the coordinator's layer-global state-bound decision.
	Expand(depth int, firstGid int32, atCap bool) (*LayerReport, error)
	// FinishLayer returns (and clears) the truncation flag accumulated
	// from ingested at-cap membership queries. Separate from Expand's
	// report because frames for this peer may still arrive after its
	// own expansion slice is done; the coordinator calls it once every
	// peer's Expand has returned.
	FinishLayer() bool
	// PendMeta drains a hosted shard's pending entries in deterministic
	// pos order and returns their promotion metadata.
	PendMeta(shard int) ([]PendMeta, error)
	// Commit promotes the first keep drained entries of the shard (in
	// the PendMeta order) under the coordinator-assigned gids, drops
	// the rest, and runs the between-layer housekeeping.
	Commit(shard int, keep int, gids []int32, housekeep bool) error
	// Keys returns the encoded states of the given gids, which must
	// have been committed to the given hosted shard (trace rebuilding).
	Keys(shard int, gids []int32) ([][]uint64, error)
	// SnapshotShard streams a restorable image of one hosted shard.
	// Only legal at a layer barrier (no pending entries).
	SnapshotShard(shard int, w io.Writer) error
	// AdoptShard rebuilds a shard this peer does not host from a
	// SnapshotShard stream — the work-migration path after node loss.
	AdoptShard(shard int, r io.Reader) error
	// Rollback discards every hosted shard's pending entries and the
	// ingested at-cap flag, returning the peer to the last layer
	// barrier. The arena only mutates at commit, so this is all a
	// surviving peer needs before a layer is retried.
	Rollback() error
	// SetRoute replaces the shard→peer routing table (after adoption).
	SetRoute(route []int) error
	// SetSender installs the frame transport: send must deliver the
	// frame to peer dst's Ingest before returning, may be called
	// concurrently from multiple workers, and must not retain the
	// frame. A send error is absorbed into the layer report's
	// SendFailures (the coordinator rolls the layer back), never a
	// wrong result.
	SetSender(send func(dst int, frame []byte) error)
	// Ingest applies one frame from a remote peer: probe records enter
	// the owning shard's pending set (the pos min-merge makes arrival
	// order irrelevant), membership queries fold into the FinishLayer
	// flag.
	Ingest(frame []byte) error
	// Hosted returns the sorted shard ids this peer currently hosts.
	Hosted() []int
	// States returns the promoted-state count across hosted shards.
	States() int
	// Close releases the hosted shards' resources.
	Close()
}

// PeerConfig places one engine inside a cluster.
type PeerConfig struct {
	// NShards is the cluster-wide shard count (fixed at start).
	NShards int
	// Hosted lists the shards this peer owns initially.
	Hosted []int
	// Self is this peer's index (frames it emits carry it implicitly
	// via the sender; a peer never sends to itself).
	Self int
	// FlushRecords caps the records buffered per (worker, destination)
	// outbox before a frame is flushed mid-expansion (0 = 512). Tests
	// shrink it to force multi-frame traffic on small instances.
	FlushRecords int
}

// peerShard is one hosted slice of the global visited set.
type peerShard struct {
	vs *Visited
	// gidOf maps this shard's dense local ids to their global ids.
	// Strictly increasing: within a commit the kept entries arrive in
	// global promotion order, and across commits gids only grow.
	gidOf []int32
	// layerFrom is the first local id of the current frontier layer
	// (the states committed last barrier, expanded this layer).
	layerFrom int32
	// drained caches the Drain between PendMeta and Commit so both see
	// the same order without re-sorting.
	drained []Fresh
}

type peerEngine[S sim.Cloneable[S]] struct {
	opts     Options
	wss      []*workerState[S]
	nShards  int
	self     int
	flushAt  int
	words    int
	ohash    [32]byte
	shards   map[int]*peerShard
	hosted   []int // sorted
	route    []int // shard -> peer
	send     func(dst int, frame []byte) error
	outboxes []*peerOutbox

	capTrunc  atomic.Bool
	sendFails atomic.Int64
}

// NewPeer builds a shard-hosting engine for one cluster peer. newModel
// and opts must be identical on every peer (and on the coordinator);
// opts is normalized with Defaulted, and Workers sizes this peer's
// expansion pool.
func NewPeer[S sim.Cloneable[S]](newModel func() *Model[S], opts Options, cfg PeerConfig) (PeerEngine, error) {
	opts = opts.Defaulted()
	if cfg.NShards < 1 {
		return nil, fmt.Errorf("explore: cluster needs at least one shard")
	}
	if cfg.Self < 0 || cfg.Self >= cfg.NShards {
		return nil, fmt.Errorf("explore: peer index %d out of range [0,%d)", cfg.Self, cfg.NShards)
	}
	if cfg.FlushRecords <= 0 {
		cfg.FlushRecords = 512
	}
	e := &peerEngine[S]{
		opts:    opts,
		nShards: cfg.NShards,
		self:    cfg.Self,
		flushAt: cfg.FlushRecords,
		shards:  make(map[int]*peerShard),
		route:   make([]int, cfg.NShards),
	}
	for s := range e.route {
		e.route[s] = s // identity while peers == shards
	}
	e.wss = make([]*workerState[S], opts.Workers)
	for i := range e.wss {
		e.wss[i] = newWorkerState(newModel(), &e.opts)
	}
	m0 := e.wss[0].model
	e.words = m0.Codec.Words
	e.ohash = optionsHash(m0.Name, e.words, m0.Prog.NumProcs, &e.opts)
	for _, s := range cfg.Hosted {
		if s < 0 || s >= cfg.NShards {
			return nil, fmt.Errorf("explore: hosted shard %d out of range [0,%d)", s, cfg.NShards)
		}
		if _, dup := e.shards[s]; dup {
			return nil, fmt.Errorf("explore: shard %d hosted twice", s)
		}
		e.shards[s] = &peerShard{vs: e.newShardVisited(len(cfg.Hosted))}
	}
	e.rebuildHosted()
	e.outboxes = make([]*peerOutbox, opts.Workers)
	for w := range e.outboxes {
		ob := &peerOutbox{e: e}
		ob.init()
		e.outboxes[w] = ob
		e.wss[w].cl = &peerHooks{sink: ob.sink, capMiss: ob.capMiss}
	}
	return e, nil
}

// newShardVisited builds one of the hosted shards that split this
// peer's arena budget. Frames ingest concurrently with the local
// workers' probes, so the serial fast path is never safe on a peer.
func (e *peerEngine[S]) newShardVisited(hosted int) *Visited {
	return newVisited(e.words, &e.opts, false, hosted)
}

// rebuildHosted re-derives the sorted hosted list after the shard map
// changed and re-splits the peer's arena budget between its shards: an
// adopter's own shards give up part of their share to the newcomer.
func (e *peerEngine[S]) rebuildHosted() {
	e.hosted = e.hosted[:0]
	for s := range e.shards {
		e.hosted = append(e.hosted, s)
	}
	slices.Sort(e.hosted)
	for _, ps := range e.shards {
		ps.vs.EnableArenaSpill(e.opts.SpillDir, e.opts.arenaShare(len(e.hosted)))
	}
}

func (e *peerEngine[S]) Hosted() []int { return slices.Clone(e.hosted) }

func (e *peerEngine[S]) States() int {
	n := 0
	for _, s := range e.hosted {
		n += e.shards[s].vs.States()
	}
	return n
}

func (e *peerEngine[S]) SetSender(send func(dst int, frame []byte) error) { e.send = send }

func (e *peerEngine[S]) SetRoute(route []int) error {
	if len(route) != e.nShards {
		return fmt.Errorf("explore: route length %d != %d shards", len(route), e.nShards)
	}
	e.route = slices.Clone(route)
	return nil
}

func (e *peerEngine[S]) Close() {
	if st := e.opts.Stats; st != nil {
		lookups, hits := localCounts(e.wss)
		st.LocalLookups += lookups
		st.LocalHits += hits
	}
	for _, ps := range e.shards {
		if e.opts.Stats != nil {
			e.opts.Stats.ArenaSpilledBytes += ps.vs.SpilledBytes()
			e.opts.Stats.ColdReads += ps.vs.ColdReads()
		}
		ps.vs.Close()
	}
	e.shards = map[int]*peerShard{}
	e.hosted = nil
}

// catchIO converts the arena's ioPanic escape hatch into an error on
// a serial entry point (worker goroutines go through forEachWorkerIO).
func catchIO(err *error) {
	if r := recover(); r != nil {
		ip, ok := r.(ioPanic)
		if !ok {
			panic(r)
		}
		*err = fmt.Errorf("explore: %w", ip.err)
	}
}

func (e *peerEngine[S]) Seed() (err error) {
	defer catchIO(&err)
	ws0 := e.wss[0]
	seq := uint64(0)
	ws0.model.Inits(func(cfg []S) bool {
		key := ws0.canonKey(cfg)
		h := hashWords(key)
		if ps, ok := e.shards[ShardOf(h, e.nShards)]; ok {
			ps.vs.Probe(key, h, seq, -1, nil)
		}
		seq++
		if e.opts.MaxStates <= 0 {
			return true
		}
		// The single-node stream stops once *global* pending exceeds the
		// bound; a peer only sees its local count, which trails the
		// global one, so it stops no earlier — it can only see extra
		// keys whose stream positions are past the global kept prefix,
		// and the merge discards exactly those.
		pending := 0
		for _, s := range e.hosted {
			pending += e.shards[s].vs.Pending()
		}
		return pending <= e.opts.MaxStates
	})
	return nil
}

type layerItem struct {
	vs  *Visited
	lid int32
	gid int32
}

func (e *peerEngine[S]) Expand(depth int, firstGid int32, atCap bool) (rep *LayerReport, err error) {
	e.sendFails.Store(0)
	var items []layerItem
	for _, s := range e.hosted {
		ps := e.shards[s]
		for lid := ps.layerFrom; lid < int32(ps.vs.States()); lid++ {
			items = append(items, layerItem{vs: ps.vs, lid: lid, gid: ps.gidOf[lid]})
		}
	}
	for _, ws := range e.wss {
		ws.rep = LayerReport{}
		ws.beginLayer(len(items))
	}
	expandErr := forEachWorkerIO(len(items), len(e.wss), func(w, i int) {
		it := items[i]
		ws := e.wss[w]
		ws.cl.atCap = atCap
		ws.cl.parent = it.gid
		ws.expand(it.vs, &ws.rep, it.lid, int(it.gid-firstGid), depth)
	})
	for _, ob := range e.outboxes {
		ob.flushAll()
	}
	if expandErr != nil {
		return nil, expandErr
	}
	rep = &LayerReport{SendFailures: int(e.sendFails.Load())}
	for _, ws := range e.wss {
		rep.Merge(&ws.rep)
	}
	return rep, nil
}

func (e *peerEngine[S]) FinishLayer() bool {
	return e.capTrunc.Swap(false)
}

func (e *peerEngine[S]) shard(s int) (*peerShard, error) {
	ps, ok := e.shards[s]
	if !ok {
		return nil, fmt.Errorf("explore: shard %d is not hosted by peer %d", s, e.self)
	}
	return ps, nil
}

func (e *peerEngine[S]) PendMeta(shard int) (meta []PendMeta, err error) {
	defer catchIO(&err)
	ps, err := e.shard(shard)
	if err != nil {
		return nil, err
	}
	ps.drained = ps.vs.Drain()
	meta = make([]PendMeta, len(ps.drained))
	for i, f := range ps.drained {
		meta[i] = PendMeta{Pos: f.Pos, Parent: f.Parent}
	}
	return meta, nil
}

func (e *peerEngine[S]) Commit(shard int, keep int, gids []int32, housekeep bool) (err error) {
	defer catchIO(&err)
	ps, err := e.shard(shard)
	if err != nil {
		return err
	}
	if ps.drained == nil {
		ps.drained = ps.vs.Drain()
	}
	if keep != len(gids) || keep > len(ps.drained) {
		return fmt.Errorf("explore: commit of %d entries (%d gids) does not fit %d pending", keep, len(gids), len(ps.drained))
	}
	oldFrom := ps.layerFrom
	nBefore := int32(ps.vs.States())
	for i, f := range ps.drained {
		if i < keep {
			ps.vs.Promote(f)
			ps.gidOf = append(ps.gidOf, gids[i])
		} else {
			ps.vs.Drop(f)
		}
	}
	ps.drained = nil
	ps.vs.Reset()
	if housekeep {
		if err := ps.vs.Housekeep(oldFrom); err != nil {
			return err
		}
	}
	ps.layerFrom = nBefore
	return nil
}

func (e *peerEngine[S]) Keys(shard int, gids []int32) (keys [][]uint64, err error) {
	defer catchIO(&err)
	ps, err := e.shard(shard)
	if err != nil {
		return nil, err
	}
	keys = make([][]uint64, len(gids))
	for i, g := range gids {
		lid, ok := slices.BinarySearch(ps.gidOf, g)
		if !ok {
			return nil, fmt.Errorf("explore: gid %d is not committed to shard %d", g, shard)
		}
		keys[i] = copyWords(ps.vs.Key(int32(lid)))
	}
	return keys, nil
}

func (e *peerEngine[S]) Rollback() error {
	for _, s := range e.hosted {
		ps := e.shards[s]
		ps.drained = nil
		for _, f := range ps.vs.Drain() {
			ps.vs.Drop(f)
		}
		ps.vs.Reset()
	}
	e.capTrunc.Store(false)
	// The successor filters remember what the discarded attempt
	// forwarded; consulted by the retry they would swallow proposals the
	// pending sets no longer hold. A rollback is rare, so the entries of
	// committed layers (still valid) go with them.
	for _, ws := range e.wss {
		if ws.filter != nil {
			clear(ws.filter.tab)
		}
	}
	return nil
}

// --- shard snapshots (the unit of work migration) ------------------------------

var shardMagic = [8]byte{'C', 'C', 'S', 'H', 'D', '0' + checkpointVersion, '\r', '\n'}

func (e *peerEngine[S]) SnapshotShard(shard int, w io.Writer) (err error) {
	defer catchIO(&err)
	ps, err := e.shard(shard)
	if err != nil {
		return err
	}
	if ps.vs.Pending() != 0 {
		return fmt.Errorf("explore: shard %d snapshot requested mid-layer (%d pending)", shard, ps.vs.Pending())
	}
	c := newCkptWriter(w)
	c.bytes(shardMagic[:])
	c.bytes(e.ohash[:])
	c.int(e.nShards)
	c.int(shard)
	c.int(e.words)
	c.int(ps.vs.States())
	c.i32(ps.layerFrom)
	for _, g := range ps.gidOf {
		c.i32(g)
	}
	return c.finishArena(ps.vs)
}

func (e *peerEngine[S]) AdoptShard(shard int, r io.Reader) (err error) {
	defer catchIO(&err)
	if _, hosted := e.shards[shard]; hosted {
		return fmt.Errorf("explore: shard %d is already hosted by peer %d", shard, e.self)
	}
	if shard < 0 || shard >= e.nShards {
		return fmt.Errorf("explore: shard %d out of range [0,%d)", shard, e.nShards)
	}
	c := newCkptReader(r)
	var magic [8]byte
	c.bytes(magic[:])
	if c.err == nil && magic != shardMagic {
		return fmt.Errorf("explore: not a shard snapshot (or version drift)")
	}
	var ohash [32]byte
	c.bytes(ohash[:])
	if c.err == nil && ohash != e.ohash {
		return fmt.Errorf("explore: shard snapshot is for a different (model, options) tuple")
	}
	if n := c.int(); c.err == nil && n != e.nShards {
		return fmt.Errorf("explore: shard snapshot from a %d-shard cluster, want %d", n, e.nShards)
	}
	if s := c.int(); c.err == nil && s != shard {
		return fmt.Errorf("explore: snapshot holds shard %d, want %d", s, shard)
	}
	if w := c.int(); c.err == nil && w != e.words {
		return fmt.Errorf("explore: shard snapshot word width %d != codec %d", w, e.words)
	}
	nstates := c.int()
	layerFrom := c.i32()
	if c.err == nil && (nstates < 0 || nstates > snapLimit/8/e.words) {
		return fmt.Errorf("explore: shard snapshot state count %d out of range", nstates)
	}
	if c.err == nil && (layerFrom < 0 || int(layerFrom) > nstates) {
		return fmt.Errorf("explore: shard snapshot layer start %d out of range", layerFrom)
	}
	var gidOf []int32
	if c.err == nil {
		gidOf = make([]int32, nstates)
		prev := int32(-1)
		for i := range gidOf {
			gidOf[i] = c.i32()
			if c.err == nil && gidOf[i] <= prev {
				return fmt.Errorf("explore: shard snapshot gid table is not increasing")
			}
			prev = gidOf[i]
		}
	}
	if c.err != nil {
		return fmt.Errorf("explore: shard snapshot read: %v", c.err)
	}
	vs := e.newShardVisited(len(e.hosted) + 1)
	if err := c.restoreArena(vs, nstates, e.words, layerFrom); err != nil {
		vs.Close()
		return err
	}
	e.shards[shard] = &peerShard{vs: vs, gidOf: gidOf, layerFrom: layerFrom}
	e.rebuildHosted()
	return nil
}

// --- frontier frames -----------------------------------------------------------

// Frame layout (little-endian), reusing the codec's raw word encoding
// for state keys:
//
//	header:  "CCFW" u8 version u8 0 u16 words u32 count
//	probe:   u8 1  u32 shard  u64 pos  u32 parent  key
//	capchk:  u8 2  u32 shard  key
//
// Version 2 dropped the probe record's selection (u8 selLen, sel): a
// frame of another version is refused as corrupt, never mis-parsed.
const (
	frameVersion   = 2
	frameHeaderLen = 12
	recProbe       = 1
	recCapCheck    = 2
)

var frameMagic = [4]byte{'C', 'C', 'F', 'W'}

// peerOutbox buffers outgoing records for one worker, one frame buffer
// per destination peer, so expansion never takes a lock to emit a
// record; frames flush at the record threshold and at expansion end.
type peerOutbox struct {
	e interface {
		outCtx() (nShards int, flushAt int, words int)
		routeOf(shard int) int
		localShard(shard int) *peerShard
		deliver(dst int, frame []byte)
	}
	bufs   [][]byte
	counts []int
}

func (ob *peerOutbox) init() {
	nShards, _, words := ob.e.outCtx()
	ob.bufs = make([][]byte, nShards)
	ob.counts = make([]int, nShards)
	for d := range ob.bufs {
		buf := make([]byte, 0, 1<<12)
		buf = append(buf, frameMagic[:]...)
		buf = append(buf, frameVersion, 0)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(words))
		buf = binary.LittleEndian.AppendUint32(buf, 0)
		ob.bufs[d] = buf
	}
}

func (ob *peerOutbox) sink(key []uint64, hash uint64, pos uint64, parent int32) {
	shard := ShardOf(hash, len(ob.bufs))
	if ps := ob.e.localShard(shard); ps != nil {
		ps.vs.Probe(key, hash, pos, parent, nil)
		return
	}
	dst := ob.e.routeOf(shard)
	buf := ob.bufs[dst]
	buf = append(buf, recProbe)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	buf = binary.LittleEndian.AppendUint64(buf, pos)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(parent))
	for _, w := range key {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	ob.bufs[dst] = buf
	ob.bump(dst)
}

func (ob *peerOutbox) capMiss(key []uint64, hash uint64) bool {
	shard := ShardOf(hash, len(ob.bufs))
	if ps := ob.e.localShard(shard); ps != nil {
		return !ps.vs.Contains(key, hash)
	}
	dst := ob.e.routeOf(shard)
	buf := ob.bufs[dst]
	buf = append(buf, recCapCheck)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	for _, w := range key {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	ob.bufs[dst] = buf
	ob.bump(dst)
	// The owner answers the membership question and folds a miss into
	// its own FinishLayer flag; truncation is a layer-global OR, so
	// where the bit lands cannot show in the result.
	return false
}

func (ob *peerOutbox) bump(dst int) {
	ob.counts[dst]++
	if _, flushAt, _ := ob.e.outCtx(); ob.counts[dst] >= flushAt {
		ob.flush(dst)
	}
}

func (ob *peerOutbox) flush(dst int) {
	if ob.counts[dst] == 0 {
		return
	}
	buf := ob.bufs[dst]
	binary.LittleEndian.PutUint32(buf[8:frameHeaderLen], uint32(ob.counts[dst]))
	ob.e.deliver(dst, buf)
	ob.bufs[dst] = buf[:frameHeaderLen]
	ob.counts[dst] = 0
}

func (ob *peerOutbox) flushAll() {
	for d := range ob.bufs {
		ob.flush(d)
	}
}

func (e *peerEngine[S]) outCtx() (int, int, int) { return e.nShards, e.flushAt, e.words }
func (e *peerEngine[S]) routeOf(shard int) int   { return e.route[shard] }
func (e *peerEngine[S]) localShard(shard int) *peerShard {
	return e.shards[shard]
}
func (e *peerEngine[S]) noteCapTrunc() { e.capTrunc.Store(true) }
func (e *peerEngine[S]) deliver(dst int, frame []byte) {
	if e.send == nil {
		e.sendFails.Add(1)
		return
	}
	if err := e.send(dst, frame); err != nil {
		e.sendFails.Add(1)
	}
}

func (e *peerEngine[S]) Ingest(frame []byte) (err error) {
	defer catchIO(&err) // a probe may read a spilled arena record
	if len(frame) < frameHeaderLen {
		return fmt.Errorf("explore: short frontier frame (%d bytes)", len(frame))
	}
	if [4]byte(frame[:4]) != frameMagic || frame[4] != frameVersion {
		return fmt.Errorf("explore: %w", &chaos.CorruptError{Path: "frontier frame",
			Detail: fmt.Sprintf("magic %q version %d, want %q version %d", frame[:4], frame[4], frameMagic[:], frameVersion)})
	}
	if w := int(binary.LittleEndian.Uint16(frame[6:8])); w != e.words {
		return fmt.Errorf("explore: frame word width %d != codec %d", w, e.words)
	}
	count := int(binary.LittleEndian.Uint32(frame[8:frameHeaderLen]))
	p := frame[frameHeaderLen:]
	key := make([]uint64, e.words)
	keyBytes := 8 * e.words
	for rec := 0; rec < count; rec++ {
		if len(p) < 5 {
			return fmt.Errorf("explore: truncated frontier frame (record %d)", rec)
		}
		kind := p[0]
		shard := int(binary.LittleEndian.Uint32(p[1:5]))
		p = p[5:]
		ps, ok := e.shards[shard]
		if !ok {
			return fmt.Errorf("explore: frame for shard %d, which peer %d does not host (stale route?)", shard, e.self)
		}
		switch kind {
		case recProbe:
			if len(p) < 12+keyBytes {
				return fmt.Errorf("explore: truncated frontier frame (record %d)", rec)
			}
			pos := binary.LittleEndian.Uint64(p[:8])
			parent := int32(binary.LittleEndian.Uint32(p[8:12]))
			p = p[12:]
			for i := range key {
				key[i] = binary.LittleEndian.Uint64(p[i*8:])
			}
			p = p[keyBytes:]
			ps.vs.Probe(key, hashWords(key), pos, parent, nil)
		case recCapCheck:
			if len(p) < keyBytes {
				return fmt.Errorf("explore: truncated frontier frame (record %d)", rec)
			}
			for i := range key {
				key[i] = binary.LittleEndian.Uint64(p[i*8:])
			}
			p = p[keyBytes:]
			if !ps.vs.Contains(key, hashWords(key)) {
				e.noteCapTrunc()
			}
		default:
			return fmt.Errorf("explore: unknown frontier record kind %d", kind)
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("explore: %d trailing bytes after frontier frame", len(p))
	}
	return nil
}
