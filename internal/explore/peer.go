package explore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
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
//     the min-merge in the owning shard is a strict total order,
//     independent of frame arrival order;
//   - a hosted shard is written as a node writes its one set, by the
//     stripes' owners (emit.go); an ingested probe record waits in the
//     owner's inbox until it drains it at a barrier, or PendMeta does;
//   - promotion goes through the single-node owner commit, split at
//     the coordinator: PendMeta ranks a shard's pending entries by pos
//     (Visited.rank), the coordinator merges the shards' ranked lists
//     and assigns gids to the global kept prefix, and Commit promotes
//     the shard's share of it (Visited.promote) — a prefix of its own
//     ranking, because the global kept set is a pos prefix — so gids
//     follow the single-node discovery order;
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
// and with itself, and only queues records for the stripes' owners.
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
	// PendMeta ranks a hosted shard's pending entries in deterministic
	// pos order and returns their promotion metadata in that order.
	PendMeta(shard int) ([]PendMeta, error)
	// Commit promotes the first keep entries the shard's last PendMeta
	// ranked (in that order) under the coordinator-assigned gids, drops
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
	// Rollback discards every hosted shard's pending entries (deferred
	// ones unread), the queued frame records and the ingested at-cap
	// flag: the peer is back at the last layer barrier. The arena only
	// mutates at commit, so this is all a surviving peer needs before a
	// layer is retried.
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
	// Ingest applies one frame from a remote peer, all of it or nothing
	// (with an error that fails the send). Probe records queue until
	// their stripes' owners probe them (the pos min-merge makes arrival
	// order irrelevant); membership queries are answered at once, since
	// nothing inserts in an at-cap layer, and fold into FinishLayer.
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
}

// ownerBox is one stripe owner's inbox: the probe records Ingest queued
// for its stripes of any hosted shard. A mutex per owner lets the owners
// drain in parallel, and Ingest waits only on the one it queues for.
type ownerBox struct {
	mu sync.Mutex
	routeBuf
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
	sets     []*Visited // per shard: its set if hosted, else nil (peerHooks.sets)
	hosted   []int      // sorted
	route    []int      // shard -> peer
	send     func(dst int, frame []byte) error
	outboxes []*peerOutbox[S]
	inbox    []ownerBox // per stripe owner

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
		sets:    make([]*Visited, cfg.NShards),
		route:   make([]int, cfg.NShards),
	}
	for s := range e.route {
		e.route[s] = s // identity while peers == shards
	}
	e.wss = make([]*workerState[S], opts.Workers)
	for i := range e.wss {
		e.wss[i] = newWorkerState(newModel(), &e.opts)
	}
	shareStripes(e.wss)
	e.inbox = make([]ownerBox, len(e.wss))
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
		e.shards[s] = &peerShard{vs: newVisited(e.words, &e.opts, len(cfg.Hosted))}
	}
	e.rebuildHosted()
	e.outboxes = make([]*peerOutbox[S], opts.Workers)
	for w := range e.outboxes {
		ob := &peerOutbox[S]{e: e}
		ob.init()
		e.outboxes[w] = ob
		e.wss[w].cl = &peerHooks{sets: e.sets, frame: ob.frame}
	}
	return e, nil
}

// rebuildHosted re-derives the sorted hosted list and sets after the
// shard map changed and re-splits the peer's arena budget between its
// shards: an adopter's own shards give up part of their share.
func (e *peerEngine[S]) rebuildHosted() {
	e.hosted = e.hosted[:0]
	for s, ps := range e.shards {
		e.hosted = append(e.hosted, s)
		e.sets[s] = ps.vs
		ps.vs.EnableArenaSpill(e.opts.SpillDir, e.opts.arenaShare(len(e.shards)))
	}
	slices.Sort(e.hosted)
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
	clear(e.sets)
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
	room := e.opts.MaxStates
	if room <= 0 {
		room = -1
	}
	// The single-node stream stops once *global* pending exceeds the
	// bound; a peer only sees its local count, which trails the global
	// one, so it stops no earlier — it can only see extra keys whose
	// stream positions are past the global kept prefix, and the merge
	// discards exactly those.
	e.wss[0].streamInits(room, func(h uint64) *Visited {
		return e.sets[ShardOf(h, e.nShards)]
	}, func() int {
		pending := 0
		for _, s := range e.hosted {
			pending += e.shards[s].vs.Pending()
		}
		return pending
	})
	return nil
}

// Expand walks each hosted shard's layer range through the node's
// fanOut, with item = gid − firstGid and parent = gid.
func (e *peerEngine[S]) Expand(depth int, firstGid int32, atCap bool) (rep *LayerReport, err error) {
	e.sendFails.Store(0)
	width := 0
	for _, s := range e.hosted {
		width += e.shards[s].vs.States() - int(e.shards[s].layerFrom)
	}
	for _, ws := range e.wss {
		ws.rep = LayerReport{}
		ws.cl.atCap = atCap
		ws.beginLayer(width)
	}
	for _, s := range e.hosted {
		ps := e.shards[s]
		err = fanOut(e.wss, ps.vs.States()-int(ps.layerFrom), e.sets, func(ws *workerState[S], i int) {
			lid := ps.layerFrom + int32(i)
			ws.cl.parent = ps.gidOf[lid]
			ws.expand(ps.vs, &ws.rep, lid, int(ws.cl.parent-firstGid), depth)
		}, e.drain)
		if err != nil {
			break
		}
	}
	for _, ob := range e.outboxes {
		ob.flushAll()
	}
	if err != nil {
		return nil, err
	}
	rep = &LayerReport{SendFailures: int(e.sendFails.Load())}
	for _, ws := range e.wss {
		rep.Merge(&ws.rep)
	}
	return rep, nil
}

// drain probes owner o's queued records into their sets: by o at a
// fan-out barrier, or in a serial phase.
func (e *peerEngine[S]) drain(o int) {
	b := &e.inbox[o]
	b.mu.Lock()
	b.drainInto(e.sets)
	b.mu.Unlock()
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
	for o := range e.inbox { // the records no barrier drained; keep no slack
		e.drain(o)
		e.inbox[o].recs = nil
	}
	n, err := ps.vs.rank(len(e.wss))
	if err != nil {
		return nil, err
	}
	// rank left each run's records carrying their ranks; the entries
	// still hold their positions.
	meta = make([]PendMeta, n)
	for _, run := range ps.vs.runs {
		for _, r := range run {
			pe := &ps.vs.shards[r.shard].pend[r.pidx]
			meta[r.pos] = PendMeta{Pos: pe.pos, Parent: pe.parent}
		}
	}
	return meta, nil
}

func (e *peerEngine[S]) Commit(shard int, keep int, gids []int32, housekeep bool) (err error) {
	defer catchIO(&err)
	ps, err := e.shard(shard)
	if err != nil {
		return err
	}
	if keep != len(gids) || keep > ps.vs.ranked { // ranked is −1 until PendMeta
		return fmt.Errorf("explore: commit of %d entries (%d gids) does not fit the %d PendMeta ranked", keep, len(gids), ps.vs.ranked)
	}
	oldFrom := ps.layerFrom
	nBefore := int32(ps.vs.States())
	ps.vs.promote(keep, nil)
	ps.gidOf = append(ps.gidOf, gids...)
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
		vs := e.shards[s].vs
		for i := range vs.shards { // the retry proposes them again: no sweep
			vs.shards[i].resetDeferred()
		}
		if _, err := vs.rank(len(e.wss)); err != nil {
			return err
		}
		vs.promote(0, nil)
	}
	for o := range e.inbox {
		e.inbox[o].recs = nil
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

// shardHeader is the header fields of shard's snapshot.
func (e *peerEngine[S]) shardHeader(shard int) []hdrField {
	return []hdrField{{"cluster shard count", e.nShards}, {"shard", shard}, {"word width", e.words}}
}

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
	c.header(shardMagic, e.ohash, e.shardHeader(shard)...)
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
	if err := c.header("shard snapshot", shardMagic, e.ohash, e.shardHeader(shard)...); err != nil {
		return err
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
	vs := newVisited(e.words, &e.opts, len(e.hosted)+1)
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
type peerOutbox[S sim.Cloneable[S]] struct {
	e      *peerEngine[S]
	bufs   [][]byte
	counts []int
}

func (ob *peerOutbox[S]) init() {
	ob.bufs = make([][]byte, ob.e.nShards)
	ob.counts = make([]int, ob.e.nShards)
	for d := range ob.bufs {
		buf := make([]byte, 0, 1<<12)
		buf = append(buf, frameMagic[:]...)
		buf = append(buf, frameVersion, 0)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(ob.e.words))
		buf = binary.LittleEndian.AppendUint32(buf, 0)
		ob.bufs[d] = buf
	}
}

// frame appends a record for shard, which another peer hosts, to that
// peer's frame: a probe, or at cap (recCapCheck) a membership query.
func (ob *peerOutbox[S]) frame(kind byte, shard int, key []uint64, pos uint64, parent int32) {
	dst := ob.e.route[shard]
	buf := append(ob.bufs[dst], kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	if kind == recProbe {
		buf = binary.LittleEndian.AppendUint64(buf, pos)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(parent))
	}
	for _, w := range key {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	ob.bufs[dst] = buf
	if ob.counts[dst]++; ob.counts[dst] >= ob.e.flushAt {
		ob.flush(dst)
	}
}

func (ob *peerOutbox[S]) flush(dst int) {
	if ob.counts[dst] == 0 {
		return
	}
	buf := ob.bufs[dst]
	binary.LittleEndian.PutUint32(buf[8:frameHeaderLen], uint32(ob.counts[dst]))
	ob.e.deliver(dst, buf)
	ob.bufs[dst] = buf[:frameHeaderLen]
	ob.counts[dst] = 0
}

func (ob *peerOutbox[S]) flushAll() {
	for d := range ob.bufs {
		ob.flush(d)
	}
}

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
	defer catchIO(&err) // an at-cap check may read a spilled arena record
	if err := e.records(frame, nil); err != nil {
		return err
	}
	return e.records(frame, func(kind byte, shard int, key []uint64, pos uint64, parent int32) {
		vs, hash := e.sets[shard], hashWords(key)
		if kind == recCapCheck {
			if !vs.Contains(key, hash) {
				e.capTrunc.Store(true)
			}
			return
		}
		b := &e.inbox[vs.owner(hash, len(e.inbox))]
		b.mu.Lock()
		b.add(key, hash, pos, parent, shard)
		b.mu.Unlock()
	})
}

// records checks a frontier frame — its header, and that every record is
// complete, of a known kind and for a hosted shard — and passes each
// record to apply, unless apply is nil. Ingest checks a frame whole
// before it applies any of it.
func (e *peerEngine[S]) records(frame []byte, apply func(kind byte, shard int, key []uint64, pos uint64, parent int32)) error {
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
	for rec := 0; rec < count; rec++ {
		if len(p) < 5 {
			return fmt.Errorf("explore: truncated frontier frame (record %d)", rec)
		}
		kind, shard := p[0], int(binary.LittleEndian.Uint32(p[1:5]))
		if shard >= e.nShards || e.sets[shard] == nil {
			return fmt.Errorf("explore: frame for shard %d, which peer %d does not host (stale route?)", shard, e.self)
		}
		head := 5
		switch kind {
		case recProbe:
			head += 12
		case recCapCheck:
		default:
			return fmt.Errorf("explore: unknown frontier record kind %d", kind)
		}
		if len(p) < head+8*e.words {
			return fmt.Errorf("explore: truncated frontier frame (record %d)", rec)
		}
		if apply != nil {
			var pos uint64
			var parent int32
			if kind == recProbe {
				pos, parent = binary.LittleEndian.Uint64(p[5:]), int32(binary.LittleEndian.Uint32(p[13:]))
			}
			for i := range key {
				key[i] = binary.LittleEndian.Uint64(p[head+8*i:])
			}
			apply(kind, shard, key, pos, parent)
		}
		p = p[head+8*e.words:]
	}
	if len(p) != 0 {
		return fmt.Errorf("explore: %d trailing bytes after frontier frame", len(p))
	}
	return nil
}
