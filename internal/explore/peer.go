package explore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/par"
	"repro/internal/sim"
)

// This file is the peer half of the in-process cluster checker that
// bench/'s cluster-local3 workload runs: a PeerEngine hosts one hash-range
// shard of the global visited set, its own, and expands its slice of each
// BFS layer, shipping successors it does not own to the owning peer as
// binary frontier frames. The other half — the coordinator that drives
// the layer barriers, merges the per-shard pending metadata into the
// global promotion order and assigns dense global ids (gids) — lives in
// internal/cluster.
//
// Determinism carries over from the single-node engine unchanged,
// because nothing that decides the result moves:
//
//   - every successor still carries pos = item<<32|branch with item the
//     *global* layer index (gid − firstGid of the layer), so each pos
//     value is proposed for exactly one key by exactly one expansion and
//     the min-merge in the owning shard is a strict total order,
//     independent of frame arrival order;
//   - the shard is written as a node writes its one set, by the stripes'
//     owners (emit.go); an ingested probe record waits in the owner's
//     inbox until it drains it at a barrier, or PendMeta does;
//   - promotion goes through the single-node owner commit, split at
//     the coordinator: PendMeta ranks the shard's pending entries by pos
//     (Visited.rank), the coordinator merges the shards' ranked lists
//     and assigns gids to the global kept prefix, and Commit promotes
//     the shard's share of it (Visited.promote) — a prefix of its own
//     ranking, because the global kept set is a pos prefix — so gids
//     follow the single-node discovery order;
//   - the at-cap decision is layer-global (the coordinator broadcasts
//     "cluster-wide promoted count >= MaxStates"), matching the
//     single-node States() check which only moves between layers.
//
// A peer is not fault-tolerant: a failed frame send fails its Expand,
// and the coordinator fails the run.

// ShardOf maps a state hash to its owning shard: the high word of
// hash×n, which is monotone in hash — shard s owns the contiguous hash
// range [s·2⁶⁴/n, (s+1)·2⁶⁴/n). A cluster has one shard per peer, and
// peer s hosts shard s.
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
// The shard arguments name the peer's own shard, the only one it hosts.
type PeerEngine interface {
	// Seed enumerates the model's full deterministic init stream and
	// probes the configurations the peer's shard owns (pos = stream
	// position, parent −1), stopping early once the local pending count
	// exceeds MaxStates — provably past the global kept prefix.
	Seed() error
	// Expand expands this peer's slice of the current layer: every
	// state promoted into its shard at the last commit. firstGid
	// anchors the global item numbering (item = gid − firstGid); atCap
	// is the coordinator's layer-global state-bound decision. A frame
	// that could not be sent fails it.
	Expand(depth int, firstGid int32, atCap bool) (*LayerReport, error)
	// FinishLayer returns (and clears) the truncation flag accumulated
	// from ingested at-cap membership queries. Separate from Expand's
	// report because frames for this peer may still arrive after its
	// own expansion slice is done; the coordinator calls it once every
	// peer's Expand has returned.
	FinishLayer() bool
	// PendMeta ranks the shard's pending entries in deterministic pos
	// order and returns their promotion metadata in that order.
	PendMeta(shard int) ([]PendMeta, error)
	// Commit promotes the first keep entries the shard's last PendMeta
	// ranked (in that order) under the coordinator-assigned gids, drops
	// the rest, and runs the between-layer housekeeping.
	Commit(shard int, keep int, gids []int32, housekeep bool) error
	// Keys returns the encoded states of the given gids, which must
	// have been committed to the shard (trace rebuilding).
	Keys(shard int, gids []int32) ([][]uint64, error)
	// SetSender installs the frame transport: send must deliver the
	// frame to peer dst's Ingest before returning, may be called
	// concurrently from multiple workers, and must not retain the
	// frame.
	SetSender(send func(dst int, frame []byte) error)
	// Ingest applies one frame from a remote peer, all of it or nothing
	// (with an error that fails the send). Probe records queue until
	// their stripes' owners probe them (the pos min-merge makes arrival
	// order irrelevant); membership queries are answered at once, since
	// nothing inserts in an at-cap layer, and fold into FinishLayer.
	Ingest(frame []byte) error
	// Close releases the shard's resources.
	Close()
}

// PeerConfig places one engine inside a cluster.
type PeerConfig struct {
	// NShards is the cluster-wide shard count, one per peer.
	NShards int
	// Hosted must be []int{Self}: a peer hosts its own shard and no
	// other. The field stays because bench/'s cluster workload sets it.
	Hosted []int
	// Self is this peer's index and its shard's (frames it emits carry
	// it implicitly via the sender; a peer never sends to itself).
	Self int
	// FlushRecords caps the records buffered per (worker, destination)
	// outbox before a frame is flushed mid-expansion (0 = 512). Tests
	// shrink it to force multi-frame traffic on small instances.
	FlushRecords int
}

// ownerBox is one stripe owner's inbox: the probe records Ingest queued
// for its stripes. A mutex per owner lets the owners drain in parallel,
// and Ingest waits only on the one it queues for.
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
	vs       *Visited // shard self of the global visited set
	send     func(dst int, frame []byte) error
	outboxes []*peerOutbox[S]
	inbox    []ownerBox // per stripe owner

	// gidOf maps the shard's dense local ids to their global ids.
	// Strictly increasing: within a commit the kept entries arrive in
	// global promotion order, and across commits gids only grow.
	gidOf []int32
	// layerFrom is the first local id of the current frontier layer
	// (the states committed last barrier, expanded this layer).
	layerFrom int32

	capTrunc atomic.Bool
	// sendErr is the layer's first failed frame send, which fails its
	// Expand; later sends are skipped.
	sendErr atomic.Pointer[error]
}

// NewPeer builds the engine of cluster peer cfg.Self, which hosts shard
// cfg.Self. newModel and opts must be identical on every peer (and on
// the coordinator); opts is normalized with Defaulted, and Workers sizes
// this peer's expansion pool.
func NewPeer[S sim.Cloneable[S]](newModel func() *Model[S], opts Options, cfg PeerConfig) (PeerEngine, error) {
	opts = opts.Defaulted()
	if cfg.NShards < 1 {
		return nil, fmt.Errorf("explore: cluster needs at least one shard")
	}
	if cfg.Self < 0 || cfg.Self >= cfg.NShards {
		return nil, fmt.Errorf("explore: peer index %d out of range [0,%d)", cfg.Self, cfg.NShards)
	}
	if !slices.Equal(cfg.Hosted, []int{cfg.Self}) {
		return nil, fmt.Errorf("explore: peer %d hosts shards %v: a peer hosts its own shard, [%d], and no other", cfg.Self, cfg.Hosted, cfg.Self)
	}
	if cfg.FlushRecords <= 0 {
		cfg.FlushRecords = 512
	}
	e := &peerEngine[S]{
		opts:    opts,
		nShards: cfg.NShards,
		self:    cfg.Self,
		flushAt: cfg.FlushRecords,
	}
	e.wss = make([]*workerState[S], opts.Workers)
	for i := range e.wss {
		e.wss[i] = newWorkerState(newModel(), &e.opts)
	}
	shareStripes(e.wss)
	e.inbox = make([]ownerBox, len(e.wss))
	e.words = e.wss[0].model.Codec.Words
	e.vs = newVisited(e.words, &e.opts)
	e.outboxes = make([]*peerOutbox[S], opts.Workers)
	for w := range e.outboxes {
		ob := &peerOutbox[S]{e: e}
		ob.init()
		e.outboxes[w] = ob
		e.wss[w].cl = &peerHooks{shards: e.nShards, self: e.self, frame: ob.frame}
	}
	return e, nil
}

func (e *peerEngine[S]) SetSender(send func(dst int, frame []byte) error) { e.send = send }

func (e *peerEngine[S]) Close() {
	if st := e.opts.Stats; st != nil {
		lookups, hits := localCounts(e.wss)
		st.LocalLookups += lookups
		st.LocalHits += hits
		st.ArenaSpilledBytes += e.vs.SpilledBytes()
		st.ColdReads += e.vs.ColdReads()
	}
	e.vs.Close()
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
		if ShardOf(h, e.nShards) != e.self {
			return nil
		}
		return e.vs
	}, e.vs.Pending)
	return nil
}

// Expand walks the shard's layer range through the node's fanOut, with
// item = gid − firstGid and parent = gid.
func (e *peerEngine[S]) Expand(depth int, firstGid int32, atCap bool) (rep *LayerReport, err error) {
	e.sendErr.Store(nil)
	width := e.vs.States() - int(e.layerFrom)
	for _, ws := range e.wss {
		ws.rep = LayerReport{}
		ws.cl.atCap = atCap
		ws.beginLayer(width)
	}
	err = fanOut(e.wss, width, e.vs, func(ws *workerState[S], i int) {
		lid := e.layerFrom + int32(i)
		ws.cl.parent = e.gidOf[lid]
		ws.expand(e.vs, &ws.rep, lid, int(ws.cl.parent-firstGid), depth)
	}, e.drain)
	for _, ob := range e.outboxes {
		ob.flushAll()
	}
	if p := e.sendErr.Load(); err == nil && p != nil {
		err = *p
	}
	if err != nil {
		return nil, err
	}
	rep = &LayerReport{}
	for _, ws := range e.wss {
		rep.Merge(&ws.rep)
	}
	return rep, nil
}

// drain probes owner o's queued records into the shard: by o at a
// fan-out barrier, or in a serial phase.
func (e *peerEngine[S]) drain(o int) {
	b := &e.inbox[o]
	b.mu.Lock()
	b.drainInto(e.vs)
	b.mu.Unlock()
}

func (e *peerEngine[S]) FinishLayer() bool {
	return e.capTrunc.Swap(false)
}

// own checks that shard is the one this peer hosts.
func (e *peerEngine[S]) own(shard int) error {
	if shard != e.self {
		return fmt.Errorf("explore: shard %d is not hosted by peer %d", shard, e.self)
	}
	return nil
}

func (e *peerEngine[S]) PendMeta(shard int) (meta []PendMeta, err error) {
	defer catchIO(&err)
	if err := e.own(shard); err != nil {
		return nil, err
	}
	for o := range e.inbox { // the records no barrier drained; keep no slack
		e.drain(o)
		e.inbox[o].recs = nil
	}
	n, err := e.vs.rank(len(e.wss))
	if err != nil {
		return nil, err
	}
	// rank left each run's records carrying their ranks; the entries
	// still hold their positions.
	meta = make([]PendMeta, n)
	for _, run := range e.vs.runs {
		for _, r := range run {
			pe := &e.vs.shards[r.shard].pend[r.pidx]
			meta[r.pos] = PendMeta{Pos: pe.pos, Parent: pe.parent}
		}
	}
	return meta, nil
}

func (e *peerEngine[S]) Commit(shard int, keep int, gids []int32, housekeep bool) (err error) {
	defer catchIO(&err)
	if err := e.own(shard); err != nil {
		return err
	}
	if keep != len(gids) || keep > e.vs.ranked { // ranked is −1 until PendMeta
		return fmt.Errorf("explore: commit of %d entries (%d gids) does not fit the %d PendMeta ranked", keep, len(gids), e.vs.ranked)
	}
	oldFrom := e.layerFrom
	nBefore := int32(e.vs.States())
	e.vs.promote(keep, nil)
	e.gidOf = append(e.gidOf, gids...)
	if housekeep {
		if err := e.vs.Housekeep(oldFrom); err != nil {
			return err
		}
	}
	e.layerFrom = nBefore
	return nil
}

func (e *peerEngine[S]) Keys(shard int, gids []int32) (keys [][]uint64, err error) {
	defer catchIO(&err)
	if err := e.own(shard); err != nil {
		return nil, err
	}
	keys = make([][]uint64, len(gids))
	for i, g := range gids {
		lid, ok := slices.BinarySearch(e.gidOf, g)
		if !ok {
			return nil, fmt.Errorf("explore: gid %d is not committed to shard %d", g, shard)
		}
		keys[i] = copyWords(e.vs.Key(int32(lid)))
	}
	return keys, nil
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

// frame appends a record for shard dst, which peer dst hosts, to that
// peer's frame: a probe, or at cap (recCapCheck) a membership query.
func (ob *peerOutbox[S]) frame(kind byte, dst int, key []uint64, pos uint64, parent int32) {
	buf := append(ob.bufs[dst], kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dst))
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
	if e.sendErr.Load() != nil {
		return
	}
	err := errNoSender
	if e.send != nil {
		err = e.send(dst, frame)
	}
	if err != nil {
		err = fmt.Errorf("explore: peer %d: frame to peer %d: %w", e.self, dst, err)
		e.sendErr.CompareAndSwap(nil, &err)
	}
}

var errNoSender = errors.New("no frame sender installed")

func (e *peerEngine[S]) Ingest(frame []byte) (err error) {
	defer catchIO(&err) // an at-cap check may read a spilled arena record
	if err := e.records(frame, nil); err != nil {
		return err
	}
	return e.records(frame, func(kind byte, key []uint64, pos uint64, parent int32) {
		hash := hashWords(key)
		if kind == recCapCheck {
			if !e.vs.Contains(key, hash) {
				e.capTrunc.Store(true)
			}
			return
		}
		b := &e.inbox[e.vs.owner(hash, len(e.inbox))]
		b.mu.Lock()
		b.add(key, hash, pos, parent)
		b.mu.Unlock()
	})
}

// records checks a frontier frame — its header, and that every record is
// complete, of a known kind and for this peer's shard — and passes each
// record to apply, unless apply is nil. Ingest checks a frame whole
// before it applies any of it.
func (e *peerEngine[S]) records(frame []byte, apply func(kind byte, key []uint64, pos uint64, parent int32)) error {
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
		if shard != e.self {
			return fmt.Errorf("explore: frame for shard %d, which peer %d does not host", shard, e.self)
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
			apply(kind, key, pos, parent)
		}
		p = p[head+8*e.words:]
	}
	if len(p) != 0 {
		return fmt.Errorf("explore: %d trailing bytes after frontier frame", len(p))
	}
	return nil
}
