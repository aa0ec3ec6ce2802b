// Package cluster distributes one bounded exhaustive exploration
// across N checker peers and proves it changed nothing: the visited
// set is partitioned into contiguous state-hash ranges (one shard per
// initial peer, explore.ShardOf), each peer expands its slice of every
// BFS layer and ships successors it does not own to the owning peer as
// binary frontier frames, and the coordinator in this package drives
// the layer barriers — merging the per-shard pending metadata into the
// exact single-node promotion order and assigning dense global ids —
// as the backend of the same layer loop explore.ExploreCtx runs
// (explore.RunLayers), so the Result is byte-identical to the
// single-node one at any peer count (the cluster differential battery
// in this package pins that, traces included).
//
// Fault tolerance reuses the checkpoint machinery at shard
// granularity: after every layer commit each hosted shard is
// snapshotted to a shared SnapshotStore, and when a peer is lost
// mid-layer the survivors roll their pending state back to the barrier
// (the arena only mutates at commit, so rollback is cheap), a
// deterministic adopter restores each lost shard from its snapshot,
// the routing table is rebroadcast, and the layer is retried — the
// distributed analogue of the single-node kill -9 resume, with the
// same byte-identity contract.
//
// The control protocol is written once per side (rpc.go): one set of
// request builders and one dispatch switch. The two transports differ
// only in how a request reaches the dispatch — Local calls it
// in-process (with chaos.PeerLoss injection for the battery), HTTP
// POSTs to real ccserve peers over /v1/cluster/rpc (see internal/serve)
// — so the battery exercises the dispatch production peers run.
package cluster

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/explore"
	"repro/internal/sim"
)

// Transport is the coordinator's view of the peer set. Peer indices
// are dense [0, Peers()); a transport error from Expand marks the peer
// dead for the rest of the run (the recovery path), while errors from
// the serial barrier calls fail the job — they leave no half-expanded
// layer to roll back and retrying them is the campaign's business.
type Transport interface {
	Peers() int
	Seed(p int) error
	Expand(p int, depth int, firstGid int32, atCap bool) (*explore.LayerReport, error)
	FinishLayer(p int) (bool, error)
	PendMeta(p, shard int) ([]explore.PendMeta, error)
	Commit(p, shard, keep int, gids []int32, housekeep bool) error
	Keys(p, shard int, gids []int32) ([][]uint64, error)
	// Snapshot persists shard (hosted by peer p) to the shared
	// snapshot store; Adopt rebuilds it on peer p from that store.
	Snapshot(p, shard int) error
	Adopt(p, shard int) error
	Rollback(p int) error
	SetRoute(p int, route []int) error
	Close()
}

// SnapshotStore persists shard snapshots between layer barriers — the
// unit of work migration. Save must be atomic (a crash mid-save leaves
// the previous snapshot intact); Load returns the latest saved stream.
type SnapshotStore interface {
	Save(shard int, write func(w io.Writer) error) error
	Load(shard int) (io.ReadCloser, error)
}

// MemSnapshots is the in-process SnapshotStore the battery uses.
type MemSnapshots struct {
	mu    sync.Mutex
	blobs map[int][]byte
}

// NewMemSnapshots returns an empty in-memory snapshot store.
func NewMemSnapshots() *MemSnapshots {
	return &MemSnapshots{blobs: make(map[int][]byte)}
}

// Save implements SnapshotStore.
func (m *MemSnapshots) Save(shard int, write func(w io.Writer) error) error {
	// A shard only grows between barriers: starting at its last size
	// keeps Buffer's doubling from overshooting a full arena image.
	m.mu.Lock()
	buf := bytes.NewBuffer(make([]byte, 0, len(m.blobs[shard])*9/8))
	m.mu.Unlock()
	if err := write(buf); err != nil {
		return err
	}
	m.mu.Lock()
	m.blobs[shard] = buf.Bytes()
	m.mu.Unlock()
	return nil
}

// Load implements SnapshotStore.
func (m *MemSnapshots) Load(shard int) (io.ReadCloser, error) {
	m.mu.Lock()
	blob, ok := m.blobs[shard]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: no snapshot for shard %d", shard)
	}
	return io.NopCloser(bytes.NewReader(blob)), nil
}

// maxLayerRetries bounds how many times one layer is retried after
// transient send failures or peer loss before the job fails; each
// retry either heals (sends succeed) or shrinks the peer set (a dead
// peer's shards migrate), so the bound is only a backstop.
const maxLayerRetries = 4

// pendTagged is one pending entry during the coordinator's global merge.
type pendTagged struct {
	shard int
	meta  explore.PendMeta
}

// interrupted is Run's error for a cancelled context.
func interrupted(states int, cause error) error {
	return fmt.Errorf("cluster: %w at %d states (%v)", explore.ErrInterrupted, states, cause)
}

// Run executes one exploration across the transport's peers and
// returns a Result byte-identical to explore.ExploreCtx(newModel,
// opts) — verdict, counts, counterexample traces — except StateBytes,
// which is zero (it measures one process's footprint; a cluster has
// none). newModel and opts must match what the peers were built with.
//
// The layer loop is explore.RunLayers, the same one ExploreCtx runs;
// what this package adds is the coordinator below, a LayerBackend whose
// states live on the peers. It holds only O(states) placement metadata
// (the owning shard per state) plus one layer of pending metadata
// during a merge; the state encodings themselves live only on the
// peers.
func Run[S sim.Cloneable[S]](ctx context.Context, newModel func() *explore.Model[S], opts explore.Options, tr Transport) (_ *explore.Result, err error) {
	n := tr.Peers()
	if n < 1 {
		return nil, errors.New("cluster: no peers")
	}
	c := &coordinator{
		tr: tr, maxStates: opts.MaxStates,
		route: make([]int, n), hostCount: make([]int, n), alive: make([]bool, n),
	}
	for p := 0; p < n; p++ {
		c.route[p] = p // one shard per initial peer
		c.hostCount[p] = 1
		c.alive[p] = true
	}
	defer func() {
		// A transport bound to ctx fails whichever call the cancellation
		// caught in flight; report the cause, not that symptom.
		if cerr := ctx.Err(); err != nil && cerr != nil && !errors.Is(err, explore.ErrInterrupted) {
			err = interrupted(len(c.shardOf), cerr)
		}
	}()
	return explore.RunLayers(ctx, newModel(), opts, c)
}

// coordinator is the cluster LayerBackend: it fans a layer out to the
// peers and recovers from their loss, merges the shards' pending
// entries into the global promotion order, and snapshots every shard
// at each barrier.
type coordinator struct {
	tr        Transport
	maxStates int

	route     []int  // shard -> hosting peer; one shard per initial peer
	hostCount []int  // peer -> shards hosted
	alive     []bool // peer -> not yet lost

	// shardOf is where each promoted state lives, indexed by gid (keys
	// are fetched from the owner when a trace is built); its length is
	// the cluster-wide state count.
	shardOf []uint16
}

// Seed implements explore.LayerBackend.
func (c *coordinator) Seed() error {
	for p := range c.alive {
		if err := c.tr.Seed(p); err != nil {
			return fmt.Errorf("cluster: seed peer %d: %w", p, err)
		}
	}
	return nil
}

// Expand implements explore.LayerBackend: every alive peer expands its
// slice of the layer concurrently; a lost peer or a failed frame send
// rolls the layer back to the barrier and retries it.
func (c *coordinator) Expand(ctx context.Context, depth int, first int32, rep *explore.LayerReport) error {
	n := len(c.alive)
	atCap := c.maxStates > 0 && len(c.shardOf) >= c.maxStates
	for retries := 0; ; {
		if cerr := ctx.Err(); cerr != nil {
			return interrupted(len(c.shardOf), cerr)
		}
		reports := make([]*explore.LayerReport, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			if !c.alive[p] {
				continue
			}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				reports[p], errs[p] = c.tr.Expand(p, depth, first, atCap)
			}(p)
		}
		wg.Wait()
		// A cancelled run fails its in-flight Expands; those peers are
		// not lost, so neither roll back nor migrate — just stop.
		if cerr := ctx.Err(); cerr != nil {
			return interrupted(len(c.shardOf), cerr)
		}

		var dead []int
		var acc explore.LayerReport
		for p := 0; p < n; p++ {
			if !c.alive[p] {
				continue
			}
			if errs[p] != nil {
				dead = append(dead, p)
			} else if reports[p] != nil {
				acc.Merge(reports[p])
			}
		}
		if len(dead) == 0 && acc.SendFailures == 0 {
			// FinishLayer runs only after every peer returned, so
			// late-arriving at-cap membership frames are all accounted
			// for.
			for p := 0; p < n; p++ {
				if !c.alive[p] {
					continue
				}
				capT, err := c.tr.FinishLayer(p)
				if err != nil {
					return fmt.Errorf("cluster: finish layer on peer %d: %w", p, err)
				}
				acc.Truncated = acc.Truncated || capT
			}
			rep.Merge(&acc)
			return nil
		}
		retries++
		if retries > maxLayerRetries {
			return fmt.Errorf("cluster: layer %d failed %d times (last peer errors: %v)", depth, retries, errs)
		}
		if err := c.recover(depth, dead); err != nil {
			return err
		}
	}
}

// recover returns the cluster to the last barrier after a failed
// layer: the survivors roll back, the lost peers' shards migrate, and
// the new routing table is broadcast.
func (c *coordinator) recover(depth int, dead []int) error {
	n := len(c.alive)
	// Roll every survivor back to the barrier; the failed
	// layer's reports and half-delivered frames are discarded
	// wholesale, so the retry re-derives them deterministically.
	for p := 0; p < n; p++ {
		if !c.alive[p] || slices.Contains(dead, p) {
			continue
		}
		if err := c.tr.Rollback(p); err != nil {
			return fmt.Errorf("cluster: rollback peer %d: %w", p, err)
		}
	}
	for _, p := range dead {
		c.alive[p] = false
		c.hostCount[p] = 0
	}
	if !slices.Contains(c.alive, true) {
		return fmt.Errorf("cluster: all peers lost at layer %d", depth)
	}
	// Migrate each orphaned shard to the deterministic adopter:
	// the alive peer hosting the fewest shards, lowest index on
	// ties — keeps the load balanced without coordination state.
	for s := range c.route {
		if c.alive[c.route[s]] {
			continue
		}
		adopter := -1
		for p := 0; p < n; p++ {
			if c.alive[p] && (adopter < 0 || c.hostCount[p] < c.hostCount[adopter]) {
				adopter = p
			}
		}
		if err := c.tr.Adopt(adopter, s); err != nil {
			return fmt.Errorf("cluster: peer %d adopting shard %d: %w", adopter, s, err)
		}
		c.route[s] = adopter
		c.hostCount[adopter]++
	}
	for p := 0; p < n; p++ {
		if c.alive[p] {
			if err := c.tr.SetRoute(p, c.route); err != nil {
				return fmt.Errorf("cluster: route update to peer %d: %w", p, err)
			}
		}
	}
	return nil
}

// Commit implements explore.LayerBackend, the serial phase-B analogue:
// gather each shard's pos-sorted pending metadata, merge into the
// global discovery order, assign gids to the kept prefix, commit each
// shard's share of it back, and snapshot every shard at the new
// barrier.
func (c *coordinator) Commit(room int, housekeep bool, keep func(parent int32, sel string)) (int, bool, error) {
	var all []pendTagged
	for s, p := range c.route {
		meta, err := c.tr.PendMeta(p, s)
		if err != nil {
			return 0, false, fmt.Errorf("cluster: pending metadata for shard %d: %w", s, err)
		}
		for _, m := range meta {
			all = append(all, pendTagged{shard: s, meta: m})
		}
	}
	// pos values are globally unique — each (item, branch) probes
	// one key at one owner — so this sort is a strict total order:
	// exactly the single-node Drain order.
	slices.SortFunc(all, func(a, b pendTagged) int { return cmp.Compare(a.meta.Pos, b.meta.Pos) })
	kept := len(all)
	if room >= 0 {
		kept = min(kept, room)
	}
	gids := make([][]int32, len(c.route))
	for _, t := range all[:kept] {
		keep(t.meta.Parent, string(t.meta.Sel))
		gids[t.shard] = append(gids[t.shard], int32(len(c.shardOf)))
		c.shardOf = append(c.shardOf, uint16(t.shard))
	}
	for s, p := range c.route {
		if err := c.tr.Commit(p, s, len(gids[s]), gids[s], housekeep); err != nil {
			return 0, false, fmt.Errorf("cluster: commit shard %d: %w", s, err)
		}
	}
	for s, p := range c.route {
		if err := c.tr.Snapshot(p, s); err != nil {
			return 0, false, fmt.Errorf("cluster: snapshot shard %d: %w", s, err)
		}
	}
	return kept, kept < len(all), nil
}

// Keys implements explore.LayerBackend, fetching from the owning
// shards in one batch per shard.
func (c *coordinator) Keys(gids []int32) ([][]uint64, error) {
	byShard := make(map[int][]int32)
	for _, g := range gids {
		s := int(c.shardOf[g])
		byShard[s] = append(byShard[s], g)
	}
	keyOf := make(map[int32][]uint64, len(gids))
	for s, gs := range byShard {
		slices.Sort(gs)
		keys, err := c.tr.Keys(c.route[s], s, gs)
		if err != nil {
			return nil, fmt.Errorf("cluster: trace keys from shard %d: %w", s, err)
		}
		for i, g := range gs {
			keyOf[g] = keys[i]
		}
	}
	out := make([][]uint64, len(gids))
	for i, g := range gids {
		out[i] = keyOf[g]
	}
	return out, nil
}
