// Package cluster runs one bounded exhaustive exploration across N
// in-process checker peers and proves it changed nothing: the visited
// set is partitioned into contiguous state-hash ranges (one shard per
// peer, explore.ShardOf), each peer expands its slice of every BFS
// layer and ships successors it does not own to the owning peer as
// binary frontier frames, and the coordinator in this package drives
// the layer barriers — merging the per-shard pending metadata into the
// exact single-node promotion order and assigning dense global ids —
// as the backend of the same layer loop explore.ExploreCtx runs
// (explore.RunLayers), so the Result is byte-identical to the
// single-node one at any peer count (the cluster differential battery
// in this package pins that, traces included).
//
// The package is what bench/'s cluster-local3 workload measures, and
// nothing else reaches it: no command or server runs a cluster. It has
// no fault tolerance, since peers in one process are not lost one at a
// time: a failed peer call fails the run with an error naming the peer
// and the layer.
package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/explore"
	"repro/internal/sim"
)

// Transport is the coordinator's view of the peer set. Peer indices
// are dense [0, Peers()), and peer p hosts shard p.
type Transport interface {
	Peers() int
	Seed(p int) error
	Expand(p int, depth int, firstGid int32, atCap bool) (*explore.LayerReport, error)
	FinishLayer(p int) (bool, error)
	PendMeta(p, shard int) ([]explore.PendMeta, error)
	Commit(p, shard, keep int, gids []int32, housekeep bool) error
	Keys(p, shard int, gids []int32) ([][]uint64, error)
	// Snapshot is never called: shards are not snapshotted. It stays
	// because bench/'s cluster workload decorates it.
	Snapshot(p, shard int) error
	Close()
}

// MemSnapshots holds nothing: shards are not snapshotted. It stays
// because bench/'s cluster workload configures it (LocalConfig).
type MemSnapshots struct{}

// NewMemSnapshots returns the empty MemSnapshots.
func NewMemSnapshots() *MemSnapshots { return &MemSnapshots{} }

// pendTagged is one pending entry during the coordinator's global merge.
type pendTagged struct {
	shard int
	meta  explore.PendMeta
}

// Run executes one exploration across the transport's peers and
// returns a Result byte-identical to explore.ExploreCtx(newModel,
// opts) — verdict, counts, counterexample traces — except StateBytes,
// which is zero (it measures one process's footprint; a cluster has
// none). newModel and opts must match what the peers were built with.
// On any error it returns no Result.
//
// The layer loop is explore.RunLayers, the same one ExploreCtx runs;
// what this package adds is the coordinator below, a LayerBackend whose
// states live on the peers. It holds only O(states) placement metadata
// (the owning shard per state) plus one layer of pending metadata
// during a merge; the state encodings themselves live only on the
// peers.
func Run[S sim.Cloneable[S]](ctx context.Context, newModel func() *explore.Model[S], opts explore.Options, tr Transport) (*explore.Result, error) {
	if tr.Peers() < 1 {
		return nil, errors.New("cluster: no peers")
	}
	res, err := explore.RunLayers(ctx, newModel(), opts, &coordinator{tr: tr, maxStates: opts.MaxStates})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// coordinator is the cluster LayerBackend: it fans a layer out to the
// peers and merges their shards' pending entries into the global
// promotion order.
type coordinator struct {
	tr        Transport
	maxStates int
	// depth is the layer in flight: the seed layer 0 until the first
	// Expand, then the layer last expanded, whose commit follows.
	depth int

	// shardOf is where each promoted state lives, indexed by gid (keys
	// are fetched from the owner when a trace is built); its length is
	// the cluster-wide state count.
	shardOf []uint16
}

// failed is the coordinator's error for a failed call to peer p.
func (c *coordinator) failed(p int, op string, err error) error {
	return fmt.Errorf("cluster: peer %d failed at layer %d (%s): %w", p, c.depth, op, err)
}

// Seed implements explore.LayerBackend: every peer probes the inits its
// shard owns into its pending set, and the seed layer is committed
// like any other, without housekeeping.
func (c *coordinator) Seed(room int, links *explore.TraceLinks) (int, bool, error) {
	for p := range c.tr.Peers() {
		if err := c.tr.Seed(p); err != nil {
			return 0, false, c.failed(p, "seed", err)
		}
	}
	return c.commit(room, false, links)
}

// Expand implements explore.LayerBackend: every peer expands its slice
// of the layer concurrently.
func (c *coordinator) Expand(ctx context.Context, depth int, first int32, rep *explore.LayerReport) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("cluster: %w at %d states (%v)", explore.ErrInterrupted, len(c.shardOf), cerr)
	}
	c.depth = depth
	n := c.tr.Peers()
	atCap := c.maxStates > 0 && len(c.shardOf) >= c.maxStates
	reports := make([]*explore.LayerReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[p], errs[p] = c.tr.Expand(p, depth, first, atCap)
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return c.failed(p, "expand", err)
		}
	}
	// FinishLayer runs only after every peer returned, so late-arriving
	// at-cap membership frames are all accounted for.
	for p := range n {
		capT, err := c.tr.FinishLayer(p)
		if err != nil {
			return c.failed(p, "finish", err)
		}
		rep.Merge(reports[p])
		rep.Truncated = rep.Truncated || capT
	}
	return nil
}

// Commit implements explore.LayerBackend.
func (c *coordinator) Commit(room int, links *explore.TraceLinks) (int, bool, error) {
	return c.commit(room, true, links)
}

// commit is the serial phase-B analogue: gather each shard's
// pos-sorted pending metadata, merge into the global discovery order,
// assign gids to the kept prefix, and commit each shard's share of it
// back (housekeeping after it when asked).
func (c *coordinator) commit(room int, housekeep bool, links *explore.TraceLinks) (int, bool, error) {
	n := c.tr.Peers()
	var all []pendTagged
	for s := range n {
		meta, err := c.tr.PendMeta(s, s)
		if err != nil {
			return 0, false, c.failed(s, "pendmeta", err)
		}
		for _, m := range meta {
			all = append(all, pendTagged{shard: s, meta: m})
		}
	}
	// pos values are globally unique — each (item, branch) probes
	// one key at one owner — so this sort is a strict total order:
	// exactly the single-node promotion order.
	slices.SortFunc(all, func(a, b pendTagged) int { return cmp.Compare(a.meta.Pos, b.meta.Pos) })
	kept := len(all)
	if room >= 0 {
		kept = min(kept, room)
	}
	gids := make([][]int32, n)
	link := links.Extend(kept)
	for i, t := range all[:kept] {
		links.Set(link+i, t.meta.Parent)
		gids[t.shard] = append(gids[t.shard], int32(len(c.shardOf)))
		c.shardOf = append(c.shardOf, uint16(t.shard))
	}
	for s := range n {
		if err := c.tr.Commit(s, s, len(gids[s]), gids[s], housekeep); err != nil {
			return 0, false, c.failed(s, "commit", err)
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
		keys, err := c.tr.Keys(s, s, gs)
		if err != nil {
			return nil, c.failed(s, "keys", err)
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
