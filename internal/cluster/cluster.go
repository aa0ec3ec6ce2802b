// Package cluster distributes one bounded exhaustive exploration
// across N checker peers and proves it changed nothing: the visited
// set is partitioned into contiguous state-hash ranges (one shard per
// initial peer, explore.ShardOf), each peer expands its slice of every
// BFS layer and ships successors it does not own to the owning peer as
// binary frontier frames, and the coordinator in this package drives
// the layer barriers — merging the per-shard pending metadata into the
// exact single-node promotion order, assigning dense global ids, and
// folding the per-peer layer reports into a Result that is
// byte-identical to explore.ExploreCtx at any peer count (the cluster
// differential battery in this package pins that, traces included).
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
// The package supplies two transports: Local wires in-process engines
// directly (with chaos.PeerLoss injection for the battery), and HTTP
// drives real ccserve peers over /v1/cluster/* (see internal/serve).
package cluster

import (
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

type memBlobWriter struct{ buf []byte }

func (w *memBlobWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Save implements SnapshotStore.
func (m *MemSnapshots) Save(shard int, write func(w io.Writer) error) error {
	var w memBlobWriter
	if err := write(&w); err != nil {
		return err
	}
	m.mu.Lock()
	m.blobs[shard] = w.buf
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
	return io.NopCloser(newByteReader(blob)), nil
}

type byteReader struct {
	b []byte
	i int
}

func newByteReader(b []byte) *byteReader { return &byteReader{b: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
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
// The coordinator holds only O(states) trace metadata (parent gid,
// selection, owning shard per state) plus one layer of pending
// metadata during a merge; the state encodings themselves live only on
// the peers.
func Run[S sim.Cloneable[S]](ctx context.Context, newModel func() *explore.Model[S], opts explore.Options, tr Transport) (_ *explore.Result, err error) {
	totalStates := 0
	defer func() {
		// A transport bound to ctx fails whichever call the cancellation
		// caught in flight; report the cause, not that symptom.
		if cerr := ctx.Err(); err != nil && cerr != nil && !errors.Is(err, explore.ErrInterrupted) {
			err = interrupted(totalStates, cerr)
		}
	}()
	opts = opts.Defaulted()
	m0 := newModel()
	n := tr.Peers()
	if n < 1 {
		return nil, errors.New("cluster: no peers")
	}
	nShards := n
	route := make([]int, nShards)
	hostCount := make([]int, n)
	for s := range route {
		route[s] = s
		hostCount[s]++
	}
	alive := make([]bool, n)
	for p := range alive {
		alive[p] = true
	}
	res := &explore.Result{
		Model: m0.Name, Mode: opts.Mode, MaxIncorrectDepth: -1,
		Symmetry: opts.Symmetry && len(m0.Syms) > 0,
	}

	// Coordinator-side trace state, indexed by gid: mirror of the
	// single-node parentOf/selOf plus the owning shard (keys are
	// fetched from the owner when a trace is built).
	var parentOf []int32
	var selOf []string
	var shardOf []uint16

	// mergeCommit is the serial phase-B analogue: gather each shard's
	// pos-sorted pending metadata, merge into the global discovery
	// order, enforce the state bound, assign gids, and commit each
	// shard's kept prefix back. Returns the number of states promoted.
	mergeCommit := func(housekeep bool) (int, error) {
		var all []pendTagged
		for s := 0; s < nShards; s++ {
			meta, err := tr.PendMeta(route[s], s)
			if err != nil {
				return 0, fmt.Errorf("cluster: pending metadata for shard %d: %w", s, err)
			}
			for _, m := range meta {
				all = append(all, pendTagged{shard: s, meta: m})
			}
		}
		// pos values are globally unique — each (item, branch) probes
		// one key at one owner — so this sort is a strict total order:
		// exactly the single-node Drain order.
		slices.SortFunc(all, func(a, b pendTagged) int { return cmp.Compare(a.meta.Pos, b.meta.Pos) })
		keep := len(all)
		if opts.MaxStates > 0 {
			if room := opts.MaxStates - totalStates; keep > room {
				keep = max(room, 0)
				res.Truncated = true
			}
		}
		gids := make([][]int32, nShards)
		for i := 0; i < keep; i++ {
			t := all[i]
			gid := int32(totalStates + i)
			parentOf = append(parentOf, t.meta.Parent)
			selOf = append(selOf, string(t.meta.Sel))
			shardOf = append(shardOf, uint16(t.shard))
			gids[t.shard] = append(gids[t.shard], gid)
		}
		for s := 0; s < nShards; s++ {
			if err := tr.Commit(route[s], s, len(gids[s]), gids[s], housekeep); err != nil {
				return 0, fmt.Errorf("cluster: commit shard %d: %w", s, err)
			}
		}
		totalStates += keep
		return keep, nil
	}

	snapshotAll := func() error {
		for s := 0; s < nShards; s++ {
			if err := tr.Snapshot(route[s], s); err != nil {
				return fmt.Errorf("cluster: snapshot shard %d: %w", s, err)
			}
		}
		return nil
	}

	// buildTrace mirrors the single-node trace builder with the keys
	// fetched from the owning shards in one batch per shard.
	buildTrace := func(gid int32, wv explore.LayerViol) ([]explore.TraceStep, error) {
		var path []int32
		for x := gid; x >= 0; x = parentOf[x] {
			path = append(path, x)
		}
		byShard := make(map[int][]int32)
		for _, x := range path {
			s := int(shardOf[x])
			byShard[s] = append(byShard[s], x)
		}
		keyOf := make(map[int32][]uint64, len(path))
		for s, gs := range byShard {
			slices.Sort(gs)
			keys, err := tr.Keys(route[s], s, gs)
			if err != nil {
				return nil, fmt.Errorf("cluster: trace keys from shard %d: %w", s, err)
			}
			for i, g := range gs {
				keyOf[g] = keys[i]
			}
		}
		out := make([]explore.TraceStep, 0, len(path)+1)
		for i := len(path) - 1; i >= 0; i-- {
			x := path[i]
			key := keyOf[x]
			out = append(out, explore.TraceStep{Sel: explore.DecodeSel(selOf[x]), Config: m0.RenderKey(key), Key: key})
		}
		if wv.Key != nil {
			out = append(out, explore.TraceStep{Sel: wv.Sel, Config: m0.RenderKey(wv.Key), Key: wv.Key})
		}
		return out, nil
	}

	// --- seed ------------------------------------------------------------------
	for p := 0; p < n; p++ {
		if err := tr.Seed(p); err != nil {
			return res, fmt.Errorf("cluster: seed peer %d: %w", p, err)
		}
	}
	inits, err := mergeCommit(false)
	if err != nil {
		return res, err
	}
	res.Inits = inits
	res.States = totalStates
	if err := snapshotAll(); err != nil {
		return res, err
	}

	// --- layer loop ------------------------------------------------------------
	depth := 0
	frontLen := inits
	retries := 0
	for frontLen > 0 && len(res.Violations) < opts.MaxViolations {
		if cerr := ctx.Err(); cerr != nil {
			return res, interrupted(totalStates, cerr)
		}
		if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
			res.Truncated = true
			break
		}
		atCap := opts.MaxStates > 0 && totalStates >= opts.MaxStates
		firstGid := int32(totalStates - frontLen)

		reports := make([]*explore.LayerReport, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			if !alive[p] {
				continue
			}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				reports[p], errs[p] = tr.Expand(p, depth, firstGid, atCap)
			}(p)
		}
		wg.Wait()
		// A cancelled run fails its in-flight Expands; those peers are
		// not lost, so neither roll back nor migrate — just stop.
		if cerr := ctx.Err(); cerr != nil {
			return res, interrupted(totalStates, cerr)
		}

		var dead []int
		sendFails := 0
		for p := 0; p < n; p++ {
			if !alive[p] {
				continue
			}
			if errs[p] != nil {
				dead = append(dead, p)
			} else if reports[p] != nil {
				sendFails += reports[p].SendFailures
			}
		}
		if len(dead) > 0 || sendFails > 0 {
			retries++
			if retries > maxLayerRetries {
				return res, fmt.Errorf("cluster: layer %d failed %d times (last peer errors: %v)", depth, retries, errs)
			}
			// Roll every survivor back to the barrier; the failed
			// layer's reports and half-delivered frames are discarded
			// wholesale, so the retry re-derives them deterministically.
			for p := 0; p < n; p++ {
				if !alive[p] || slices.Contains(dead, p) {
					continue
				}
				if err := tr.Rollback(p); err != nil {
					return res, fmt.Errorf("cluster: rollback peer %d: %w", p, err)
				}
			}
			for _, p := range dead {
				alive[p] = false
				hostCount[p] = 0
			}
			anyAlive := false
			for p := 0; p < n; p++ {
				anyAlive = anyAlive || alive[p]
			}
			if !anyAlive {
				return res, fmt.Errorf("cluster: all peers lost at layer %d", depth)
			}
			// Migrate each orphaned shard to the deterministic adopter:
			// the alive peer hosting the fewest shards, lowest index on
			// ties — keeps the load balanced without coordination state.
			for s := 0; s < nShards; s++ {
				if alive[route[s]] {
					continue
				}
				adopter := -1
				for p := 0; p < n; p++ {
					if alive[p] && (adopter < 0 || hostCount[p] < hostCount[adopter]) {
						adopter = p
					}
				}
				if err := tr.Adopt(adopter, s); err != nil {
					return res, fmt.Errorf("cluster: peer %d adopting shard %d: %w", adopter, s, err)
				}
				route[s] = adopter
				hostCount[adopter]++
			}
			for p := 0; p < n; p++ {
				if alive[p] {
					if err := tr.SetRoute(p, route); err != nil {
						return res, fmt.Errorf("cluster: route update to peer %d: %w", p, err)
					}
				}
			}
			continue // retry the layer from the barrier
		}
		retries = 0

		// Fold the per-peer aggregates; FinishLayer runs only after
		// every peer returned, so late-arriving at-cap membership
		// frames are all accounted for.
		var acc explore.LayerReport
		for p := 0; p < n; p++ {
			if !alive[p] {
				continue
			}
			capT, err := tr.FinishLayer(p)
			if err != nil {
				return res, fmt.Errorf("cluster: finish layer on peer %d: %w", p, err)
			}
			acc.Truncated = acc.Truncated || capT
			r := reports[p]
			acc.Deadlocks += r.Deadlocks
			acc.Transitions += r.Transitions
			acc.Truncated = acc.Truncated || r.Truncated
			acc.Incorrect = acc.Incorrect || r.Incorrect
			if r.MaxEnabled > acc.MaxEnabled {
				acc.MaxEnabled = r.MaxEnabled
			}
			acc.Viols = append(acc.Viols, r.Viols...)
		}

		kept, err := mergeCommit(true)
		if err != nil {
			return res, err
		}

		res.Deadlocks += acc.Deadlocks
		res.Transitions += acc.Transitions
		if acc.Truncated {
			res.Truncated = true
		}
		if acc.Incorrect && depth > res.MaxIncorrectDepth {
			res.MaxIncorrectDepth = depth
		}
		if acc.MaxEnabled > res.MaxEnabled {
			res.MaxEnabled = acc.MaxEnabled
		}
		if len(acc.Viols) > 0 {
			// Stable by global item: one item is expanded by one worker
			// on one peer, which appends its violations in detection
			// order — the single-node report order.
			slices.SortStableFunc(acc.Viols, func(a, b explore.LayerViol) int { return cmp.Compare(a.Item, b.Item) })
			for _, v := range acc.Viols {
				if len(res.Violations) >= opts.MaxViolations {
					break
				}
				d := depth
				if v.Key != nil {
					d++
				}
				trace, err := buildTrace(firstGid+int32(v.Item), v)
				if err != nil {
					return res, err
				}
				res.Violations = append(res.Violations, explore.Violation{
					Kind: v.Kind, Msg: v.Msg, Depth: d, Trace: trace,
				})
			}
		}
		res.States = totalStates
		depth++
		res.Depth = depth
		frontLen = kept
		if err := snapshotAll(); err != nil {
			return res, err
		}
	}
	if len(res.Violations) >= opts.MaxViolations {
		res.Truncated = true
	}
	res.StateBytes = 0
	return res, nil
}
