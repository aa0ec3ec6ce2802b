package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
)

// cluster-local3: the explore-wide cell through cluster.Run over an
// in-process transport with three shard-owning peer engines. One
// repeat builds the peers, runs the coordinator to its verdict and
// tears the peers down. The result must be byte-identical to
// explore-wide's (StateBytes aside).
type clusterInst struct {
	e       *env
	factory func() *explore.Model[core.State]
	opts    explore.Options
	peers   int

	// lastTT is the decorator of the latest traced repeat: it carries the
	// counters the span log does not (frame bytes, per-layer expand times).
	lastTT *tracedTransport
}

func setupCluster(e *env) (instance, error) {
	factory, opts, err := wideCell(e)
	if err != nil {
		return nil, err
	}
	c := &clusterInst{e: e, factory: factory, opts: opts, peers: 3}
	// Warm-up: the same cluster on the cell bounded to four fifths.
	warm := opts
	warm.MaxStates = max(opts.MaxStates*4/5, 1)
	res, err := c.runCluster(nil, warm, c.peers, 0)
	if err != nil {
		return nil, err
	}
	if !res.Ok() {
		return nil, fmt.Errorf("%w: warm-up found violations: %s", errGolden, res.Summary())
	}
	return c, nil
}

// runCluster assembles n peers (one shard each, default frame size,
// in-memory snapshots, no loss) and runs the coordinator. With a
// tracer, the transport and every engine are wrapped in the timing
// decorators below.
func (c *clusterInst) runCluster(tr *tracer, opts explore.Options, n int, op int64) (*explore.Result, error) {
	engines := make([]explore.PeerEngine, n)
	var tt *tracedTransport
	if tr != nil {
		tt = &tracedTransport{tr: tr, op: op, expandSpan: make([]atomic.Int32, n)}
		c.lastTT = tt
	}
	for p := range engines {
		eng, err := explore.NewPeer(c.factory, opts, explore.PeerConfig{NShards: n, Hosted: []int{p}, Self: p})
		if err != nil {
			return nil, err
		}
		if tt != nil {
			eng = &tracedEngine{PeerEngine: eng, t: tt, self: p}
		}
		engines[p] = eng
	}
	var transport cluster.Transport = cluster.NewLocal(cluster.LocalConfig{
		Engines: engines, Snapshots: cluster.NewMemSnapshots(),
	})
	defer transport.Close()
	if tt != nil {
		tt.Transport = transport
		transport = tt
		tt.root = tr.begin("cluster.Run", -1, op)
		defer tr.end(tt.root)
	}
	return cluster.Run(context.Background(), c.factory, opts, transport)
}

func (c *clusterInst) run(tr *tracer, seconds float64, minRepeats int) (runResult, error) {
	return repeatLoop(seconds, minRepeats, 1, func(rep int) (int, int, error) {
		r, err := c.runCluster(tr, c.opts, c.peers, int64(rep))
		if err != nil {
			return 0, 0, err
		}
		failed := 0
		if c.e.full() {
			if err := goldenWide.check(r, nil); err != nil {
				fmt.Fprintf(os.Stderr, "bench: repeat %d: %v\n", rep, err)
				failed = 1
			}
		} else if !r.Ok() {
			failed = 1
		}
		return r.States, failed, nil
	})
}

// tracedTransport times every coordinator → peer call. Spans are
// children of the cluster.Run span, so Run's self time is the
// coordinator's own work (merge, sort, gid assignment, result fold).
type tracedTransport struct {
	cluster.Transport
	tr   *tracer
	op   int64
	root int32
	// expandSpan[p] is peer p's open Expand span: frames p's workers
	// send during it are caused by it.
	expandSpan []atomic.Int32

	mu         sync.Mutex
	expandAt   map[int][]int64 // depth → each peer's Expand duration
	frameBytes int64
}

func (t *tracedTransport) Seed(p int) error {
	defer t.tr.end(t.tr.begin("cluster.seed", t.root, t.op))
	return t.Transport.Seed(p)
}

func (t *tracedTransport) Expand(p, depth int, firstGid int32, atCap bool) (*explore.LayerReport, error) {
	id := t.tr.begin("cluster.expand", t.root, t.op)
	t.expandSpan[p].Store(id)
	t0 := time.Now()
	rep, err := t.Transport.Expand(p, depth, firstGid, atCap)
	d := time.Since(t0)
	t.tr.end(id)
	t.mu.Lock()
	if t.expandAt == nil {
		t.expandAt = make(map[int][]int64)
	}
	t.expandAt[depth] = append(t.expandAt[depth], int64(d))
	t.mu.Unlock()
	return rep, err
}

func (t *tracedTransport) FinishLayer(p int) (bool, error) {
	defer t.tr.end(t.tr.begin("cluster.finish", t.root, t.op))
	return t.Transport.FinishLayer(p)
}

func (t *tracedTransport) PendMeta(p, shard int) ([]explore.PendMeta, error) {
	defer t.tr.end(t.tr.begin("cluster.pendmeta", t.root, t.op))
	return t.Transport.PendMeta(p, shard)
}

func (t *tracedTransport) Commit(p, shard, keep int, gids []int32, housekeep bool) error {
	defer t.tr.end(t.tr.begin("cluster.commit", t.root, t.op))
	return t.Transport.Commit(p, shard, keep, gids, housekeep)
}

func (t *tracedTransport) Keys(p, shard int, gids []int32) ([][]uint64, error) {
	defer t.tr.end(t.tr.begin("cluster.keys", t.root, t.op))
	return t.Transport.Keys(p, shard, gids)
}

func (t *tracedTransport) Snapshot(p, shard int) error {
	defer t.tr.end(t.tr.begin("cluster.snapshot", t.root, t.op))
	return t.Transport.Snapshot(p, shard)
}

// barrierWait is Σ over layers of (slowest peer's Expand − the mean):
// what the faster peers spent waiting at the barrier.
func (t *tracedTransport) barrierWait() int64 {
	var wait float64
	for _, ds := range t.expandAt {
		var sum, slowest int64
		for _, d := range ds {
			sum += d
			slowest = max(slowest, d)
		}
		wait += float64(slowest) - float64(sum)/float64(len(ds))
	}
	return int64(wait)
}

// tracedEngine wraps one peer's frame path: SetSender counts and
// times the frames the peer emits, Ingest times the frames it absorbs.
type tracedEngine struct {
	explore.PeerEngine
	t    *tracedTransport
	self int
}

func (e *tracedEngine) SetSender(send func(dst int, frame []byte) error) {
	e.PeerEngine.SetSender(func(dst int, frame []byte) error {
		id := e.t.tr.begin("cluster.frame", e.t.expandSpan[e.self].Load(), e.t.op)
		err := send(dst, frame)
		e.t.tr.end(id)
		e.t.mu.Lock()
		e.t.frameBytes += int64(len(frame))
		e.t.mu.Unlock()
		return err
	})
}

func (e *tracedEngine) Ingest(frame []byte) error {
	defer e.t.tr.end(e.t.tr.begin("cluster.ingest", -1, e.t.op))
	return e.PeerEngine.Ingest(frame)
}

func (c *clusterInst) layers(spans []span, res runResult, m metricSet) {
	lt := selfTimes(spans)
	runs := float64(max(lt["cluster.Run"].Count, 1))
	perRun := func(name string) float64 { return float64(lt[name].Total) / 1e9 / runs }
	m["cluster.seed_s"] = perRun("cluster.seed")
	m["cluster.expand_s"] = perRun("cluster.expand")
	m["cluster.pendmeta_s"] = perRun("cluster.pendmeta")
	m["cluster.commit_s"] = perRun("cluster.commit")
	m["cluster.snapshot_s"] = perRun("cluster.snapshot")
	m["cluster.keys_s"] = perRun("cluster.keys")
	m["cluster.finish_s"] = perRun("cluster.finish")
	m["cluster.ingest_s"] = perRun("cluster.ingest")
	m["cluster.coord_self_s"] = float64(lt["cluster.Run"].Self) / 1e9 / runs
	m["cluster.frames"] = float64(lt["cluster.frame"].Count) / runs
	if tt := c.lastTT; tt != nil {
		m["cluster.frame_bytes"] = float64(tt.frameBytes)
		m["cluster.barrier_wait_s"] = float64(tt.barrierWait()) / 1e9
	}
}

func (c *clusterInst) probes(m metricSet) error {
	// Ratios on the cell bounded to a third: single node ÷ three peers,
	// and single node ÷ one peer (the cost of the cluster layer alone).
	opts := c.opts
	opts.MaxStates = max(opts.MaxStates/3, 1)
	rate := func(run func() (*explore.Result, error)) (float64, error) {
		betweenRepeats()
		t0 := time.Now()
		r, err := run()
		if err != nil {
			return 0, err
		}
		return float64(r.States) / time.Since(t0).Seconds(), nil
	}
	single, _ := rate(func() (*explore.Result, error) { return explore.Explore(c.factory, opts), nil })
	three, err := rate(func() (*explore.Result, error) { return c.runCluster(nil, opts, 3, 0) })
	if err != nil {
		return err
	}
	one, err := rate(func() (*explore.Result, error) { return c.runCluster(nil, opts, 1, 0) })
	if err != nil {
		return err
	}
	m["cluster.overhead_vs_single"] = single / three
	m["cluster.overhead_1peer"] = single / one
	return nil
}

func (c *clusterInst) close() {}
