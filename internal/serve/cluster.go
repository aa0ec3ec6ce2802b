// The cluster tier: ccserve as one peer of a distributed exploration.
// A coordinator (cccheck -peers, i.e. campaign.ExecOptions.Peers) opens
// a job here with POST /v1/cluster/rpc {op:"open"}, after which this
// process hosts one shard of the partitioned visited set, expands its
// slice of every BFS layer on command, ships successors it does not
// own to the owning peers as binary frames (POST /v1/cluster/frontier
// on the destination), and persists its shard snapshot into the
// verdict store at every layer barrier so the coordinator can migrate
// the shard to a surviving peer (op "adopt") if this one dies. This
// file owns what needs the cluster-job table (clusterJobs, under
// clusterMu) — open, close, admission, the counters; every other op is
// cluster.Serve's, the dispatch the in-process battery transport runs
// too.

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/explore"
	"repro/internal/store"
)

// Request-body bounds for the cluster tier: the control plane carries
// commit gid arrays (bounded by MaxStatesCap states ≈ tens of MB of
// JSON at the default cap), the data plane carries flush-bounded
// binary frames.
const (
	maxClusterRPCBytes   = 256 << 20
	maxClusterFrameBytes = 64 << 20
)

// clusterPeer is one open distributed job on this server.
type clusterPeer struct {
	job    string
	self   int
	peers  []string
	engine explore.PeerEngine
	snaps  shardSnapshots
	srv    *Server
	// stats collects the engine's explorer counters, which it adds as
	// it closes.
	stats *explore.RunStats

	// refs counts the open job itself plus every handler inside the
	// engine; whoever drops the last one closes it. A cancelled
	// coordinator closes the job without waiting for its expand to
	// return, and an engine must not be closed under its own workers.
	refs atomic.Int32
	// replaced: a re-open put a new engine under this job key, and the
	// job's shard snapshots are that run's from then on.
	replaced atomic.Bool
}

// enter admits one engine call, to be ended with leave; false once
// the engine is closed.
func (cp *clusterPeer) enter() bool {
	for {
		n := cp.refs.Load()
		if n == 0 {
			return false
		}
		if cp.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// leave ends an admitted call; the last one out retires the engine and,
// unless replaced, the snapshots of the shards it hosts (after adoptions
// every shard of the job) — so nothing written by a call still in
// flight when close arrived is left behind — and adds the engine's
// explorer counters to the server's.
func (cp *clusterPeer) leave() {
	if cp.refs.Add(-1) != 0 {
		return
	}
	if !cp.replaced.Load() {
		for _, shard := range cp.engine.Hosted() {
			cp.snaps.checkpoint(shard).Delete()
		}
	}
	cp.engine.Close()
	cp.srv.coldReads.Add(cp.stats.ColdReads)
	cp.srv.localLookups.Add(cp.stats.LocalLookups)
	cp.srv.localHits.Add(cp.stats.LocalHits)
}

// shardSnapshots is one job's cluster.SnapshotStore over the verdict
// store's checkpoint blobs (all peers share one cache directory).
type shardSnapshots struct {
	st  store.Interface
	job string
}

func (ss shardSnapshots) checkpoint(shard int) *store.Checkpoint {
	return ss.st.Checkpoint(store.ShardSnapshotKey(ss.job, shard))
}

func (ss shardSnapshots) Save(shard int, write func(w io.Writer) error) error {
	return ss.checkpoint(shard).Save(write)
}

func (ss shardSnapshots) Load(shard int) (io.ReadCloser, error) {
	rc, err := ss.checkpoint(shard).Load()
	if err == nil && rc == nil {
		err = fmt.Errorf("no snapshot for job %q shard %d in the store", ss.job, shard)
	}
	return rc, err
}

// frameClient posts frontier frames peer-to-peer; expansion RPCs can
// outlive it by design — a frame either lands quickly or the send
// fails and the coordinator retries the layer.
var frameClient = &http.Client{Timeout: 30 * time.Second}

// clusterError writes the error envelope and bumps the cluster error
// counter — one signal for the operator that a coordinator and this
// peer are disagreeing.
func (s *Server) clusterError(w http.ResponseWriter, code int, format string, args ...any) {
	s.clusterErrors.Add(1)
	writeError(w, code, format, args...)
}

// enterClusterJob returns the open job with one engine call admitted
// (the caller owes a leave), or nil.
func (s *Server) enterClusterJob(job string) *clusterPeer {
	s.clusterMu.Lock()
	cp := s.clusterJobs[job]
	s.clusterMu.Unlock()
	if cp == nil || !cp.enter() {
		return nil
	}
	return cp
}

// handleClusterRPC is the control plane: one op-discriminated POST per
// coordinator call. Errors return the usual envelope; the coordinator
// treats an expansion error as peer loss and anything else as fatal.
func (s *Server) handleClusterRPC(w http.ResponseWriter, r *http.Request) {
	var req cluster.RPCRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxClusterRPCBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.clusterError(w, http.StatusBadRequest, "bad cluster rpc: %v", err)
		return
	}
	if req.Job == "" {
		s.clusterError(w, http.StatusBadRequest, "bad cluster rpc: missing job key")
		return
	}
	if req.Op == "open" {
		s.handleClusterOpen(w, req)
		return
	}
	cp := s.enterClusterJob(req.Job)
	if cp == nil {
		s.clusterError(w, http.StatusNotFound, "no open cluster job %q on this peer", req.Job)
		return
	}
	defer cp.leave()
	if req.Op == "close" {
		s.closeClusterJob(req.Job)
		writeJSON(w, http.StatusOK, cluster.RPCResponse{})
		return
	}
	out, err := cluster.Serve(cp.engine, cp.snaps, req)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, cluster.ErrUnknownOp) {
			code = http.StatusBadRequest
		}
		s.clusterError(w, code, "cluster %s: %v", req.Op, err)
		return
	}
	if req.Op == "adopt" {
		s.clusterAdoptions.Add(1)
		s.logf("cluster job %s: adopted shard %d", shortKey(req.Job), req.Shard)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleClusterOpen validates the forwarded spec with the same checks
// a direct submission gets (including the server's state-bound cap)
// and builds this peer's engine through the shared job runner, so the
// distributed check is provably the same problem.
func (s *Server) handleClusterOpen(w http.ResponseWriter, req cluster.RPCRequest) {
	var spec store.JobSpec
	dec := json.NewDecoder(bytes.NewReader(req.Spec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.clusterError(w, http.StatusBadRequest, "bad cluster job spec: %v", err)
		return
	}
	c, err := s.validateSpec(spec)
	if err != nil {
		s.clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.NShards < 1 || req.Self < 0 || req.Self >= req.NShards || len(req.Peers) != req.NShards {
		s.clusterError(w, http.StatusBadRequest,
			"bad cluster topology: nshards=%d self=%d peers=%d", req.NShards, req.Self, len(req.Peers))
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.cfg.JobWorkers
	}
	stats := &explore.RunStats{}
	engine, err := campaign.NewPeerEngine(c, campaign.ExecOptions{
		Workers: workers, MemBudget: s.cfg.MemBudget, SpillDir: s.cfg.SpillDir, FS: s.cfg.FS, Stats: stats,
	}, explore.PeerConfig{NShards: req.NShards, Hosted: []int{req.Self}, Self: req.Self})
	if err != nil {
		s.clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cp := &clusterPeer{
		job: req.Job, self: req.Self, peers: req.Peers, engine: engine,
		snaps: shardSnapshots{st: s.cfg.Store, job: req.Job}, srv: s, stats: stats,
	}
	cp.refs.Store(1)
	engine.SetSender(func(dst int, frame []byte) error { return cp.sendFrame(dst, frame) })

	s.clusterMu.Lock()
	old := s.clusterJobs[req.Job]
	s.clusterJobs[req.Job] = cp
	s.clusterMu.Unlock()
	s.clusterOpens.Add(1)
	if old != nil {
		// A re-open replaces a stale engine (coordinator retry after a
		// crash); the old one's shards are rebuilt from snapshots anyway.
		old.replaced.Store(true)
		old.leave()
	}
	s.logf("cluster job %s open: shard %d of %d", shortKey(req.Job), req.Self, req.NShards)
	writeJSON(w, http.StatusOK, cluster.RPCResponse{})
}

func (cp *clusterPeer) sendFrame(dst int, frame []byte) error {
	if dst < 0 || dst >= len(cp.peers) {
		return fmt.Errorf("serve: frame for unknown peer %d", dst)
	}
	resp, err := frameClient.Post(cluster.FrontierURL(cp.peers[dst], cp.job),
		"application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: frame to peer %d: %s", dst, resp.Status)
	}
	return nil
}

func (s *Server) closeClusterJob(job string) {
	s.clusterMu.Lock()
	cp := s.clusterJobs[job]
	delete(s.clusterJobs, job)
	s.clusterMu.Unlock()
	if cp != nil {
		cp.leave() // the open job's own reference
		s.logf("cluster job %s closed", shortKey(job))
	}
}

// shortKey abbreviates a job key for log lines; coordinator-chosen
// keys are usually content hashes but any string is legal.
func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

// handleClusterFrontier is the data plane: a raw binary frontier frame
// from a sibling peer, ingested into the pending set of the shard it
// addresses. Malformed frames are a 400 (the codec validates magic,
// version, word width, counts and bounds); frames for shards this peer
// does not host are a 409 — the sender is routing on a stale table and
// will fail its layer, which the coordinator retries.
func (s *Server) handleClusterFrontier(w http.ResponseWriter, r *http.Request) {
	job := r.URL.Query().Get("job")
	if job == "" {
		s.clusterError(w, http.StatusBadRequest, "missing job query parameter")
		return
	}
	cp := s.enterClusterJob(job)
	if cp == nil {
		s.clusterError(w, http.StatusNotFound, "no open cluster job %q on this peer", job)
		return
	}
	defer cp.leave()
	frame, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxClusterFrameBytes))
	if err != nil {
		s.clusterError(w, http.StatusBadRequest, "reading frame: %v", err)
		return
	}
	if err := cp.engine.Ingest(frame); err != nil {
		s.clusterError(w, http.StatusConflict, "ingest: %v", err)
		return
	}
	s.clusterFramesIn.Add(1)
	s.clusterFrameBytes.Add(int64(len(frame)))
	w.WriteHeader(http.StatusOK)
}

// clusterJobView is one open distributed job in the status report.
type clusterJobView struct {
	Job    string   `json:"job"`
	Self   int      `json:"self"`
	Peers  []string `json:"peers"`
	Hosted []int    `json:"hosted"`
	States int      `json:"states"`
}

// handleClusterStatus reports this peer's open distributed jobs, each
// with the peer list its coordinator opened it with.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	s.clusterMu.Lock()
	views := make([]clusterJobView, 0, len(s.clusterJobs))
	for _, cp := range s.clusterJobs {
		views = append(views, clusterJobView{
			Job: cp.job, Self: cp.self, Peers: cp.peers, Hosted: cp.engine.Hosted(), States: cp.engine.States(),
		})
	}
	s.clusterMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}
