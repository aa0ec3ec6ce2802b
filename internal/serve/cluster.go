// The cluster tier: ccserve as one peer of a distributed exploration.
// A coordinator (cccheck -peers, i.e. campaign.ExecOptions.Peers) opens
// a job here with POST /v1/cluster/rpc {op:"open"}, after which this
// process hosts one shard of the partitioned visited set, expands its
// slice of every BFS layer on command, ships successors it does not
// own to the owning peers as binary frames (POST /v1/cluster/frontier
// on the destination), and persists its shard snapshot into the
// verdict store at every layer barrier so the coordinator can migrate
// the shard to a surviving peer (POST /v1/cluster/adopt) if this one
// dies. The control plane is cluster.RPCRequest/RPCResponse; the
// byte-identity contract is pinned by the cluster differential
// battery and the 3-peer CI smoke.

package serve

import (
	"bytes"
	"encoding/json"
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

	// refs counts the open job itself plus every handler inside the
	// engine; whoever drops the last one closes it. A cancelled
	// coordinator closes the job without waiting for its expand to
	// return, and an engine must not be closed under its own workers.
	refs atomic.Int32
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

func (cp *clusterPeer) leave() {
	if cp.refs.Add(-1) == 0 {
		cp.engine.Close()
	}
}

// frameClient posts frontier frames peer-to-peer; expansion RPCs can
// outlive it by design — a frame either lands quickly or the send
// fails and the coordinator retries the layer.
var frameClient = &http.Client{Timeout: 30 * time.Second}

// clusterError writes the error envelope and bumps the cluster error
// counter — one signal for the operator that a coordinator and this
// peer are disagreeing.
func (s *Server) clusterError(w http.ResponseWriter, code int, format string, args ...any) {
	s.mu.Lock()
	s.clusterErrors++
	s.mu.Unlock()
	writeError(w, code, format, args...)
}

// enterClusterJob returns the open job with one engine call admitted
// (the caller owes a leave), or nil.
func (s *Server) enterClusterJob(job string) *clusterPeer {
	s.mu.Lock()
	cp := s.clusterJobs[job]
	s.mu.Unlock()
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
	switch req.Op {
	case "open":
		s.handleClusterOpen(w, req)
		return
	case "seed", "expand", "finish", "pendmeta", "commit", "keys", "snapshot", "rollback", "route", "close":
	default:
		s.clusterError(w, http.StatusBadRequest, "unknown cluster op %q", req.Op)
		return
	}
	cp := s.enterClusterJob(req.Job)
	if cp == nil {
		s.clusterError(w, http.StatusNotFound, "no open cluster job %q on this peer", req.Job)
		return
	}
	defer cp.leave()
	var out cluster.RPCResponse
	var err error
	switch req.Op {
	case "seed":
		err = cp.engine.Seed()
	case "expand":
		out.Report, err = cp.engine.Expand(req.Depth, req.FirstGid, req.AtCap)
	case "finish":
		out.Cap = cp.engine.FinishLayer()
	case "pendmeta":
		out.Meta, err = cp.engine.PendMeta(req.Shard)
		if out.Meta == nil {
			out.Meta = []explore.PendMeta{}
		}
	case "commit":
		err = cp.engine.Commit(req.Shard, req.Keep, req.Gids, req.Housekeep)
	case "keys":
		out.Keys, err = cp.engine.Keys(req.Shard, req.Gids)
	case "snapshot":
		ck := s.cfg.Store.Checkpoint(cluster.SnapshotKey(req.Job, req.Shard))
		err = ck.Save(func(w io.Writer) error { return cp.engine.SnapshotShard(req.Shard, w) })
	case "rollback":
		err = cp.engine.Rollback()
	case "route":
		err = cp.engine.SetRoute(req.Route)
	case "close":
		s.closeClusterJob(req.Job)
	}
	if err != nil {
		s.clusterError(w, http.StatusInternalServerError, "cluster %s: %v", req.Op, err)
		return
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
	engine, err := campaign.NewPeerEngine(c, campaign.ExecOptions{
		Workers: workers, MemBudget: s.cfg.MemBudget, SpillDir: s.cfg.SpillDir, FS: s.cfg.FS,
	}, explore.PeerConfig{NShards: req.NShards, Hosted: []int{req.Self}, Self: req.Self})
	if err != nil {
		s.clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cp := &clusterPeer{job: req.Job, self: req.Self, peers: req.Peers, engine: engine}
	cp.refs.Store(1)
	engine.SetSender(func(dst int, frame []byte) error { return cp.sendFrame(dst, frame) })

	s.mu.Lock()
	old := s.clusterJobs[req.Job]
	s.clusterJobs[req.Job] = cp
	s.clusterOpens++
	s.mu.Unlock()
	if old != nil {
		// A re-open replaces a stale engine (coordinator retry after a
		// crash); the old one's shards are rebuilt from snapshots anyway.
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
	s.mu.Lock()
	cp := s.clusterJobs[job]
	delete(s.clusterJobs, job)
	s.mu.Unlock()
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
	s.mu.Lock()
	s.clusterFramesIn++
	s.clusterFrameBytes += int64(len(frame))
	s.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// handleClusterAdopt restores a shard from its snapshot in the shared
// store and hosts it here from the next layer on.
func (s *Server) handleClusterAdopt(w http.ResponseWriter, r *http.Request) {
	var req cluster.AdoptRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.clusterError(w, http.StatusBadRequest, "bad adopt request: %v", err)
		return
	}
	cp := s.enterClusterJob(req.Job)
	if cp == nil {
		s.clusterError(w, http.StatusNotFound, "no open cluster job %q on this peer", req.Job)
		return
	}
	defer cp.leave()
	ck := s.cfg.Store.Checkpoint(cluster.SnapshotKey(req.Job, req.Shard))
	rc, err := ck.Load()
	if err != nil {
		s.clusterError(w, http.StatusInternalServerError, "loading shard snapshot: %v", err)
		return
	}
	if rc == nil {
		s.clusterError(w, http.StatusNotFound, "no snapshot for job %q shard %d in the store", req.Job, req.Shard)
		return
	}
	defer rc.Close()
	if err := cp.engine.AdoptShard(req.Shard, rc); err != nil {
		s.clusterError(w, http.StatusInternalServerError, "adopting shard %d: %v", req.Shard, err)
		return
	}
	s.mu.Lock()
	s.clusterAdoptions++
	s.mu.Unlock()
	s.logf("cluster job %s: adopted shard %d", shortKey(req.Job), req.Shard)
	writeJSON(w, http.StatusOK, cluster.RPCResponse{})
}

// clusterJobView is one open distributed job in the status report.
type clusterJobView struct {
	Job    string `json:"job"`
	Self   int    `json:"self"`
	Hosted []int  `json:"hosted"`
	States int    `json:"states"`
}

// handleClusterStatus reports this peer's cluster configuration and
// its open distributed jobs.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	peers := s.cfg.Peers
	views := make([]clusterJobView, 0, len(s.clusterJobs))
	for _, cp := range s.clusterJobs {
		views = append(views, clusterJobView{
			Job: cp.job, Self: cp.self, Hosted: cp.engine.Hosted(), States: cp.engine.States(),
		})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"peers": peers, "jobs": views})
}
