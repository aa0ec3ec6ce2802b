package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/explore"
)

// RPCRequest is the control-plane wire envelope for the cluster tier:
// one op-discriminated JSON shape shared by the coordinator (this
// package's HTTP transport) and the peer side (internal/serve). The
// data plane — frontier frames — stays binary and travels separately
// (POST /v1/cluster/frontier).
type RPCRequest struct {
	// Op selects the call: open, seed, expand, finish, pendmeta,
	// commit, keys, snapshot, rollback, route, close.
	Op string `json:"op"`
	// Job scopes every call: the content key of the job spec.
	Job string `json:"job"`

	// open
	Spec    json.RawMessage `json:"spec,omitempty"`
	NShards int             `json:"nshards,omitempty"`
	Self    int             `json:"self"`
	Workers int             `json:"workers,omitempty"`
	Peers   []string        `json:"peers,omitempty"`

	// expand
	Depth    int   `json:"depth,omitempty"`
	FirstGid int32 `json:"first_gid,omitempty"`
	AtCap    bool  `json:"at_cap,omitempty"`

	// pendmeta / commit / keys / snapshot
	Shard     int     `json:"shard"`
	Keep      int     `json:"keep,omitempty"`
	Gids      []int32 `json:"gids,omitempty"`
	Housekeep bool    `json:"housekeep,omitempty"`

	// route
	Route []int `json:"route,omitempty"`
}

// RPCResponse carries whichever payload the op produces; HTTP-level
// failures and peer-side errors both surface as non-200 statuses with
// the server's usual error envelope.
type RPCResponse struct {
	Report *explore.LayerReport `json:"report,omitempty"`
	Cap    bool                 `json:"cap,omitempty"`
	Meta   []explore.PendMeta   `json:"meta,omitempty"`
	Keys   [][]uint64           `json:"keys,omitempty"`
}

// AdoptRequest is the body of POST /v1/cluster/adopt: the peer loads
// the shard's snapshot from its own store (all peers share one cache
// directory) and installs it.
type AdoptRequest struct {
	Job   string `json:"job"`
	Shard int    `json:"shard"`
}

// SnapshotKey is the store key under which a peer persists the shard
// snapshot for a job — derived from the job's content key, so
// concurrent cluster jobs never collide and a finished job's snapshot
// is identifiable for GC.
func SnapshotKey(job string, shard int) string {
	return fmt.Sprintf("%s-shard%d", job, shard)
}

// HTTPConfig parameterizes DialHTTP.
type HTTPConfig struct {
	// Peers are the ccserve base URLs, one per peer, index = peer id =
	// initial shard id.
	Peers []string
	// Job is the job's content key, scoping engines, frames and
	// snapshots on the peers.
	Job string
	// Spec is the canonical job spec, forwarded verbatim for each peer
	// to validate and build its engine from.
	Spec json.RawMessage
	// Workers is the per-peer explorer pool width (0 = the peer's own
	// default).
	Workers int
	// Client overrides the HTTP client (nil = a default with a 10
	// minute timeout — expansion RPCs block for a whole layer).
	Client *http.Client
}

// HTTP is the coordinator-side Transport over real ccserve peers.
type HTTP struct {
	cfg    HTTPConfig
	client *http.Client
	// ctx is the dial context. The Transport methods take none, so it
	// rides here and bounds every call but Close: cancelling it
	// interrupts an Expand that would otherwise block for its whole
	// layer.
	ctx context.Context
}

// DialHTTP opens the job on every peer (validating the spec and
// building an engine there) and returns the connected transport, whose
// later calls stay bound to ctx. A peer that fails to open fails the
// dial; already-opened peers are closed best-effort.
func DialHTTP(ctx context.Context, cfg HTTPConfig) (*HTTP, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peer URLs")
	}
	h := &HTTP{cfg: cfg, client: cfg.Client, ctx: ctx}
	if h.client == nil {
		h.client = &http.Client{Timeout: 10 * time.Minute}
	}
	for p := range cfg.Peers {
		req := RPCRequest{
			Op: "open", Job: cfg.Job, Spec: cfg.Spec,
			NShards: len(cfg.Peers), Self: p, Workers: cfg.Workers,
			Peers: cfg.Peers,
		}
		if _, err := h.rpc(ctx, p, req); err != nil {
			h.Close()
			return nil, fmt.Errorf("cluster: open on peer %d (%s): %w", p, cfg.Peers[p], err)
		}
	}
	return h, nil
}

func (h *HTTP) rpc(ctx context.Context, p int, req RPCRequest) (*RPCResponse, error) {
	var out RPCResponse
	if err := h.post(ctx, p, "/v1/cluster/rpc", req.Op, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// post sends one JSON control-plane call to peer p and decodes the 200
// body into out (nil = no payload expected).
func (h *HTTP) post(ctx context.Context, p int, path, op string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.cfg.Peers[p]+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("peer %d: %s %s: %s", p, op, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("peer %d: decode %s response: %w", p, op, err)
	}
	return nil
}

// Peers implements Transport.
func (h *HTTP) Peers() int { return len(h.cfg.Peers) }

// Seed implements Transport.
func (h *HTTP) Seed(p int) error {
	_, err := h.rpc(h.ctx, p, RPCRequest{Op: "seed", Job: h.cfg.Job})
	return err
}

// Expand implements Transport.
func (h *HTTP) Expand(p int, depth int, firstGid int32, atCap bool) (*explore.LayerReport, error) {
	out, err := h.rpc(h.ctx, p, RPCRequest{
		Op: "expand", Job: h.cfg.Job, Depth: depth, FirstGid: firstGid, AtCap: atCap,
	})
	if err != nil {
		return nil, err
	}
	if out.Report == nil {
		return nil, fmt.Errorf("peer %d: expand returned no report", p)
	}
	return out.Report, nil
}

// FinishLayer implements Transport.
func (h *HTTP) FinishLayer(p int) (bool, error) {
	out, err := h.rpc(h.ctx, p, RPCRequest{Op: "finish", Job: h.cfg.Job})
	if err != nil {
		return false, err
	}
	return out.Cap, nil
}

// PendMeta implements Transport.
func (h *HTTP) PendMeta(p, shard int) ([]explore.PendMeta, error) {
	out, err := h.rpc(h.ctx, p, RPCRequest{Op: "pendmeta", Job: h.cfg.Job, Shard: shard})
	if err != nil {
		return nil, err
	}
	return out.Meta, nil
}

// Commit implements Transport.
func (h *HTTP) Commit(p, shard, keep int, gids []int32, housekeep bool) error {
	_, err := h.rpc(h.ctx, p, RPCRequest{
		Op: "commit", Job: h.cfg.Job, Shard: shard, Keep: keep, Gids: gids, Housekeep: housekeep,
	})
	return err
}

// Keys implements Transport.
func (h *HTTP) Keys(p, shard int, gids []int32) ([][]uint64, error) {
	out, err := h.rpc(h.ctx, p, RPCRequest{Op: "keys", Job: h.cfg.Job, Shard: shard, Gids: gids})
	if err != nil {
		return nil, err
	}
	return out.Keys, nil
}

// Snapshot implements Transport: the peer persists the shard into its
// own (shared) store under SnapshotKey.
func (h *HTTP) Snapshot(p, shard int) error {
	_, err := h.rpc(h.ctx, p, RPCRequest{Op: "snapshot", Job: h.cfg.Job, Shard: shard})
	return err
}

// Adopt implements Transport: the peer restores the shard from the
// shared store.
func (h *HTTP) Adopt(p, shard int) error {
	return h.post(h.ctx, p, "/v1/cluster/adopt", "adopt", AdoptRequest{Job: h.cfg.Job, Shard: shard}, nil)
}

// Rollback implements Transport.
func (h *HTTP) Rollback(p int) error {
	_, err := h.rpc(h.ctx, p, RPCRequest{Op: "rollback", Job: h.cfg.Job})
	return err
}

// SetRoute implements Transport.
func (h *HTTP) SetRoute(p int, route []int) error {
	_, err := h.rpc(h.ctx, p, RPCRequest{Op: "route", Job: h.cfg.Job, Route: route})
	return err
}

// Close implements Transport: best-effort close on every peer (dead
// peers are expected to refuse).
func (h *HTTP) Close() {
	for p := range h.cfg.Peers {
		h.rpc(context.Background(), p, RPCRequest{Op: "close", Job: h.cfg.Job})
	}
}

// FrontierURL is where a peer posts an outgoing binary frame for the
// given job on the destination peer.
func FrontierURL(base, job string) string {
	return base + "/v1/cluster/frontier?job=" + url.QueryEscape(job)
}
