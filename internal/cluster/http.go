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
)

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
}

// HTTP is the coordinator-side Transport over real ccserve peers: the
// shared request builders plus a call that POSTs to /v1/cluster/rpc.
type HTTP struct {
	rpcTransport
	cfg    HTTPConfig
	client *http.Client
}

// DialHTTP opens the job on every peer (validating the spec and
// building an engine there) and returns the connected transport. The
// Transport methods take no context, so every later call but Close is
// bound to ctx: cancelling it interrupts an Expand that would
// otherwise block for its whole layer. A peer that fails to open fails
// the dial; already-opened peers are closed best-effort.
func DialHTTP(ctx context.Context, cfg HTTPConfig) (*HTTP, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peer URLs")
	}
	// Expansion RPCs block for a whole layer, hence the long timeout.
	h := &HTTP{cfg: cfg, client: &http.Client{Timeout: 10 * time.Minute}}
	h.call = func(p int, req RPCRequest) (RPCResponse, error) { return h.post(ctx, p, req) }
	for p := range cfg.Peers {
		_, err := h.call(p, RPCRequest{
			Op: "open", Spec: cfg.Spec, NShards: len(cfg.Peers), Self: p,
			Workers: cfg.Workers, Peers: cfg.Peers,
		})
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("cluster: open on peer %d (%s): %w", p, cfg.Peers[p], err)
		}
	}
	return h, nil
}

// post sends one control-plane call for this transport's job to peer p
// and decodes the 200 body.
func (h *HTTP) post(ctx context.Context, p int, req RPCRequest) (out RPCResponse, err error) {
	req.Job = h.cfg.Job
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.cfg.Peers[p]+"/v1/cluster/rpc", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(hreq)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return out, fmt.Errorf("peer %d: %s %s: %s", p, req.Op, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("peer %d: decode %s response: %w", p, req.Op, err)
	}
	return out, nil
}

// Peers implements Transport.
func (h *HTTP) Peers() int { return len(h.cfg.Peers) }

// Close implements Transport: best-effort close on every peer (dead
// peers are expected to refuse).
func (h *HTTP) Close() {
	for p := range h.cfg.Peers {
		h.post(context.Background(), p, RPCRequest{Op: "close"})
	}
}

// FrontierURL is where a peer posts an outgoing binary frame for the
// given job on the destination peer.
func FrontierURL(base, job string) string {
	return base + "/v1/cluster/frontier?job=" + url.QueryEscape(job)
}
