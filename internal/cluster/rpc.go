package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/explore"
)

// The control protocol, written once per side. The request half is
// rpcTransport: every per-peer Transport method builds one RPCRequest
// and hands it to a call function — HTTP's POSTs it, Local's runs the
// dispatch in-process. The dispatch half is Serve: the only switch from
// an op name to the explore.PeerEngine call it stands for. A new op is
// one builder and one case. open and close are in neither: they create
// and retire the engine every other op addresses, so they belong to
// whoever keeps the job table (DialHTTP and HTTP.Close on this side,
// internal/serve on the peer side).

// RPCRequest is the control-plane envelope: one op-discriminated shape
// shared by the coordinator and the peer side. The data plane —
// frontier frames — stays binary and travels separately (POST
// /v1/cluster/frontier): frames go peer to peer, not coordinator to
// peer, and are too many and too large for a JSON envelope.
type RPCRequest struct {
	// Op selects the call: open, close, or a case of Serve.
	Op string `json:"op"`
	// Job scopes every call on the wire: the content key of the job
	// spec. The HTTP call function stamps it; Local has one job.
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

	// pendmeta / commit / keys / snapshot / adopt
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

// rpcTransport is the request half: Local and HTTP embed it and supply
// call, which delivers one request to peer p and returns its response.
type rpcTransport struct {
	call func(p int, req RPCRequest) (RPCResponse, error)
}

func (t rpcTransport) do(p int, req RPCRequest) error {
	_, err := t.call(p, req)
	return err
}

func (t rpcTransport) Seed(p int) error { return t.do(p, RPCRequest{Op: "seed"}) }

func (t rpcTransport) Expand(p int, depth int, firstGid int32, atCap bool) (*explore.LayerReport, error) {
	out, err := t.call(p, RPCRequest{Op: "expand", Depth: depth, FirstGid: firstGid, AtCap: atCap})
	if err == nil && out.Report == nil {
		err = fmt.Errorf("peer %d: expand returned no report", p)
	}
	return out.Report, err
}

func (t rpcTransport) FinishLayer(p int) (bool, error) {
	out, err := t.call(p, RPCRequest{Op: "finish"})
	return out.Cap, err
}

func (t rpcTransport) PendMeta(p, shard int) ([]explore.PendMeta, error) {
	out, err := t.call(p, RPCRequest{Op: "pendmeta", Shard: shard})
	return out.Meta, err
}

func (t rpcTransport) Commit(p, shard, keep int, gids []int32, housekeep bool) error {
	return t.do(p, RPCRequest{Op: "commit", Shard: shard, Keep: keep, Gids: gids, Housekeep: housekeep})
}

func (t rpcTransport) Keys(p, shard int, gids []int32) ([][]uint64, error) {
	out, err := t.call(p, RPCRequest{Op: "keys", Shard: shard, Gids: gids})
	return out.Keys, err
}

func (t rpcTransport) Snapshot(p, shard int) error {
	return t.do(p, RPCRequest{Op: "snapshot", Shard: shard})
}

func (t rpcTransport) Adopt(p, shard int) error {
	return t.do(p, RPCRequest{Op: "adopt", Shard: shard})
}

func (t rpcTransport) Rollback(p int) error { return t.do(p, RPCRequest{Op: "rollback"}) }

func (t rpcTransport) SetRoute(p int, route []int) error {
	return t.do(p, RPCRequest{Op: "route", Route: route})
}

// ErrUnknownOp is Serve's error for an op name outside its switch —
// also what an older peer answers a newer coordinator's op: a loud
// failure of the job, never a wrong verdict.
var ErrUnknownOp = errors.New("unknown cluster op")

// Serve is the dispatch half: it executes one control op against a
// peer's engine — what a ccserve peer does with a decoded request once
// it has found the job's engine, and what Local does with the request
// itself. snapshot persists a hosted shard to the shared store at a
// layer barrier and adopt rebuilds a lost peer's shard from there; a
// nil store disables snapshots, and with them recovery.
func Serve(e explore.PeerEngine, snaps SnapshotStore, req RPCRequest) (out RPCResponse, err error) {
	switch req.Op {
	case "seed":
		err = e.Seed()
	case "expand":
		out.Report, err = e.Expand(req.Depth, req.FirstGid, req.AtCap)
	case "finish":
		out.Cap = e.FinishLayer()
	case "pendmeta":
		out.Meta, err = e.PendMeta(req.Shard)
	case "commit":
		err = e.Commit(req.Shard, req.Keep, req.Gids, req.Housekeep)
	case "keys":
		out.Keys, err = e.Keys(req.Shard, req.Gids)
	case "snapshot":
		if snaps != nil {
			err = snaps.Save(req.Shard, func(w io.Writer) error { return e.SnapshotShard(req.Shard, w) })
		}
	case "adopt":
		if snaps == nil {
			return out, fmt.Errorf("cluster: no snapshot store configured, cannot adopt shard %d", req.Shard)
		}
		var r io.ReadCloser
		if r, err = snaps.Load(req.Shard); err == nil {
			err = e.AdoptShard(req.Shard, r)
			r.Close()
		}
	case "rollback":
		err = e.Rollback()
	case "route":
		err = e.SetRoute(req.Route)
	default:
		err = fmt.Errorf("%w %q", ErrUnknownOp, req.Op)
	}
	return out, err
}
