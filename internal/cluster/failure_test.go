package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

var errInjected = errors.New("injected failure")

// failingEngine is a peer engine with one scripted failure: its Expand
// of layer expandAt fails, or, with failSend, the first frame it sends
// does.
type failingEngine struct {
	explore.PeerEngine
	expandAt int
	failSend bool

	depth  int          // the layer of the Expand in flight
	sendAt atomic.Int64 // the layer of the failed send, −1 before it
}

func (f *failingEngine) Expand(depth int, firstGid int32, atCap bool) (*explore.LayerReport, error) {
	f.depth = depth
	if depth == f.expandAt {
		return nil, errInjected
	}
	return f.PeerEngine.Expand(depth, firstGid, atCap)
}

func (f *failingEngine) SetSender(send func(dst int, frame []byte) error) {
	f.PeerEngine.SetSender(func(dst int, frame []byte) error {
		if f.failSend && f.sendAt.CompareAndSwap(-1, int64(f.depth)) {
			return errInjected
		}
		return send(dst, frame)
	})
}

// TestClusterPeerFailureIsLoud: a peer whose Expand fails, or whose one
// frame send fails, fails cluster.Run with an error naming the peer and
// the layer, and no Result — never a retried layer or a verdict.
func TestClusterPeerFailureIsLoud(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), explore.CCOptions{Init: explore.InitCC})
	opts := explore.Options{
		Mode: sim.SelectCentral, MaxStates: 4_000, Workers: 2,
		CheckDeadlock: true, CheckClosure: true,
	}
	for _, tc := range []struct {
		name     string
		expandAt int
		failSend bool
	}{
		{"expand fails at layer 2", 2, false},
		{"a send fails once", -1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const failing = 1
			engines := make([]explore.PeerEngine, 3)
			var f *failingEngine
			for p := range engines {
				e, err := explore.NewPeer(factory, opts, explore.PeerConfig{NShards: 3, Hosted: []int{p}, Self: p, FlushRecords: 16})
				if err != nil {
					t.Fatal(err)
				}
				if p == failing {
					f = &failingEngine{PeerEngine: e, expandAt: tc.expandAt, failSend: tc.failSend}
					f.sendAt.Store(-1)
					e = f
				}
				engines[p] = e
			}
			tr := cluster.NewLocal(cluster.LocalConfig{Engines: engines, Snapshots: cluster.NewMemSnapshots()})
			defer tr.Close()
			res, err := cluster.Run(context.Background(), factory, opts, tr)
			if err == nil {
				t.Fatalf("peer %d failed and the run returned a verdict: %s", failing, res.Summary())
			}
			if res != nil {
				t.Fatalf("the failed run returned a Result: %s", res.Summary())
			}
			layer := tc.expandAt
			if tc.failSend {
				layer = int(f.sendAt.Load())
				if layer < 0 {
					t.Fatal("the peer sent no frame: the test injected nothing")
				}
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("error %q does not wrap the injected failure", err)
			}
			for _, want := range []string{fmt.Sprintf("peer %d ", failing), fmt.Sprintf("layer %d ", layer)} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, strings.TrimSpace(want))
				}
			}
		})
	}
}
