package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hypergraph"
)

// TestHTTPCancelInterruptsRun: cancelling the coordinator's context
// while a peer is mid-call ends cluster.Run promptly with
// ErrInterrupted — every RPC is bound to the dial context — whether
// the call is a layer-long expand or a serial barrier step, and the
// cancelled peer is not mistaken for a lost one: no rollback, no
// adoption.
func TestHTTPCancelInterruptsRun(t *testing.T) {
	for _, blockOn := range []string{"expand", "commit"} {
		t.Run(blockOn, func(t *testing.T) {
			var mu sync.Mutex
			var ops []string
			blocked := make(chan struct{})
			release := make(chan struct{})
			// A scripted peer: one pending init so the layer loop starts,
			// and one op that blocks until the test lets go.
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req cluster.RPCRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				mu.Lock()
				ops = append(ops, req.Op)
				mu.Unlock()
				if req.Op == blockOn {
					close(blocked)
					<-release
				}
				resp := cluster.RPCResponse{Report: &explore.LayerReport{}}
				if req.Op == "pendmeta" {
					resp.Meta = []explore.PendMeta{{Pos: 0, Parent: -1}}
				}
				json.NewEncoder(w).Encode(resp)
			}))
			defer peer.Close()
			defer close(release) // before peer.Close, which waits for the handler

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tr, err := cluster.DialHTTP(ctx, cluster.HTTPConfig{Peers: []string{peer.URL}, Job: "job"})
			if err != nil {
				t.Fatal(err)
			}
			factory := mustCC(t, core.CC1, hypergraph.CommitteeRing(3), explore.CCOptions{})
			done := make(chan error, 1)
			go func() {
				_, err := cluster.Run(ctx, factory, explore.Options{}, tr)
				done <- err
			}()

			<-blocked
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, explore.ErrInterrupted) {
					t.Fatalf("Run returned %v, want an error wrapping ErrInterrupted", err)
				}
			case <-time.After(time.Second):
				t.Fatalf("Run still blocked in %s a second after its context was cancelled", blockOn)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, op := range ops {
				if op == "adopt" || op == "rollback" {
					t.Fatalf("cancelled peer was treated as lost: RPCs %v", ops)
				}
			}
		})
	}
}
