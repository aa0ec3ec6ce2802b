package serve

import (
	"testing"

	"repro/internal/explore"
)

// closeCounter is a PeerEngine of which only Close may be called.
type closeCounter struct {
	explore.PeerEngine
	closes int
}

func (c *closeCounter) Close() { c.closes++ }

// TestClusterCloseWaitsForCalls: a close that arrives while a handler
// is inside the engine (a cancelled coordinator does not wait for its
// expand) closes the engine exactly once, when that handler leaves —
// never under it — and admits no call afterwards.
func TestClusterCloseWaitsForCalls(t *testing.T) {
	eng := &closeCounter{}
	cp := &clusterPeer{engine: eng}
	cp.refs.Store(1) // as handleClusterOpen leaves it
	if !cp.enter() {
		t.Fatal("open job refused a call")
	}
	cp.leave() // closeClusterJob dropping the job's own reference
	if eng.closes != 0 {
		t.Fatal("engine closed under an in-flight call")
	}
	cp.leave()
	if eng.closes != 1 {
		t.Fatalf("engine closed %d times after the last call left, want 1", eng.closes)
	}
	if cp.enter() {
		t.Fatal("closed engine admitted a call")
	}
}
