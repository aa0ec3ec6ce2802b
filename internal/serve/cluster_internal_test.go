package serve

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/store"
)

// closeCounter is a PeerEngine hosting no shard, of which only Close
// may otherwise be called.
type closeCounter struct {
	explore.PeerEngine
	closes int
}

func (c *closeCounter) Hosted() []int { return nil }
func (c *closeCounter) Close()        { c.closes++ }

// TestClusterCloseWaitsForCalls: a close that arrives while a handler
// is inside the engine (a cancelled coordinator does not wait for its
// expand) closes the engine exactly once, when that handler leaves —
// never under it — and admits no call afterwards.
func TestClusterCloseWaitsForCalls(t *testing.T) {
	eng := &closeCounter{}
	cp := &clusterPeer{engine: eng, srv: &Server{}, stats: &explore.RunStats{}}
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

// TestClusterReopenKeepsNewSnapshots: a re-open retires the stale
// engine under the same job key; when that engine's last in-flight call
// leaves only later, the snapshots the new run has written by then
// survive it (a peer loss must still find them) and go with the new
// run's own close.
func TestClusterReopenKeepsNewSnapshots(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Jobs: 1, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rpc := func(body string) {
		t.Helper()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cluster/rpc", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", body, w.Code, w.Body)
		}
	}
	snapshots := func() int {
		t.Helper()
		got, err := filepath.Glob(filepath.Join(dir, "checkpoints", "*", "*-shard*"))
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}
	open := `{"op":"open","job":"k","spec":{"alg":"cc2","topo":"ring:3","daemon":"central","init":"legit"},"nshards":1,"self":0,"peers":["x"]}`

	rpc(open)
	stale := s.enterClusterJob("k") // a long expand still inside the first engine
	rpc(open)
	rpc(`{"op":"snapshot","job":"k","shard":0}`)
	if snapshots() != 1 {
		t.Fatalf("the new run wrote %d snapshots, want 1", snapshots())
	}
	stale.leave()
	if snapshots() != 1 {
		t.Fatal("the replaced engine's last call deleted the new run's snapshot")
	}
	rpc(`{"op":"close","job":"k"}`)
	if snapshots() != 0 {
		t.Fatalf("%d snapshots left after close", snapshots())
	}
}
