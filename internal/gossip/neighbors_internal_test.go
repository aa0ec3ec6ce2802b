package gossip

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/store"
)

// TestGossipTrustsOnlyNeighbors: an announce names the URL the fetcher
// will GET, so one from outside the configured neighbors is refused
// before anything is queued; entries are served to anyone, but only a
// neighbor's fetches get a ledger, so strangers cannot grow the map.
func TestGossipTrustsOnlyNeighbors(t *testing.T) {
	st, err := store.OpenEngine(store.EngineDir, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	spec := store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit"}
	if _, err := st.Put(spec, &explore.Result{Model: "fake", Inits: 1, States: 5, MaxIncorrectDepth: -1}); err != nil {
		t.Fatal(err)
	}
	key := spec.Canonical().Key()
	neighbor := "http://127.0.0.1:2"
	n := New(Config{Self: "http://127.0.0.1:3", Neighbors: []string{neighbor}, Store: st, Interval: -1})
	// Stopping the fetcher first leaves whatever an announce queues in
	// the want-list, where the test can see it.
	n.Close()

	serve := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	stranger := "http://127.0.0.1:1"
	frame := fmt.Sprintf("id: 1\nevent: announce\ndata: {\"from\":%q,\"seq\":1,\"keys\":[%q]}\n\n", stranger, strings.Repeat("cd", 32))
	rec := serve(http.MethodPost, "/v1/gossip/announce", frame)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), stranger) {
		t.Fatalf("announce from a stranger: %d %s, want 400 naming %s", rec.Code, rec.Body, stranger)
	}
	if d := n.StatusView().WantDepth; d != 0 {
		t.Fatalf("a stranger's announce queued %d want(s)", d)
	}

	for i := 0; i < 100; i++ {
		rec := serve(http.MethodGet, fmt.Sprintf("/v1/gossip/entry/%s?from=http://10.0.0.%d:8080", key, i), "")
		if rec.Code != http.StatusOK {
			t.Fatalf("entry GET %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if rec := serve(http.MethodGet, "/v1/gossip/entry/"+key+"?from="+neighbor, ""); rec.Code != http.StatusOK {
		t.Fatalf("neighbor entry GET: %d %s", rec.Code, rec.Body)
	}
	if len(n.ledgers) != 1 || n.ledgers[neighbor] == nil {
		t.Fatalf("ledgers for %d peers after 100 strangers, want only %s", len(n.ledgers), neighbor)
	}
	if lv := n.StatusView().Neighbors; len(lv) != 1 || lv[0].ServedTo != 1 {
		t.Fatalf("neighbor ledger %+v, want one served entry", lv)
	}
}
