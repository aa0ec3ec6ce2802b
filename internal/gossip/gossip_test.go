package gossip_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/gossip"
	"repro/internal/store"
)

// peer is one gossip node behind a real HTTP listener, with fault
// injection taps the chaos battery flips: down refuses every request
// (a dead process), frameBudget arms a bounded death (serve N more
// requests, then go dark), corruptEntries flips a byte
// in every /entry transfer (a peer with a damaged disk or a hostile
// middlebox).
type peer struct {
	st   store.Interface
	node *gossip.Node
	srv  *httptest.Server
	url  string

	// wired publishes node to the server goroutines (the fleet is
	// built listeners-first, so the handler learns its node late).
	wired atomic.Pointer[gossip.Node]

	down           atomic.Bool
	armed          atomic.Bool
	frameBudget    atomic.Int64
	corruptEntries atomic.Bool
}

func (p *peer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	node := p.wired.Load()
	if node == nil {
		http.Error(w, "peer not wired yet", http.StatusServiceUnavailable)
		return
	}
	if p.down.Load() {
		http.Error(w, "peer dead", http.StatusServiceUnavailable)
		return
	}
	if p.armed.Load() {
		if p.frameBudget.Add(-1) < 0 {
			p.down.Store(true)
			http.Error(w, "peer dead", http.StatusServiceUnavailable)
			return
		}
	}
	if p.corruptEntries.Load() && strings.HasPrefix(r.URL.Path, "/v1/gossip/entry/") {
		rec := httptest.NewRecorder()
		node.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && len(body) > 16 {
			body[len(body)/2] ^= 0x41
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
		return
	}
	node.ServeHTTP(w, r)
}

// kill arms a death against the peer: framesBeforeDeath more gossip
// requests are served, then every call fails until revive.
func (p *peer) kill(framesBeforeDeath int) {
	p.frameBudget.Store(int64(framesBeforeDeath))
	p.armed.Store(true)
}

func (p *peer) revive() {
	p.armed.Store(false)
	p.down.Store(false)
}

// newFleet wires n peers over real listeners. topo[i] lists i's
// neighbor indices; nil means full mesh.
func newFleet(t *testing.T, n int, topo [][]int) []*peer {
	t.Helper()
	peers := make([]*peer, n)
	for i := range peers {
		p := &peer{}
		p.srv = httptest.NewServer(p)
		p.url = p.srv.URL
		t.Cleanup(p.srv.Close)
		peers[i] = p
	}
	for i, p := range peers {
		var neighbors []string
		if topo == nil {
			for j, q := range peers {
				if j != i {
					neighbors = append(neighbors, q.url)
				}
			}
		} else {
			for _, j := range topo[i] {
				neighbors = append(neighbors, peers[j].url)
			}
		}
		st, err := store.OpenEngine(store.EngineDir, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		p.st = st
		p.node = gossip.New(gossip.Config{
			Self: p.url, Neighbors: neighbors, Store: st,
			Interval: -1, // tests drive Sync explicitly
			Log:      t.Logf,
		})
		p.wired.Store(p.node)
		t.Cleanup(p.node.Close)
	}
	return peers
}

// fakeResult fabricates a deterministic verdict (same shape the store
// battery uses) so gossip tests do not pay for explorations.
func fakeResult(states int) *explore.Result {
	return &explore.Result{
		Model: "fake", Inits: 1, States: states,
		Transitions: int64(states) * 3, Depth: 2, MaxIncorrectDepth: -1,
	}
}

func seedSpec(i int) store.JobSpec {
	return store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "random", RandomInits: 4, Seed: int64(i + 1)}
}

// commit writes a verdict into the peer's store and tells its node.
func commit(t *testing.T, p *peer, spec store.JobSpec) string {
	t.Helper()
	if _, err := p.st.Put(spec, fakeResult(10+int(spec.Seed))); err != nil {
		t.Fatal(err)
	}
	p.node.Committed(spec.Key())
	return spec.Key()
}

// converge drives Sync rounds on every peer until all stores hold
// wantLen entries (the fetch side is asynchronous, so this polls).
func converge(t *testing.T, peers []*peer, wantLen int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		for _, p := range peers {
			p.node.Sync()
		}
		done := true
		for _, p := range peers {
			if p.st.Len() != wantLen {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, p := range peers {
		t.Logf("peer %d: len=%d status=%+v", i, p.st.Len(), p.node.StatusView())
	}
	t.Fatalf("fleet did not converge to %d entries", wantLen)
}

// identical asserts every peer serves byte-identical result bytes for
// the spec — the gossip-plane version of the store's byte-identity
// contract.
func identical(t *testing.T, peers []*peer, spec store.JobSpec) {
	t.Helper()
	var ref []byte
	for i, p := range peers {
		_, raw, ok := p.st.Get(spec)
		if !ok {
			t.Fatalf("peer %d misses %s", i, spec.Key()[:12])
		}
		if i == 0 {
			ref = raw
			continue
		}
		if !bytes.Equal(ref, raw) {
			t.Fatalf("peer %d serves different bytes for %s", i, spec.Key()[:12])
		}
	}
}

// TestGossipPropagates: a verdict committed on one peer becomes a
// byte-identical store hit on every peer of a full mesh, both for
// entries present before the node started (log seeding) and for live
// commits.
func TestGossipPropagates(t *testing.T) {
	peers := newFleet(t, 3, nil)
	// Live commits on peer 0.
	specs := []store.JobSpec{seedSpec(0), seedSpec(1), seedSpec(2)}
	for _, s := range specs {
		commit(t, peers[0], s)
	}
	// And one on peer 2, so propagation is not one-directional.
	specs = append(specs, seedSpec(3))
	commit(t, peers[2], specs[3])

	converge(t, peers, len(specs))
	for _, s := range specs {
		identical(t, peers, s)
	}
	if got := peers[1].node.Ingested(); got != int64(len(specs)) {
		t.Fatalf("peer 1 ingested %d, want %d", got, len(specs))
	}
	for _, p := range peers {
		if p.st.Quarantined() != 0 {
			t.Fatal("clean propagation quarantined something")
		}
	}
}

// TestGossipSeedsFromStore: a node started over a populated store
// has its existing entries in the commit log, announceable from the
// first round.
func TestGossipSeedsFromStore(t *testing.T) {
	st, err := store.OpenEngine(store.EngineDir, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 4; i++ {
		if _, err := st.Put(seedSpec(i), fakeResult(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	n := gossip.New(gossip.Config{Self: "http://seeded", Store: st, Interval: -1})
	defer n.Close()
	if n.Seq() != 4 {
		t.Fatalf("seeded node Seq %d, want 4", n.Seq())
	}
}

// TestGossipTransitive: on a line topology A—B—C, a verdict committed
// on A reaches C through B's re-announce.
func TestGossipTransitive(t *testing.T) {
	peers := newFleet(t, 3, [][]int{{1}, {0, 2}, {1}})
	spec := seedSpec(7)
	commit(t, peers[0], spec)
	converge(t, peers, 1)
	identical(t, peers, spec)
}

// TestGossipCorruptIngestQuarantines is the corrupt-transfer half of
// the chaos battery: every /entry byte-flip must be quarantined as a
// specimen and never committed — an unverified verdict is never
// served — and once the fault heals the fleet converges anyway.
func TestGossipCorruptIngestQuarantines(t *testing.T) {
	peers := newFleet(t, 2, nil)
	spec := seedSpec(9)
	key := commit(t, peers[0], spec)

	peers[0].corruptEntries.Store(true)
	// Drive rounds until the corrupt transfer has been seen and
	// quarantined at least once.
	deadline := time.Now().Add(10 * time.Second)
	for peers[1].node.Corrupt() == 0 && time.Now().Before(deadline) {
		peers[1].node.Sync()
		peers[0].node.Sync()
		time.Sleep(5 * time.Millisecond)
	}
	if peers[1].node.Corrupt() == 0 {
		t.Fatal("corrupt transfer never detected")
	}
	if peers[1].st.Quarantined() == 0 {
		t.Fatal("corrupt transfer not preserved in quarantine")
	}
	// The store never served the damaged verdict.
	if _, _, _, ok := peers[1].st.GetByKey(key); ok {
		t.Fatal("unverified verdict is being served")
	}
	if peers[1].st.Len() != 0 {
		t.Fatal("corrupt transfer reached the live store")
	}

	// Heal the wire: the retry path must converge to byte identity.
	peers[0].corruptEntries.Store(false)
	converge(t, peers, 1)
	identical(t, peers, spec)
	if peers[1].st.Quarantined() == 0 {
		t.Fatal("quarantined specimen vanished after convergence")
	}
}

// TestGossipPeerLossConverges is the peer-death half of the chaos
// battery: peer 1 dies after a bounded number (3) of served gossip
// frames, the survivors keep exchanging verdicts, and once the peer
// returns the whole fleet converges byte-identically with nothing
// quarantined.
func TestGossipPeerLossConverges(t *testing.T) {
	const dead = 1

	peers := newFleet(t, 3, nil)
	var specs []store.JobSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, seedSpec(i))
		commit(t, peers[0], specs[i])
	}
	peers[dead].kill(3)

	// The survivors converge with each other regardless of the death.
	survivors := []*peer{peers[0], peers[2]}
	converge(t, survivors, len(specs))

	// More verdicts land while the peer is dark.
	for i := 3; i < 6; i++ {
		specs = append(specs, seedSpec(i))
		commit(t, peers[2], specs[i])
	}
	converge(t, survivors, len(specs))
	if peers[dead].st.Len() == int(len(specs)) {
		t.Fatal("dead peer somehow fully converged")
	}
	// Its neighbors recorded the failures.
	var failures int64
	for _, p := range survivors {
		for _, lv := range p.node.StatusView().Neighbors {
			if lv.Neighbor == peers[dead].url {
				failures += lv.Failures
			}
		}
	}
	if failures == 0 {
		t.Fatal("no neighbor recorded a failure against the dead peer")
	}

	// Resurrection: the fleet converges, byte-identically, clean.
	peers[dead].revive()
	converge(t, peers, len(specs))
	for _, s := range specs {
		identical(t, peers, s)
	}
	for _, p := range peers {
		if p.st.Quarantined() != 0 {
			t.Fatal("peer loss caused a quarantine")
		}
	}
}

// TestGossipWireRejects: the HTTP surface refuses malformed input in
// the serving tier's envelope shape.
func TestGossipWireRejects(t *testing.T) {
	peers := newFleet(t, 1, [][]int{{}})
	p := peers[0]
	for name, tc := range map[string]struct {
		method, path, body string
		want               int
	}{
		"bad announce frame": {"POST", "/v1/gossip/announce", "not sse", http.StatusBadRequest},
		"announce bad key": {"POST", "/v1/gossip/announce",
			"id: 1\nevent: announce\ndata: {\"from\":\"http://x\",\"seq\":1,\"keys\":[\"zz\"]}\n\n", http.StatusBadRequest},
		"announce no from": {"POST", "/v1/gossip/announce",
			"id: 1\nevent: announce\ndata: {\"seq\":1,\"keys\":[]}\n\n", http.StatusBadRequest},
		"bad log cursor":   {"GET", "/v1/gossip/log?after=banana", "", http.StatusBadRequest},
		"malformed key":    {"GET", "/v1/gossip/entry/nope", "", http.StatusBadRequest},
		"missing entry":    {"GET", "/v1/gossip/entry/" + strings.Repeat("ab", 32), "", http.StatusNotFound},
		"unknown route":    {"GET", "/v1/gossip/wat", "", http.StatusNotFound},
		"announce via GET": {"GET", "/v1/gossip/announce", "", http.StatusNotFound},
	} {
		t.Run(name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, p.url+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("got %d, want %d", resp.StatusCode, tc.want)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error Content-Type %q, want application/json", ct)
			}
		})
	}
}

// TestGossipStatus: the status endpoint reports ledgers for every
// neighbor with sane accounting after a propagation.
func TestGossipStatus(t *testing.T) {
	peers := newFleet(t, 2, nil)
	spec := seedSpec(11)
	commit(t, peers[0], spec)
	converge(t, peers, 1)

	resp, err := http.Get(peers[0].url + "/v1/gossip/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status answered %d", resp.StatusCode)
	}
	st := peers[0].node.StatusView()
	if st.Seq != 1 || len(st.Neighbors) != 1 {
		t.Fatalf("status %+v", st)
	}
	lv := st.Neighbors[0]
	if lv.AnnouncedTo != 1 || lv.ServedTo != 1 || lv.BytesOut == 0 {
		t.Fatalf("ledger after propagation: %+v", lv)
	}
	recv := peers[1].node.StatusView().Neighbors
	var got gossip.LedgerView
	for _, l := range recv {
		if l.Neighbor == peers[0].url {
			got = l
		}
	}
	if got.ReceivedFrom != 1 || got.BytesIn == 0 {
		t.Fatalf("receiver ledger: %+v", got)
	}
}

// TestGossipDedup: re-announcing keys a peer already holds moves no
// bytes — the want-list filter is what keeps a fleet's repeat
// submissions cheap.
func TestGossipDedup(t *testing.T) {
	peers := newFleet(t, 2, nil)
	spec := seedSpec(13)
	key := commit(t, peers[0], spec)
	converge(t, peers, 1)

	before := peers[1].node.StatusView().Neighbors[0].BytesIn
	// A duplicate Committed is dropped locally; a re-announce of the
	// same key is filtered by the receiver's have-set.
	peers[0].node.Committed(key)
	if peers[0].node.Seq() != 1 {
		t.Fatal("duplicate commit extended the log")
	}
	for i := 0; i < 5; i++ {
		for _, p := range peers {
			p.node.Sync()
		}
	}
	time.Sleep(50 * time.Millisecond)
	if after := peers[1].node.StatusView().Neighbors[0].BytesIn; after != before {
		t.Fatalf("dedup failed: %d bytes moved for an already-held key", after-before)
	}
}

// TestGossipLogPaging: the pull path pages through a log larger than
// one batch.
func TestGossipLogPaging(t *testing.T) {
	if testing.Short() {
		t.Skip("seeds >512 store entries")
	}
	peers := newFleet(t, 2, [][]int{{}, {0}}) // only B pulls from A; A announces to nobody
	const n = 600                             // > maxBatchKeys
	for i := 0; i < n; i++ {
		commit(t, peers[0], seedSpec(i))
	}
	converge(t, peers, n)
	var lv gossip.LedgerView
	for _, l := range peers[1].node.StatusView().Neighbors {
		if l.Neighbor == peers[0].url {
			lv = l
		}
	}
	if lv.PullCursor != n {
		t.Fatalf("pull cursor %d, want %d", lv.PullCursor, n)
	}
}

func TestGossipValidKeyFormat(t *testing.T) {
	// Committed ignores garbage keys rather than polluting the log.
	peers := newFleet(t, 1, [][]int{{}})
	for _, k := range []string{"", "short", strings.Repeat("A", 64), strings.Repeat("g", 64), fmt.Sprintf("%063dx", 0)} {
		peers[0].node.Committed(k)
	}
	if peers[0].node.Seq() != 0 {
		t.Fatal("malformed key entered the commit log")
	}
}
