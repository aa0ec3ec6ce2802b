package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/gossip"
	"repro/internal/serve"
	"repro/internal/store"
)

// fleetPeer is one ccserve node in a gossiping fleet: its own store,
// its own gossip node, wired through an atomic pointer because the
// httptest listener must exist (to know the URL) before the server
// that handles its requests does.
type fleetPeer struct {
	ts   *httptest.Server
	st   store.Interface
	node *gossip.Node
	sv   atomic.Pointer[serve.Server]
}

// newFleet builds n full-mesh gossiping serve peers, each with an
// empty store. interval is the background anti-entropy cadence; -1
// disables the loop, and the test drives convergence with syncFleet.
func newFleet(t *testing.T, n int, interval time.Duration) []*fleetPeer {
	t.Helper()
	peers := make([]*fleetPeer, n)
	urls := make([]string, n)
	for i := range peers {
		p := &fleetPeer{}
		p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sv := p.sv.Load()
			if sv == nil {
				http.Error(w, "peer not wired yet", http.StatusServiceUnavailable)
				return
			}
			sv.ServeHTTP(w, r)
		}))
		t.Cleanup(p.ts.Close)
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		p.st = st
		peers[i] = p
		urls[i] = p.ts.URL
	}
	for i, p := range peers {
		var neighbors []string
		for j, u := range urls {
			if j != i {
				neighbors = append(neighbors, u)
			}
		}
		pp := p
		p.node = gossip.New(gossip.Config{
			Self: urls[i], Neighbors: neighbors, Store: p.st, Interval: interval,
			OnIngest: func(key string) {
				if sv := pp.sv.Load(); sv != nil {
					sv.GossipIngested(key)
				}
			},
		})
		t.Cleanup(p.node.Close)
		sv, err := serve.New(serve.Config{Store: p.st, Jobs: 2, JobWorkers: 1, Gossip: p.node})
		if err != nil {
			t.Fatal(err)
		}
		p.sv.Store(sv)
	}
	return peers
}

// syncFleet drives gossip rounds until every peer's store holds at
// least want entries (fetches are asynchronous behind Sync).
func syncFleet(t *testing.T, peers []*fleetPeer, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		full := true
		for _, p := range peers {
			p.node.Sync()
			if p.st.Len() < want {
				full = false
			}
		}
		if full {
			return
		}
		if time.Now().After(deadline) {
			for i, p := range peers {
				t.Logf("peer %d: %d/%d entries", i, p.st.Len(), want)
			}
			t.Fatal("fleet did not converge")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFleetGossipDifferential is the distributed-identity battery for
// the push plane: a 3-peer fleet connected only by verdict gossip runs
// the CC grid on one peer, and after convergence every peer serves
// byte-identical result bytes — equal to a single-node run of the same
// cells — and repeat submissions are store hits fleet-wide, with zero
// quarantined entries.
func TestFleetGossipDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet battery")
	}
	peers := newFleet(t, 3, -1)

	grid := map[string]any{
		"algs": []string{"cc1", "cc2"}, "topos": []string{"ring:3"},
		"daemons": []string{"central", "synchronous"}, "inits": []string{"legit"},
	}
	_, v, _ := postJSON(t, peers[0].ts.URL+"/v1/campaigns", grid)
	cid, _ := v["id"].(string)
	if cid == "" {
		t.Fatalf("no campaign id: %v", v)
	}

	// Run the whole grid to completion on peer 0.
	var cv campaignView
	for deadline := time.Now().Add(60 * time.Second); ; {
		_, raw := get(t, peers[0].ts.URL+"/v1/campaigns/"+cid)
		cv = campaignView{}
		if err := json.Unmarshal(raw, &cv); err != nil {
			t.Fatal(err)
		}
		if cv.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never finished: %s", raw)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if cv.Failed != 0 || len(cv.Results) != 4 {
		t.Fatalf("grid on peer 0: %+v", cv)
	}

	// Gossip the verdicts across the fleet.
	syncFleet(t, peers, len(cv.Results))

	// Every cell: byte-identical /result on all three peers, equal to
	// the single-node oracle's canonical encoding.
	for _, cell := range cv.Results {
		want, err := campaign.ExecuteOpts(context.Background(), cell.Spec, campaign.ExecOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range peers {
			code, raw := get(t, p.ts.URL+"/v1/jobs/"+cell.ID+"/result")
			if code != http.StatusOK {
				t.Fatalf("peer %d cell %s: result status %d", i, cell.ID[:12], code)
			}
			if !bytes.Equal(raw, wantJSON) {
				t.Fatalf("peer %d cell %s diverges from single-node:\n%s\nvs\n%s", i, cell.ID[:12], raw, wantJSON)
			}
		}
	}

	// A completed job on one peer is a store hit fleet-wide: repeats on
	// peers that never ran anything come back cached and done.
	for _, p := range peers[1:] {
		for _, cell := range cv.Results {
			_, rv, raw := postJSON(t, p.ts.URL+"/v1/jobs", cell.Spec)
			if rv["cached"] != true || rv["status"] != serve.StatusDone {
				t.Fatalf("gossiped verdict not a store hit: %s", raw)
			}
		}
	}

	// Ingest integrity: everything arrived verified, nothing quarantined.
	for i, p := range peers {
		if n := p.st.Quarantined(); n != 0 {
			t.Fatalf("peer %d quarantined %d entries on a clean fleet", i, n)
		}
		if i > 0 {
			if n := p.node.Ingested(); n < int64(len(cv.Results)) {
				t.Fatalf("peer %d ingested %d, want >= %d", i, n, len(cv.Results))
			}
			if m := metric(t, p.ts, "ccserve_gossip_ingested_total"); m < float64(len(cv.Results)) {
				t.Fatalf("peer %d ccserve_gossip_ingested_total = %g", i, m)
			}
		}
		if p.node.Corrupt() != 0 {
			t.Fatalf("peer %d counted corrupt entries on a clean fleet", i)
		}
	}
}

// TestFleetLoadBattery: a 3-peer fleet on background gossip under
// about a thousand mixed clients — more than one peer's in-flight cap
// — each submitting, watching (resuming with Last-Event-ID when a
// stream is closed under it) and polling against a random peer. The
// push plane's invariant is enforced: every watch of a job the peer
// knows ends in a terminal event; none is lost. Backpressure (429/503)
// is tolerated and counted; any other failure is an error.
func TestFleetLoadBattery(t *testing.T) {
	clients, dur := 1000, 4*time.Second
	if testing.Short() {
		clients, dur = 128, 2*time.Second
	}
	const (
		// watchRetries bounds the resumes after a server-closed stream
		// before the terminal is scored lost. watchTimeout is orders of
		// magnitude past any job here, so a stream still open when it
		// fires is a terminal the server never pushed.
		watchRetries = 5
		watchTimeout = 30 * time.Second
	)
	peers := newFleet(t, 3, 100*time.Millisecond)
	specs := make([]store.JobSpec, 6)
	for i := range specs {
		specs[i] = jobSpec([]string{"cc1", "cc2"}[i%2], "central")
		specs[i].MaxStates = 5_000 + i
	}
	cl := &http.Client{Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}}
	defer cl.CloseIdleConnections()

	var submits, cached, terminals, reconnects, shed, failures atomic.Int64
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 10 { // a systemic failure repeats per client
			t.Errorf(format, args...)
		}
	}
	// answered sorts a response into served (true), shed, or failure;
	// also lets 404 through for reads of an id still gossiping over.
	answered := func(op string, resp *http.Response, err error, also int) bool {
		switch {
		case err != nil:
			fail("%s: %v", op, err)
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			shed.Add(1)
		case resp.StatusCode/100 == 2 || resp.StatusCode == also:
			return true
		default:
			fail("%s: status %d", op, resp.StatusCode)
		}
		return false
	}
	watch := func(base, id string) {
		url := base + "/v1/jobs/" + id + "/watch"
		var after uint64
		for attempt := 0; attempt <= watchRetries; attempt++ {
			status, evs, err := openWatch(cl, url, after, watchTimeout)
			switch status {
			case 0:
				fail("watch %s: %v", id[:12], err)
				return
			case http.StatusNotFound:
				return // submitted elsewhere, not gossiped over yet
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				shed.Add(1)
				return
			case http.StatusOK:
			default:
				fail("watch %s: status %d", id[:12], status)
				return
			}
			if err == nil {
				terminals.Add(1)
				return
			}
			if !errors.Is(err, io.EOF) {
				fail("lost terminal: watch %s cut without one: %v", id[:12], err)
				return
			}
			for _, ev := range evs {
				after = max(after, ev.Seq)
			}
			reconnects.Add(1)
		}
		fail("lost terminal: watch %s closed without one %d times over", id[:12], watchRetries+1)
	}

	// Clients run for dur, and past it until some submit has come back
	// cached: on two cores under -race the first thousand connections
	// alone can outlast dur. hardStop bounds that wait, so a fleet that
	// never dedups still fails below.
	deadline := time.Now().Add(dur)
	hardStop := deadline.Add(time.Minute)
	running := func() bool {
		now := time.Now()
		return now.Before(deadline) || cached.Load() == 0 && now.Before(hardStop)
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var ids []string // what this client's own submits returned
			for running() {
				base := peers[rng.Intn(len(peers))].ts.URL
				switch op := rng.Intn(4); { // submit : watch : status = 1 : 2 : 1
				case len(ids) == 0 || op == 0:
					resp, raw, err := roundTrip(cl, http.MethodPost, base+"/v1/jobs", specs[rng.Intn(len(specs))])
					if !answered("submit", resp, err, 0) {
						continue
					}
					var v struct {
						ID     string `json:"id"`
						Cached bool   `json:"cached"`
					}
					if err := json.Unmarshal(raw, &v); err != nil || v.ID == "" {
						fail("submit: bad body %q (%v)", raw, err)
						continue
					}
					submits.Add(1)
					if v.Cached {
						cached.Add(1)
					}
					ids = append(ids, v.ID)
				case op <= 2:
					watch(base, ids[rng.Intn(len(ids))])
				default:
					resp, _, err := roundTrip(cl, http.MethodGet, base+"/v1/jobs/"+ids[rng.Intn(len(ids))], nil)
					answered("status", resp, err, http.StatusNotFound)
				}
			}
		}(rand.New(rand.NewSource(42 + int64(i))))
	}
	wg.Wait()
	t.Logf("battery: %d clients, %d submits (%d cached), %d watch terminals, %d reconnects, %d shed",
		clients, submits.Load(), cached.Load(), terminals.Load(), reconnects.Load(), shed.Load())

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d lost terminals and hard errors under load", n)
	}
	if terminals.Load() == 0 {
		t.Fatal("no watch ever delivered a terminal event")
	}
	if cached.Load() == 0 {
		t.Fatalf("mix did not exercise dedup: %d submits, none cached", submits.Load())
	}
}

// campaignView mirrors the serve campaign aggregate for decoding in
// fleet tests (the production type is unexported).
type campaignView struct {
	ID      string    `json:"id"`
	Status  string    `json:"status"`
	Cells   int       `json:"cells"`
	Done    int       `json:"done"`
	Failed  int       `json:"failed"`
	Results []cellRes `json:"results"`
}

type cellRes struct {
	ID      string        `json:"id"`
	Spec    store.JobSpec `json:"spec"`
	Status  string        `json:"status"`
	Verdict string        `json:"verdict"`
}
