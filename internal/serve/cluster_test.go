package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/store"
)

// TestClusterHTTPEndToEnd boots three real servers sharing one store
// directory, distributes a job across them through the public
// /v1/cluster API, and pins the verdict byte-identical to a
// single-node execution of the same spec — the in-process version of
// the CI smoke's 3-peer cmp.
func TestClusterHTTPEndToEnd(t *testing.T) {
	dir := t.TempDir()
	peers := make([]string, 3)
	servers := make([]*httptest.Server, 3)
	for i := range peers {
		ts := newTestServer(t, dir)
		peers[i] = ts.URL
		servers[i] = ts
	}

	spec := store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc"}
	want, err := campaign.ExecuteOpts(context.Background(), spec, campaign.ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	got, err := campaign.ExecuteOpts(context.Background(), spec, campaign.ExecOptions{Workers: 2, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("cluster verdict differs from single-node:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	// The run really was distributed: frontier frames crossed the wire
	// into at least one peer, every peer opened the job, and close left
	// no engine behind.
	totalFrames := 0.0
	for _, sv := range servers {
		totalFrames += metric(t, sv, "ccserve_cluster_frames_in_total")
		if n := metric(t, sv, "ccserve_cluster_opens_total"); n != 1 {
			t.Fatalf("peer opened %g cluster jobs, want 1", n)
		}
		if n := metric(t, sv, "ccserve_cluster_jobs_open"); n != 0 {
			t.Fatalf("peer still has %g cluster jobs open after close", n)
		}
	}
	if totalFrames == 0 {
		t.Fatal("no frontier frames crossed the wire: the run was not distributed")
	}
}

// TestClusterHTTPPeerCounters runs the battery's spilling cell
// (cc2/ring:4/cc/central, 30,000 states) over three servers held to a
// 16 KiB budget: the verdict matches a single node's, and the peers'
// explorer counters reach /metrics once the job closes — their shards
// spilled, so their sweeps read the spill file, and their workers
// looked processes up in the local-transition cache.
func TestClusterHTTPPeerCounters(t *testing.T) {
	dir := t.TempDir()
	peers := make([]string, 3)
	servers := make([]*httptest.Server, 3)
	for i := range peers {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.New(serve.Config{Store: st, Jobs: 1, JobWorkers: 1, MemBudget: 16 << 10, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(s)
		t.Cleanup(servers[i].Close)
		peers[i] = servers[i].URL
	}
	spec := store.JobSpec{Alg: "cc2", Topo: "ring:4", Daemon: "central", Init: "cc", MaxStates: 30_000}
	want, err := campaign.ExecuteOpts(context.Background(), spec, campaign.ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := campaign.ExecuteOpts(context.Background(), spec, campaign.ExecOptions{Workers: 2, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("cluster verdict under a memory budget differs from single-node:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	var reads, lookups float64
	for _, sv := range servers {
		reads += metric(t, sv, "ccserve_explore_cold_reads_total")
		lookups += metric(t, sv, "ccserve_explore_local_cache_lookups_total")
	}
	if reads == 0 || lookups == 0 {
		t.Fatalf("the peers report %g cold reads and %g local-cache lookups, want both above 0", reads, lookups)
	}
}

// TestClusterHTTPPeerLoss is TestClusterHTTPEndToEnd with a peer lost
// mid-layer: at depth 2 peer 1 starts refusing cluster traffic — frames
// from its siblings at once, its own expansion's answer after the
// expansion ran, so part of its frames did reach the survivors, as
// with a killed process. A survivor adopts its shard from the barrier
// snapshot in the shared store over the same rpc route as every other
// op, the verdict stays byte-identical to single-node, and closing the
// job leaves no shard snapshot behind.
func TestClusterHTTPPeerLoss(t *testing.T) {
	dir := t.TempDir()
	const victim = 1
	var refusing atomic.Bool
	peers := make([]string, 3)
	servers := make([]*httptest.Server, 3)
	for i := range peers {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := serve.New(serve.Config{Store: st, Jobs: 2, JobWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = sv
		if i == victim {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !strings.HasPrefix(r.URL.Path, "/v1/cluster/") {
					sv.ServeHTTP(w, r)
					return
				}
				if refusing.Load() {
					http.Error(w, "peer is down", http.StatusServiceUnavailable)
					return
				}
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				var req cluster.RPCRequest
				if json.Unmarshal(body, &req) == nil && req.Op == "expand" && req.Depth == 2 {
					refusing.Store(true)
					sv.ServeHTTP(httptest.NewRecorder(), r)
					http.Error(w, "peer is down", http.StatusServiceUnavailable)
					return
				}
				sv.ServeHTTP(w, r)
			})
		}
		servers[i] = httptest.NewServer(h)
		t.Cleanup(servers[i].Close)
		peers[i] = servers[i].URL
	}

	spec := store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc"}
	want, err := campaign.ExecuteOpts(context.Background(), spec, campaign.ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := campaign.ExecuteOpts(context.Background(), spec, campaign.ExecOptions{Workers: 2, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("cluster verdict after peer loss differs from single-node:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	if !refusing.Load() {
		t.Fatal("the job never reached depth 2: no peer was lost")
	}
	adoptions := 0.0
	for i, sv := range servers {
		if i != victim {
			adoptions += metric(t, sv, "ccserve_cluster_adoptions_total")
		}
	}
	if adoptions != 1 {
		t.Fatalf("survivors adopted %g shards, want exactly the lost peer's one", adoptions)
	}
	filepath.WalkDir(filepath.Join(dir, "checkpoints"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), "-shard") {
			t.Errorf("shard snapshot left behind after close: %s", path)
		}
		return nil
	})
}

// TestClusterEndpointErrors drives each cluster endpoint's refusal
// paths and asserts the error counter moves: the cluster tier must
// reject garbage loudly, not wedge a distributed layer.
func TestClusterEndpointErrors(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	errsBefore := metric(t, ts, "ccserve_cluster_errors_total")

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, tc := range []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed rpc json", "/v1/cluster/rpc", "{not json", http.StatusBadRequest},
		{"unknown rpc field", "/v1/cluster/rpc", `{"op":"seed","job":"k","bogus":1}`, http.StatusBadRequest},
		{"missing job", "/v1/cluster/rpc", `{"op":"seed"}`, http.StatusBadRequest},
		{"rpc before open", "/v1/cluster/rpc", `{"op":"seed","job":"nope"}`, http.StatusNotFound},
		{"open with bad spec", "/v1/cluster/rpc", `{"op":"open","job":"k","spec":{"alg":"quantum"},"nshards":1,"self":0,"peers":["x"]}`, http.StatusBadRequest},
		{"open with bad topology", "/v1/cluster/rpc", `{"op":"open","job":"k","spec":{"alg":"cc2","topo":"ring:3","daemon":"central","init":"legit"},"nshards":2,"self":5,"peers":["a","b"]}`, http.StatusBadRequest},
		{"frontier without job", "/v1/cluster/frontier", "xx", http.StatusBadRequest},
		{"frontier unknown job", "/v1/cluster/frontier?job=nope", "xx", http.StatusNotFound},
		{"adopt malformed", "/v1/cluster/rpc", `{"op":"adopt"}`, http.StatusBadRequest},
		{"adopt unknown job", "/v1/cluster/rpc", `{"op":"adopt","job":"nope","shard":0}`, http.StatusNotFound},
	} {
		if code := post(tc.path, tc.body); code != tc.want {
			t.Fatalf("%s: got %d, want %d", tc.name, code, tc.want)
		}
	}

	// Method not allowed on every cluster route (GET where POST is
	// required and vice versa).
	for _, m := range []struct{ method, path string }{
		{http.MethodGet, "/v1/cluster/rpc"},
		{http.MethodGet, "/v1/cluster/frontier"},
		{http.MethodPost, "/v1/cluster/status"},
	} {
		req, err := http.NewRequest(m.method, ts.URL+m.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: got %d, want 405", m.method, m.path, resp.StatusCode)
		}
	}

	// The adopt route is gone (adopt is an rpc op): an enveloped 404,
	// like any unknown path.
	resp, err := http.Post(ts.URL+"/v1/cluster/adopt", "application/json", strings.NewReader(`{"job":"k","shard":0}`))
	if err != nil {
		t.Fatal(err)
	}
	var env struct{ Error, Class string }
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || err != nil || env.Error == "" {
		t.Fatalf("POST /v1/cluster/adopt: got %d, envelope %+v (%v); want an enveloped 404", resp.StatusCode, env, err)
	}

	if after := metric(t, ts, "ccserve_cluster_errors_total"); after <= errsBefore {
		t.Fatalf("cluster error counter did not move: %g -> %g", errsBefore, after)
	}

	// A garbage frame against an OPEN job must be a 400 from the codec
	// validators, never a panic or a silent accept.
	openBody := `{"op":"open","job":"k","spec":{"alg":"cc2","topo":"ring:3","daemon":"central","init":"legit"},"nshards":1,"self":0,"peers":["` + ts.URL + `"]}`
	if code := post("/v1/cluster/rpc", openBody); code != http.StatusOK {
		t.Fatalf("open: got %d", code)
	}
	if code := post("/v1/cluster/frontier?job=k", "garbage-frame-bytes"); code != http.StatusBadRequest && code != http.StatusConflict {
		t.Fatalf("garbage frame: got %d, want 400 or 409", code)
	}
	// Status reports the open job with the peer list its coordinator
	// sent — the server itself is configured with none.
	var status struct {
		Jobs []struct {
			Job   string
			Peers []string
		}
	}
	_, raw := get(t, ts.URL+"/v1/cluster/status")
	if err := json.Unmarshal(raw, &status); err != nil || len(status.Jobs) != 1 ||
		status.Jobs[0].Job != "k" || len(status.Jobs[0].Peers) != 1 || status.Jobs[0].Peers[0] != ts.URL {
		t.Fatalf("status of the open job: %s (%v)", raw, err)
	}
	// An op the dispatch does not know — what a newer coordinator's op
	// looks like to this peer — fails the call loudly.
	if code := post("/v1/cluster/rpc", `{"op":"warp","job":"k"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown op: got %d, want 400", code)
	}
	if code := post("/v1/cluster/rpc", `{"op":"close","job":"k"}`); code != http.StatusOK {
		t.Fatalf("close: got %d", code)
	}
}
