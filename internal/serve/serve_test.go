package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/store"
)

func newTestServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Store: st, Jobs: 2, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any, []byte) {
	t.Helper()
	resp, v, raw := postResp(t, url, body)
	return resp.StatusCode, v, raw
}

// postResp is postJSON keeping the response, for header assertions
// (the body is already consumed and closed).
func postResp(t *testing.T, url string, body any) (*http.Response, map[string]any, []byte) {
	t.Helper()
	resp, raw, err := roundTrip(http.DefaultClient, http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	json.Unmarshal(raw, &v)
	return resp, v, raw
}

// roundTrip is the t-free core of postResp and get: one request on cl
// (a JSON body when body is non-nil), response read to the end and
// closed. Client goroutines, which may not t.Fatal, call it directly.
func roundTrip(cl *http.Client, method, url string, body any) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

// wantRetryAfter asserts a shed response carries a positive integer
// Retry-After — the contract every 429/503 from the server honours.
func wantRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("%d response has no Retry-After header", resp.StatusCode)
	}
	if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Fatalf("Retry-After %q is not a positive integer", ra)
	}
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, raw, err := roundTrip(http.DefaultClient, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// waitDone polls a job until it leaves the queue.
func waitDone(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, raw := get(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, code, raw)
		}
		var v map[string]any
		json.Unmarshal(raw, &v)
		switch v["status"] {
		case serve.StatusDone, serve.StatusFailed:
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

func jobSpec(alg, daemon string) store.JobSpec {
	return store.JobSpec{Alg: alg, Topo: "ring:3", Daemon: daemon, Init: "legit"}
}

// TestJobLifecycle: submit → poll → result; identical resubmission is
// served without recomputation, byte-identically.
func TestJobLifecycle(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	code, v, _ := postJSON(t, ts.URL+"/v1/jobs", jobSpec("cc2", "central"))
	if code != http.StatusAccepted {
		t.Fatalf("first POST: %d %v", code, v)
	}
	id, _ := v["id"].(string)
	if id == "" {
		t.Fatalf("no id in %v", v)
	}
	if id != jobSpec("cc2", "central").Key() {
		t.Fatalf("job id %s is not the content key", id)
	}
	final := waitDone(t, ts.URL, id)
	if final["status"] != serve.StatusDone || final["verdict"] != "verified" {
		t.Fatalf("job did not verify: %v", final)
	}
	code, res1 := get(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, res1)
	}
	var decoded struct {
		Violations []any
		States     float64
	}
	if err := json.Unmarshal(res1, &decoded); err != nil {
		t.Fatalf("result not an explore.Result: %v", err)
	}

	// Resubmit: must not recompute, must say cached, and the verdict
	// body must be byte-identical.
	code, v2, _ := postJSON(t, ts.URL+"/v1/jobs", jobSpec("cc2", "central"))
	if code != http.StatusOK {
		t.Fatalf("resubmit: %d %v", code, v2)
	}
	if v2["cached"] != true {
		t.Fatalf("resubmit not reported cached: %v", v2)
	}
	_, res2 := get(t, ts.URL+"/v1/jobs/"+id+"/result")
	if !bytes.Equal(res1, res2) {
		t.Fatal("resubmitted verdict body differs")
	}

	// A fresh server over the same store serves the verdict from disk,
	// byte-identically — the cross-process cache-hit contract the CI
	// smoke asserts over HTTP.
	ts2 := newTestServer(t, storeDirOf(t, ts))
	code, v3, _ := postJSON(t, ts2.URL+"/v1/jobs", jobSpec("cc2", "central"))
	if code != http.StatusOK || v3["cached"] != true || v3["status"] != serve.StatusDone {
		t.Fatalf("restart submit: %d %v", code, v3)
	}
	_, res3 := get(t, ts2.URL+"/v1/jobs/"+id+"/result")
	if !bytes.Equal(res1, res3) {
		t.Fatal("verdict body differs across server restart")
	}
}

// storeDirOf digs the cache dir out of /healthz, so restart tests
// reuse it without plumbing.
func storeDirOf(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	_, raw := get(t, ts.URL+"/healthz")
	var v map[string]any
	json.Unmarshal(raw, &v)
	dir, _ := v["cache_dir"].(string)
	if dir == "" {
		t.Fatalf("no cache_dir in healthz: %s", raw)
	}
	return dir
}

func metric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	_, raw := get(t, ts.URL+"/metrics")
	for _, line := range strings.Split(string(raw), "\n") {
		if f, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, raw)
	return 0
}

// TestConcurrentDuplicateSubmissions is the serving acceptance test:
// 64 concurrent submissions of a mixed campaign (4 distinct specs)
// dedupe in flight — each identical spec is explored exactly once —
// and every response converges on the same verdict bytes.
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	specs := []store.JobSpec{
		jobSpec("cc1", "central"), jobSpec("cc1", "synchronous"),
		jobSpec("cc2", "central"), jobSpec("cc2", "synchronous"),
	}
	const n = 64
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(specs[i%len(specs)])
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("submission %d: %d %s", i, resp.StatusCode, raw)
				return
			}
			var v map[string]any
			json.Unmarshal(raw, &v)
			ids[i], _ = v["id"].(string)
		}(i)
	}
	wg.Wait()

	// All 64 submissions resolved to the 4 content addresses.
	distinct := map[string]bool{}
	for i, id := range ids {
		if id == "" {
			t.Fatalf("submission %d got no id", i)
		}
		distinct[id] = true
	}
	if len(distinct) != len(specs) {
		t.Fatalf("%d distinct job ids, want %d", len(distinct), len(specs))
	}
	results := map[string][]byte{}
	for id := range distinct {
		if v := waitDone(t, ts.URL, id); v["status"] != serve.StatusDone {
			t.Fatalf("job %s: %v", id, v)
		}
		_, raw := get(t, ts.URL+"/v1/jobs/"+id+"/result")
		results[id] = raw
	}
	if got := metric(t, ts, "ccserve_jobs_executed_total"); got != float64(len(specs)) {
		t.Fatalf("executed %v explorations, want %d (in-flight dedupe failed)", got, len(specs))
	}
	if got := metric(t, ts, "ccserve_jobs_submitted_total"); got != n {
		t.Fatalf("submitted %v, want %d", got, n)
	}
	if got := metric(t, ts, "ccserve_jobs_deduped_total"); got != n-float64(len(specs)) {
		t.Fatalf("deduped %v, want %d", got, n-len(specs))
	}
	// Resubmitting the whole batch now reports cached verdicts with the
	// same bytes.
	for _, s := range specs {
		code, v, _ := postJSON(t, ts.URL+"/v1/jobs", s)
		if code != http.StatusOK || v["cached"] != true {
			t.Fatalf("post-batch resubmit: %d %v", code, v)
		}
		_, raw := get(t, ts.URL+"/v1/jobs/"+s.Key()+"/result")
		if !bytes.Equal(raw, results[s.Key()]) {
			t.Fatalf("verdict bytes changed for %s", s)
		}
	}
}

// TestCampaignEndpoints: a campaign fans through the same job
// machinery, aggregates deterministically in expansion order, and
// reports cache hits on resubmission after a restart.
func TestCampaignEndpoints(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	cspec := map[string]any{
		"algs": []string{"cc1", "cc2"}, "topos": []string{"ring:3"},
		"daemons": []string{"central", "synchronous"}, "inits": []string{"legit"},
	}
	code, v, _ := postJSON(t, ts.URL+"/v1/campaigns", cspec)
	if code != http.StatusAccepted {
		t.Fatalf("POST campaign: %d %v", code, v)
	}
	id, _ := v["id"].(string)
	if id == "" || v["cells"] != float64(4) {
		t.Fatalf("campaign response: %v", v)
	}

	var agg map[string]any
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, raw := get(t, ts.URL+"/v1/campaigns/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET campaign: %d %s", code, raw)
		}
		json.Unmarshal(raw, &agg)
		if agg["status"] == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never finished: %v", agg)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if agg["verified"] != float64(4) || agg["violated"] != float64(0) || agg["failed"] != float64(0) {
		t.Fatalf("aggregate: %v", agg)
	}
	results := agg["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("results: %v", results)
	}
	// Expansion order: cc1 before cc2, central before synchronous.
	first := results[0].(map[string]any)["spec"].(map[string]any)
	if first["alg"] != "cc1" || first["daemon"] != "central" {
		t.Fatalf("results not in expansion order: %v", first)
	}

	// Same campaign on a fresh server over the same store: all cells
	// are cache hits, and the aggregate matches.
	ts2 := newTestServer(t, storeDirOf(t, ts))
	code, v2, _ := postJSON(t, ts2.URL+"/v1/campaigns", cspec)
	if code != http.StatusAccepted {
		t.Fatalf("restart POST campaign: %d %v", code, v2)
	}
	if v2["id"] != id {
		t.Fatalf("campaign id not content-addressed: %v vs %v", v2["id"], id)
	}
	var agg2 map[string]any
	_, raw := get(t, ts2.URL+"/v1/campaigns/"+id)
	json.Unmarshal(raw, &agg2)
	if agg2["status"] != "done" || agg2["cache_hits"] != float64(4) {
		t.Fatalf("restarted campaign not served from cache: %v", agg2)
	}
	if metric(t, ts2, "ccserve_jobs_executed_total") != 0 {
		t.Fatal("restarted server explored despite full cache")
	}
	if metric(t, ts2, "ccserve_cache_hit_ratio") != 1 {
		t.Fatal("hit ratio should be 1 on the restarted server")
	}
}

// TestEvictionRehydration: finished jobs past the retention bound are
// evicted from memory and transparently re-hydrated from the store by
// their content key — byte-identical verdicts, no 404s, no unbounded
// growth.
func TestEvictionRehydration(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Store: st, Jobs: 1, JobWorkers: 1, RetainJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	specs := []store.JobSpec{
		jobSpec("cc1", "central"), jobSpec("cc1", "synchronous"), jobSpec("cc2", "central"),
	}
	bodies := map[string][]byte{}
	for _, sp := range specs {
		_, v, _ := postJSON(t, ts.URL+"/v1/jobs", sp)
		id, _ := v["id"].(string)
		waitDone(t, ts.URL, id)
		_, raw := get(t, ts.URL+"/v1/jobs/"+id+"/result")
		bodies[id] = raw
	}
	// With RetainJobs=1 the first two jobs are long evicted; their ids
	// must still resolve, cached, with the same bytes.
	for _, sp := range specs {
		id := sp.Key()
		code, raw := get(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("evicted job %s: %d %s", id[:12], code, raw)
		}
		var v map[string]any
		json.Unmarshal(raw, &v)
		if v["status"] != serve.StatusDone {
			t.Fatalf("evicted job %s: %v", id[:12], v)
		}
		_, res := get(t, ts.URL+"/v1/jobs/"+id+"/result")
		if !bytes.Equal(res, bodies[id]) {
			t.Fatalf("evicted job %s: verdict bytes changed", id[:12])
		}
		// Resubmission after eviction is a store hit, not a recompute.
		code, v2, _ := postJSON(t, ts.URL+"/v1/jobs", sp)
		if code != http.StatusOK || v2["cached"] != true {
			t.Fatalf("resubmit after eviction: %d %v", code, v2)
		}
	}
	if got := metric(t, ts, "ccserve_jobs_executed_total"); got != float64(len(specs)) {
		t.Fatalf("executed %v, want %d (eviction must not cause recomputes)", got, len(specs))
	}
}

// TestQueueBound: submissions past MaxQueue are shed with 429 + a
// Retry-After hint, counted in the rejected metric, and do not pin the
// key against resubmission.
func TestQueueBound(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Store: st, Jobs: 1, JobWorkers: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Occupy the single worker slot with a slower job, queue one, then
	// overflow.
	// The slot-holder must outlive the two submissions below by a wide
	// margin on a loaded 1-CPU box: ring:4 cc-full all-subsets bounded
	// to 500k states runs for seconds regardless of engine speed.
	slow := store.JobSpec{Alg: "cc2", Topo: "ring:4", Daemon: "all-subsets", Init: "cc-full", MaxStates: 500_000}
	code, _, _ := postJSON(t, ts.URL+"/v1/jobs", slow)
	if code != http.StatusAccepted {
		t.Fatalf("slow job: %d", code)
	}
	// Wait until it holds the worker slot (queued 1 → running 1), so
	// the next submission deterministically occupies the queue.
	for deadline := time.Now().Add(5 * time.Second); metric(t, ts, "ccserve_jobs_running") != 1; {
		if time.Now().After(deadline) {
			t.Fatal("slow job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queuedSpec := jobSpec("cc1", "central")
	code, _, _ = postJSON(t, ts.URL+"/v1/jobs", queuedSpec)
	if code != http.StatusAccepted {
		t.Fatalf("queued job: %d", code)
	}
	rejectedSpec := jobSpec("cc1", "synchronous")
	resp, v, _ := postResp(t, ts.URL+"/v1/jobs", rejectedSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: %d %v, want 429", resp.StatusCode, v)
	}
	wantRetryAfter(t, resp)
	if metric(t, ts, "ccserve_jobs_rejected_total") != 1 {
		t.Fatal("rejection not counted")
	}
	// The rejected record fails in place (a concurrent joiner holding
	// the id must poll into the failure, not a 404) ...
	code, raw := get(t, ts.URL+"/v1/jobs/"+rejectedSpec.Key())
	var rv map[string]any
	json.Unmarshal(raw, &rv)
	if code != http.StatusOK || rv["status"] != serve.StatusFailed || !strings.Contains(raw2s(rv["error"]), "queue") {
		t.Fatalf("rejected job: %d %v", code, rv)
	}
	// ... and does not pin the key: once the queue drains, the same
	// spec resubmits fresh and runs.
	waitDone(t, ts.URL, slow.Key())
	waitDone(t, ts.URL, queuedSpec.Key())
	code, _, _ = postJSON(t, ts.URL+"/v1/jobs", rejectedSpec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("resubmission after drain: %d", code)
	}
	if v := waitDone(t, ts.URL, rejectedSpec.Key()); v["status"] != serve.StatusDone {
		t.Fatalf("retried job did not run: %v", v)
	}
}

func raw2s(v any) string { s, _ := v.(string); return s }

// TestValidation: malformed and invalid submissions are 400s with a
// message, unknown ids are 404s, and the state-bound cap holds.
func TestValidation(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	for name, body := range map[string]string{
		"bad json":      `{"alg":`,
		"unknown field": `{"alg":"cc2","topo":"ring:3","nope":1}`,
		"unknown alg":   `{"alg":"cc9","topo":"ring:3"}`,
		"bad daemon":    `{"alg":"cc2","topo":"ring:3","daemon":"centrall"}`,
		"bad topo":      `{"alg":"cc2","topo":"ring:0"}`,
		"over cap":      `{"alg":"cc2","topo":"ring:3","max_states":99000000}`,
		"unlimited":     `{"alg":"cc2","topo":"ring:3","max_states":-1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s", name, resp.StatusCode, raw)
		}
		var v map[string]any
		if json.Unmarshal(raw, &v) != nil || v["error"] == "" {
			t.Errorf("%s: no error message in %s", name, raw)
		}
	}
	resp, _ := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"algs":["cc1","cc9"],"topos":["ring:3"]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad campaign: %d", resp.StatusCode)
	}
	resp.Body.Close()

	for _, path := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/result", "/v1/campaigns/deadbeef"} {
		code, _ := get(t, ts.URL+path)
		if code != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", path, code)
		}
	}
}

// TestValidationWordLimit: a model past the explorer's size rule is the
// enveloped 400, carrying the message campaign.Validate gives for it.
func TestValidationWordLimit(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	spec := store.JobSpec{Alg: "cc2", Topo: "ring:65", Daemon: "central", Init: "legit"}
	want := campaign.Validate(spec)
	if want == nil || !strings.Contains(want.Error(), "65 processes") {
		t.Fatalf("campaign.Validate(%+v) = %v, want the size rule", spec, want)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"alg":"cc2","topo":"ring:65"}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ring:65: %d %s", resp.StatusCode, raw)
	}
	wantEnvelope(t, "ring:65", raw, "bad_request")
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &env) != nil || env.Error != want.Error() {
		t.Fatalf("ring:65: error %q, want %q", env.Error, want)
	}
}

// TestHealthzAndMetrics: the liveness and metrics surfaces exist and
// carry the advertised gauges.
func TestHealthzAndMetrics(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	code, raw := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(raw), `"ok": true`) {
		t.Fatalf("healthz: %d %s", code, raw)
	}
	for _, name := range []string{
		"ccserve_jobs_submitted_total", "ccserve_cache_hit_ratio",
		"ccserve_states_per_second", "ccserve_queue_depth",
		"ccserve_jobs_running", "ccserve_worker_slots",
	} {
		metric(t, ts, name) // fails the test if absent
	}
	if metric(t, ts, "ccserve_worker_slots") != 2 {
		t.Fatal("worker slots should mirror Config.Jobs")
	}

	// A pending-result poll answers 202 while queued or running.
	spec := store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc"}
	_, v, _ := postJSON(t, ts.URL+"/v1/jobs", spec)
	id, _ := v["id"].(string)
	code, _ = get(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("pending result: %d", code)
	}
	waitDone(t, ts.URL, id)
	if got := metric(t, ts, "ccserve_states_explored_total"); got <= 0 {
		t.Fatalf("states_explored_total = %v after a job", got)
	}
	for _, phase := range []string{"expand", "commit"} {
		name := `ccserve_explore_phase_seconds_total{phase="` + phase + `"}`
		if got := metric(t, ts, name); got <= 0 {
			t.Fatalf("%s = %v after a job", name, got)
		}
	}
}

// TestReadyz: the readiness surface reports ready/closed-breaker on a
// healthy server, while /healthz stays a pure liveness probe.
func TestReadyz(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	code, raw := get(t, ts.URL+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("readyz: %d %s", code, raw)
	}
	var v map[string]any
	json.Unmarshal(raw, &v)
	if v["ready"] != true || v["degraded"] != false || v["breaker"] != "closed" {
		t.Fatalf("readyz: %v", v)
	}
}

// TestDrainShedding: once Drain starts, submissions and /readyz answer
// 503 with Retry-After (readiness fails) while /healthz stays 200
// (liveness holds) — the split that lets an orchestrator stop routing
// without killing the pod early.
func TestDrainShedding(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Store: st, Jobs: 1, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	if !s.Drain(5 * time.Second) {
		t.Fatal("drain of an idle server did not complete")
	}

	resp, v, raw := postResp(t, ts.URL+"/v1/jobs", jobSpec("cc1", "central"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: %d %v, want 503", resp.StatusCode, v)
	}
	wantRetryAfter(t, resp)
	wantEnvelope(t, "drain shed", raw, "unavailable")

	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", rresp.StatusCode)
	}
	wantRetryAfter(t, rresp)

	if code, raw := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d %s, want 200 (liveness is not readiness)", code, raw)
	}
}

// TestInFlightShedding: requests past MaxInFlight are shed with 429 +
// Retry-After before touching any server state, and the observability
// endpoints stay exempt.
func TestInFlightShedding(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Store: st, Jobs: 1, JobWorkers: 1, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Park one request inside the handler by streaming its body slowly:
	// the JSON decoder blocks until the pipe delivers the spec.
	pr, pw := io.Pipe()
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", pr)
		if err != nil {
			firstDone <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	inFlight := func() float64 {
		_, raw := get(t, ts.URL+"/readyz")
		var v map[string]any
		json.Unmarshal(raw, &v)
		f, _ := v["in_flight"].(float64)
		return f
	}
	for deadline := time.Now().Add(5 * time.Second); inFlight() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("parked request never registered in flight")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, v, raw := postResp(t, ts.URL+"/v1/jobs", jobSpec("cc1", "central"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap request: %d %v, want 429", resp.StatusCode, v)
	}
	wantRetryAfter(t, resp)
	wantEnvelope(t, "in-flight shed", raw, "shed")
	if metric(t, ts, "ccserve_requests_shed_total") != 1 {
		t.Fatal("shed request not counted")
	}

	// Release the parked request; it proceeds normally.
	data, _ := json.Marshal(jobSpec("cc2", "central"))
	pw.Write(data)
	pw.Close()
	if code := <-firstDone; code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("parked request finished with %d", code)
	}
}

// TestJobTimeout: a job past Config.JobTimeout fails with a timeout
// message instead of running forever — and the server distinguishes it
// from a shutdown interruption in the metrics.
func TestJobTimeout(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{
		Store: st, Jobs: 1, JobWorkers: 1,
		JobTimeout: time.Millisecond, CheckpointEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	heavy := store.JobSpec{Alg: "cc2", Topo: "ring:4", Daemon: "all-subsets", Init: "cc-full"}
	_, v, _ := postJSON(t, ts.URL+"/v1/jobs", heavy)
	id, _ := v["id"].(string)
	final := waitDone(t, ts.URL, id)
	if final["status"] != serve.StatusFailed || !strings.Contains(raw2s(final["error"]), "timeout") {
		t.Fatalf("heavy job under 1ms timeout: %v", final)
	}
	if metric(t, ts, "ccserve_jobs_timed_out_total") != 1 {
		t.Fatal("timeout not counted")
	}
	if metric(t, ts, "ccserve_jobs_interrupted_total") != 0 {
		t.Fatal("timeout misclassified as shutdown interruption")
	}
}

// TestStoreBreakerComputeOnly: store-write failures trip the breaker,
// the server keeps serving correct verdicts compute-only (degraded, not
// down), and a healed store closes the breaker through the half-open
// probe — the serving layer's stabilization property.
func TestStoreBreakerComputeOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := chaos.NewFaultFS(nil, chaos.Faults{})
	st, err := store.OpenFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{
		Store: st, Jobs: 1, JobWorkers: 1, CheckpointEvery: -1,
		BreakerFailures: 1, BreakerCooldown: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Break the disk: every write-side op fails permanently (EACCES),
	// so the store Put fails fast and trips the 1-failure breaker.
	ffs.SetFaults(chaos.Faults{WriteErr: 1, Permanent: 1})
	specA := jobSpec("cc1", "central")
	_, v, _ := postJSON(t, ts.URL+"/v1/jobs", specA)
	id, _ := v["id"].(string)
	if final := waitDone(t, ts.URL, id); final["status"] != serve.StatusDone || final["verdict"] != "verified" {
		t.Fatalf("job under a broken store must still verify from memory: %v", final)
	}
	if metric(t, ts, "ccserve_store_failures_total") < 1 {
		t.Fatal("store failure not counted")
	}
	if metric(t, ts, "ccserve_breaker_trips_total") != 1 {
		t.Fatal("breaker did not trip")
	}

	// While open: jobs complete compute-only, nothing touches the disk.
	specB := jobSpec("cc1", "synchronous")
	_, v, _ = postJSON(t, ts.URL+"/v1/jobs", specB)
	id, _ = v["id"].(string)
	if final := waitDone(t, ts.URL, id); final["status"] != serve.StatusDone {
		t.Fatalf("compute-only job: %v", final)
	}

	// Heal the disk; after the cooldown the next job's Put is the
	// half-open probe and closes the breaker.
	ffs.SetFaults(chaos.Faults{})
	closed := false
	for i, deadline := 0, time.Now().Add(15*time.Second); !closed && time.Now().Before(deadline); i++ {
		time.Sleep(100 * time.Millisecond)
		// Distinct MaxStates → distinct content keys (Seed is
		// canonicalized away for non-random inits), so every probe is a
		// fresh job that actually exercises a store Put.
		probe := store.JobSpec{Alg: "cc1", Topo: "ring:3", Daemon: "central", Init: "legit", MaxStates: 10_000 + i}
		_, pv, _ := postJSON(t, ts.URL+"/v1/jobs", probe)
		pid, _ := pv["id"].(string)
		waitDone(t, ts.URL, pid)
		_, raw := get(t, ts.URL+"/readyz")
		var rv map[string]any
		json.Unmarshal(raw, &rv)
		closed = rv["breaker"] == "closed"
	}
	if !closed {
		t.Fatal("breaker never closed after the store healed")
	}
	if metric(t, ts, "ccserve_breaker_state") != 0 {
		t.Fatal("breaker state gauge should read closed")
	}
	// The compute-only verdict was never persisted: resubmitting B on a
	// healed store recomputes (correctly) rather than hitting the cache.
	if _, _, hit := st.Get(specB.Canonical()); hit {
		t.Fatal("compute-only job leaked a store entry while the breaker was open")
	}
}

// TestHTTPErrorSurface sweeps the general API's refusal paths beyond
// spec validation: oversized payloads, ill-shaped ids, and the wrong
// method on every route — each must produce the right status code, and
// the refusals the server classifies as client errors must move the
// bad-request counter so operators can see a misbehaving client.
func TestHTTPErrorSurface(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	badBefore := metric(t, ts, "ccserve_bad_requests_total")

	big := strings.Repeat("x", 2<<20) // past the 1 MiB spec bound
	for _, tc := range []struct {
		name string
		path string
		body string
		want int
	}{
		{"oversized job body", "/v1/jobs", `{"alg":"` + big + `"}`, http.StatusBadRequest},
		{"oversized campaign body", "/v1/campaigns", `{"algs":["` + big + `"]}`, http.StatusBadRequest},
		{"campaign bad json", "/v1/campaigns", `{"algs":`, http.StatusBadRequest},
		{"campaign unknown field", "/v1/campaigns", `{"algs":["cc1"],"topos":["ring:3"],"bogus":1}`, http.StatusBadRequest},
		{"campaign empty grid", "/v1/campaigns", `{"algs":[],"topos":[]}`, http.StatusBadRequest},
		// A job field decodes into the campaign's template, but the five
		// axes belong in their lists.
		{"campaign template sets an axis", "/v1/campaigns", `{"algs":["cc1"],"topos":["ring:3"],"alg":"cc2"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: got %d (%s), want %d", tc.name, resp.StatusCode, raw, tc.want)
		}
		wantEnvelope(t, tc.name, raw, "bad_request")
	}

	// Ill-shaped ids (not hex, traversal attempts) must be clean 404s,
	// never 500s or path escapes — each carrying the envelope, whether
	// it came from a handler or from the mux via the envelope writer.
	for _, path := range []string{
		"/v1/jobs/not-a-key", "/v1/jobs/..%2f..%2fetc/result", "/v1/campaigns/%00",
		"/v1/nope", "/totally/unrouted",
	} {
		code, raw := get(t, ts.URL+path)
		if code != http.StatusNotFound {
			t.Fatalf("GET %s: got %d, want 404", path, code)
		}
		wantEnvelope(t, "GET "+path, raw, "not_found")
	}

	// The wrong method on every route is a 405 from the mux, not a
	// handler-level surprise.
	for _, m := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs"},
		{http.MethodDelete, "/v1/jobs"},
		{http.MethodPost, "/v1/jobs/deadbeef"},
		{http.MethodPost, "/v1/jobs/deadbeef/result"},
		{http.MethodGet, "/v1/campaigns"},
		{http.MethodPost, "/v1/campaigns/deadbeef"},
		{http.MethodPost, "/v1/campaigns/diff"},
		{http.MethodPost, "/v1/verdicts"},
		{http.MethodPost, "/v1/store/stats"},
		{http.MethodGet, "/v1/store/compact"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/readyz"},
		{http.MethodPost, "/metrics"},
	} {
		req, err := http.NewRequest(m.method, ts.URL+m.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: got %d, want 405", m.method, m.path, resp.StatusCode)
		}
		wantEnvelope(t, m.method+" "+m.path, raw, "method_not_allowed")
	}

	if after := metric(t, ts, "ccserve_bad_requests_total"); after <= badBefore {
		t.Fatalf("bad-request counter did not move: %g -> %g", badBefore, after)
	}

	// A valid submission still works after the abuse — the error paths
	// must not wedge the server.
	code, v, raw := postJSON(t, ts.URL+"/v1/jobs", jobSpec("cc2", "central"))
	if code != http.StatusOK && code != http.StatusAccepted && code != http.StatusCreated {
		t.Fatalf("valid submission after error sweep: %d %s", code, raw)
	}
	if id, _ := v["id"].(string); id != "" {
		waitDone(t, ts.URL, id)
	}
}

// TestClusterRoutesRemoved: the distributed-check routes are gone, so
// each gets the enveloped 404 of any unknown route.
func TestClusterRoutesRemoved(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	for _, r := range []struct{ method, path string }{
		{http.MethodPost, "/v1/cluster/rpc"},
		{http.MethodPost, "/v1/cluster/frontier"},
		{http.MethodGet, "/v1/cluster/status"},
	} {
		req, err := http.NewRequest(r.method, ts.URL+r.path, strings.NewReader(`{"op":"open","job":"j"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		name := r.method + " " + r.path
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: got %d (%s), want 404", name, resp.StatusCode, raw)
		}
		wantEnvelope(t, name, raw, "not_found")
	}
}
