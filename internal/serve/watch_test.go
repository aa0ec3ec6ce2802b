package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/pubsub"
	"repro/internal/serve"
	"repro/internal/store"
)

// watchStream opens an SSE watch and decodes events until the first
// terminal event (verdict/failed/done), the stream ending, or the
// timeout. It returns every event seen, terminal last when one
// arrived.
func watchStream(t *testing.T, url string, lastEventID uint64, timeout time.Duration) []pubsub.Event {
	t.Helper()
	status, evs, err := openWatch(http.DefaultClient, url, lastEventID, timeout)
	if status == 0 {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("watch %s: status %d", url, status)
	}
	return evs
}

// openWatch is the t-free core of watchStream, for client goroutines
// that may not t.Fatal. Status 0 means no usable stream was opened and
// err says why; a status other than 200 means the server refused the
// watch. On a 200 it returns the events seen, and err is nil exactly
// when the last one is terminal — otherwise it is what ended the
// stream: io.EOF when the server closed it (eviction; resume with the
// watermark), the context's deadline when the timeout cut it.
func openWatch(cl *http.Client, url string, lastEventID uint64, timeout time.Duration) (status int, evs []pubsub.Event, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastEventID))
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) // let the connection be reused
		return resp.StatusCode, nil, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return 0, nil, fmt.Errorf("watch %s: content-type %q", url, ct)
	}
	dec := pubsub.NewDecoder(resp.Body)
	for {
		ev, err := dec.Next()
		if err != nil {
			return resp.StatusCode, evs, err
		}
		evs = append(evs, ev)
		if pubsub.IsTerminal(ev.Type) {
			return resp.StatusCode, evs, nil
		}
	}
}

func terminalOf(t *testing.T, evs []pubsub.Event) pubsub.Event {
	t.Helper()
	if len(evs) == 0 || !pubsub.IsTerminal(evs[len(evs)-1].Type) {
		t.Fatalf("no terminal event in stream: %+v", evs)
	}
	return evs[len(evs)-1]
}

// TestWatchJobStream: submit a job and watch it to completion over
// SSE. Whether the watcher arrives before the verdict (live event) or
// after (synthesized event), exactly one terminal frame ends the
// stream and it carries the same view a GET would.
func TestWatchJobStream(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	_, v, _ := postJSON(t, ts.URL+"/v1/jobs", jobSpec("cc1", "central"))
	id, _ := v["id"].(string)

	evs := watchStream(t, ts.URL+"/v1/jobs/"+id+"/watch", 0, 30*time.Second)
	term := terminalOf(t, evs)
	if term.Type != pubsub.TypeVerdict {
		t.Fatalf("terminal type %q, want %q", term.Type, pubsub.TypeVerdict)
	}
	var jv map[string]any
	if err := json.Unmarshal(term.Data, &jv); err != nil {
		t.Fatal(err)
	}
	if jv["id"] != id || jv["status"] != serve.StatusDone || jv["verdict"] != "verified" {
		t.Fatalf("terminal payload: %s", term.Data)
	}
	// Any non-terminal frames must be progress events for this job.
	for _, ev := range evs[:len(evs)-1] {
		if ev.Type != pubsub.TypeProgress {
			t.Fatalf("unexpected %q event before the terminal", ev.Type)
		}
	}
	// The poll plane agrees with the push plane.
	if final := waitDone(t, ts.URL, id); final["verdict"] != jv["verdict"] {
		t.Fatalf("watch verdict %v != poll verdict %v", jv["verdict"], final["verdict"])
	}
}

// TestWatchAlreadyDone: a watcher arriving after the job is terminal —
// including one resuming past the end of the ring — gets the
// synthesized terminal immediately instead of hanging.
func TestWatchAlreadyDone(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	_, v, _ := postJSON(t, ts.URL+"/v1/jobs", jobSpec("cc2", "central"))
	id, _ := v["id"].(string)
	waitDone(t, ts.URL, id)

	for _, after := range []uint64{0, 1 << 60} {
		done := make(chan []pubsub.Event, 1)
		go func() { done <- watchStream(t, ts.URL+"/v1/jobs/"+id+"/watch", after, 10*time.Second) }()
		select {
		case evs := <-done:
			term := terminalOf(t, evs)
			if term.Type != pubsub.TypeVerdict {
				t.Fatalf("after=%d: terminal type %q", after, term.Type)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("after=%d: watch of a finished job hung", after)
		}
	}
}

// TestWatchHydratedJob: watching a job whose in-memory record was
// evicted (RetainJobs pressure) re-hydrates the verdict from the store
// and synthesizes the terminal — eviction never strands a watcher.
func TestWatchHydratedJob(t *testing.T) {
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

	_, v, _ := postJSON(t, ts.URL+"/v1/jobs", jobSpec("cc1", "central"))
	first, _ := v["id"].(string)
	waitDone(t, ts.URL, first)
	// A second finished job evicts the first (RetainJobs: 1).
	_, v, _ = postJSON(t, ts.URL+"/v1/jobs", jobSpec("cc1", "synchronous"))
	second, _ := v["id"].(string)
	waitDone(t, ts.URL, second)

	// Resume past the ring so the replay cannot answer: the synthesizer
	// must reach for the store-hydrated record.
	evs := watchStream(t, ts.URL+"/v1/jobs/"+first+"/watch", 1<<60, 10*time.Second)
	term := terminalOf(t, evs)
	var jv map[string]any
	json.Unmarshal(term.Data, &jv)
	if jv["id"] != first || jv["cached"] != true {
		t.Fatalf("hydrated terminal payload: %s", term.Data)
	}
}

func TestWatchUnknown404(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	for _, path := range []string{"/v1/jobs/nope/watch", "/v1/campaigns/nope/watch"} {
		code, raw := get(t, ts.URL+path)
		if code != http.StatusNotFound {
			t.Fatalf("%s: status %d, body %s", path, code, raw)
		}
	}
}

// TestWatchCampaignStream: a campaign watch delivers one cell event
// per cell and a final done event — for a fresh grid and again for an
// all-cache-hits resubmission (where every event comes from the
// registration sweep via ring replay).
func TestWatchCampaignStream(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	grid := map[string]any{
		"algs": []string{"cc1", "cc2"}, "topos": []string{"ring:3"},
		"daemons": []string{"central"}, "inits": []string{"legit"},
	}
	for round, name := range []string{"fresh", "resubmitted"} {
		_, v, _ := postJSON(t, ts.URL+"/v1/campaigns", grid)
		id, _ := v["id"].(string)
		if id == "" {
			t.Fatalf("round %d: no campaign id: %v", round, v)
		}

		evs := watchStream(t, ts.URL+"/v1/campaigns/"+id+"/watch", 0, 30*time.Second)
		term := terminalOf(t, evs)
		if term.Type != pubsub.TypeDone {
			t.Fatalf("%s: terminal type %q, want done", name, term.Type)
		}
		var dv map[string]any
		json.Unmarshal(term.Data, &dv)
		if dv["cells"] != 2.0 {
			t.Fatalf("%s: done event cells = %v, want 2: %s", name, dv["cells"], term.Data)
		}
		cells := map[string]bool{}
		for _, ev := range evs[:len(evs)-1] {
			if ev.Type != pubsub.TypeCell {
				t.Fatalf("%s: unexpected %q event", name, ev.Type)
			}
			var cv map[string]any
			json.Unmarshal(ev.Data, &cv)
			cells[cv["cell"].(string)] = true
		}
		// The fresh round must narrate every cell: the registration sweep
		// plus ring replay covers cells that finished before the watch
		// opened. The resubmitted round's topic may already be retired
		// (all cells were cache hits, the first watcher consumed the
		// done) — then the synthesized done above is the whole story.
		if round == 0 && len(cells) != 2 {
			t.Fatalf("%s: saw %d distinct cell events, want 2: %+v", name, len(cells), evs)
		}
	}
}

// TestWatchResumeWatermark: reconnecting with Last-Event-ID at the
// stream's high watermark replays nothing old — the synthesized
// terminal (Seq 0, watermark untouched) is the only frame.
func TestWatchResumeWatermark(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	grid := map[string]any{"algs": []string{"cc1"}, "topos": []string{"ring:3"},
		"daemons": []string{"central", "synchronous"}, "inits": []string{"legit"}}
	_, v, _ := postJSON(t, ts.URL+"/v1/campaigns", grid)
	id, _ := v["id"].(string)

	evs := watchStream(t, ts.URL+"/v1/campaigns/"+id+"/watch", 0, 30*time.Second)
	var hi uint64
	for _, ev := range evs {
		if ev.Seq > hi {
			hi = ev.Seq
		}
	}
	if hi == 0 {
		t.Fatalf("no sequenced events in first watch: %+v", evs)
	}
	resumed := watchStream(t, ts.URL+"/v1/campaigns/"+id+"/watch", hi, 10*time.Second)
	for _, ev := range resumed {
		if ev.Seq != 0 && ev.Seq <= hi {
			t.Fatalf("resume at %d replayed old event %+v", hi, ev)
		}
	}
	if term := terminalOf(t, resumed); term.Seq != 0 {
		t.Fatalf("resumed terminal should be synthesized (Seq 0), got Seq %d", term.Seq)
	}
}

// TestWatchNoDroppedTerminals is the in-process zero-drop gate: many
// watchers per job, opened while the jobs race to completion, and
// every single one must receive exactly one terminal event.
func TestWatchNoDroppedTerminals(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	const jobs, watchersPer = 8, 4
	ids := make([]string, jobs)
	for i := range ids {
		spec := jobSpec("cc1", "central")
		spec.MaxStates = 5_000 + i // distinct content keys
		_, v, _ := postJSON(t, ts.URL+"/v1/jobs", spec)
		ids[i], _ = v["id"].(string)
	}

	var wg sync.WaitGroup
	terminals := make([]int, jobs*watchersPer)
	for i, id := range ids {
		for w := 0; w < watchersPer; w++ {
			wg.Add(1)
			go func(slot int, id string) {
				defer wg.Done()
				evs := watchStream(t, ts.URL+"/v1/jobs/"+id+"/watch", 0, 60*time.Second)
				for _, ev := range evs {
					if pubsub.IsTerminal(ev.Type) {
						terminals[slot]++
					}
				}
			}(i*watchersPer+w, id)
		}
	}
	wg.Wait()
	for slot, n := range terminals {
		if n != 1 {
			t.Fatalf("watcher %d saw %d terminal events, want exactly 1", slot, n)
		}
	}
	if metric(t, ts, "ccserve_watch_evictions_total") != 0 {
		t.Fatal("watchers were evicted during the zero-drop battery")
	}
}

// TestJobErrorClassSurfaced pins the poll-era gap: a job failing on
// classified I/O (a permanent spill-write fault) must expose the error
// class through GET /v1/jobs/{id} and the failed watch event, not just
// a free-text message.
func TestJobErrorClassSurfaced(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ffs := chaos.NewFaultFS(nil, chaos.Faults{WriteErr: 1, Permanent: 1})
	s, err := serve.New(serve.Config{
		Store: st, Jobs: 1, JobWorkers: 1, CheckpointEvery: -1,
		MemBudget: 1 << 12, SpillDir: t.TempDir(), FS: ffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	_, v, _ := postJSON(t, ts.URL+"/v1/jobs", jobSpec("cc2", "central"))
	id, _ := v["id"].(string)
	final := waitDone(t, ts.URL, id)
	if final["status"] != serve.StatusFailed {
		t.Fatalf("spill under a permanent write fault must fail the job: %v", final)
	}
	if final["error_class"] != "permanent" {
		t.Fatalf("error_class = %v, want %q (error: %v)", final["error_class"], "permanent", final["error"])
	}

	// The push plane carries the same classification.
	term := terminalOf(t, watchStream(t, ts.URL+"/v1/jobs/"+id+"/watch", 0, 10*time.Second))
	if term.Type != pubsub.TypeFailed {
		t.Fatalf("terminal type %q, want failed", term.Type)
	}
	var jv map[string]any
	json.Unmarshal(term.Data, &jv)
	if jv["error_class"] != "permanent" {
		t.Fatalf("watch terminal error_class = %v: %s", jv["error_class"], term.Data)
	}
}

// TestWatchMetrics: the push plane and the latency histogram are
// observable — stream/topic gauges return to zero, publishes count,
// and every API request lands in ccserve_http_request_seconds.
func TestWatchMetrics(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	_, v, _ := postJSON(t, ts.URL+"/v1/jobs", jobSpec("cc1", "central"))
	id, _ := v["id"].(string)
	watchStream(t, ts.URL+"/v1/jobs/"+id+"/watch", 0, 30*time.Second)

	if metric(t, ts, "ccserve_watch_streams") != 0 {
		t.Fatal("watch stream gauge did not return to zero")
	}
	if metric(t, ts, "ccserve_events_published_total") < 1 {
		t.Fatal("no events counted as published")
	}
	if metric(t, ts, "ccserve_http_request_seconds_count") < 1 {
		t.Fatal("latency histogram observed no requests")
	}
	if metric(t, ts, "ccserve_http_request_seconds_sum") <= 0 {
		t.Fatal("latency histogram sum is zero")
	}
	_, raw := get(t, ts.URL+"/metrics")
	body := string(raw)
	for _, le := range []string{`le="0.001"`, `le="1"`, `le="+Inf"`} {
		if !strings.Contains(body, "ccserve_http_request_seconds_bucket{"+le+"}") {
			t.Fatalf("histogram bucket %s missing from /metrics:\n%s", le, body)
		}
	}
}

// TestUnwatchedTerminalsRetireTopics: a job nobody watches leaves no
// topic behind once it is terminal — its replay ring would otherwise
// stay resident until the broker's topic cap pushed it out. A watcher
// arriving afterwards, with or without a Last-Event-ID, still gets
// exactly one terminal event, and its own topic is gone once it leaves.
func TestUnwatchedTerminalsRetireTopics(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	const jobs = 6
	ids := make([]string, jobs)
	for i := range ids {
		spec := jobSpec("cc1", "central")
		spec.MaxStates = 3_000 + i // distinct content keys
		_, v, _ := postJSON(t, ts.URL+"/v1/jobs", spec)
		ids[i], _ = v["id"].(string)
	}
	for _, id := range ids {
		waitDone(t, ts.URL, id)
	}
	if n := metric(t, ts, "ccserve_watch_topics"); n != 0 {
		t.Fatalf("%d topics retained after %d unwatched jobs finished, want 0", int(n), jobs)
	}
	for _, after := range []uint64{0, 1} {
		// Read to the end of the stream, not to the first terminal: a
		// second terminal would follow the first.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+ids[0]+"/watch", nil)
		if after > 0 {
			req.Header.Set("Last-Event-ID", fmt.Sprint(after))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		terminals := 0
		dec := pubsub.NewDecoder(resp.Body)
		for {
			ev, err := dec.Next()
			if err != nil {
				break
			}
			if pubsub.IsTerminal(ev.Type) {
				terminals++
			}
		}
		resp.Body.Close()
		cancel()
		if terminals != 1 {
			t.Fatalf("Last-Event-ID %d: %d terminal events, want exactly 1", after, terminals)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, ts, "ccserve_watch_topics") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("a late watcher's topic outlived it")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
