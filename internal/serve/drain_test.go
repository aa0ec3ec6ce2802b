package serve_test

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// TestDrainCheckpointsAndResumes: shutting a server down mid-job
// persists a snapshot under the job's content key; a fresh server over
// the same store resumes the job on resubmission and serves the same
// verdict an uninterrupted server would.
func TestDrainCheckpointsAndResumes(t *testing.T) {
	dir := t.TempDir()
	spec := map[string]any{
		"alg": "token-ring", "topo": "ring:6", "daemon": "central", "max_states": 60_000,
	}
	key := store.JobSpec{Alg: "token-ring", Topo: "ring:6", Daemon: "central", MaxStates: 60_000}.Key()
	ckptPath := filepath.Join(dir, "checkpoints", key[:2], key+".ckpt")

	newSrv := func() (*serve.Server, *httptest.Server) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.New(serve.Config{Store: st, Jobs: 1, JobWorkers: 2, CheckpointEvery: 2000})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)
		return s, ts
	}

	s1, ts1 := newSrv()
	code, v, _ := postJSON(t, ts1.URL+"/v1/jobs", spec)
	if code != 202 {
		t.Fatalf("submit: %d %v", code, v)
	}
	// Wait for the first snapshot, then drain: the running job must
	// notice, checkpoint, and stop.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if _, err := os.Stat(ckptPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !s1.Drain(time.Minute) {
		t.Fatal("drain timed out")
	}
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("checkpoint missing after drain: %v", err)
	}
	if m := metric(t, ts1, "ccserve_jobs_interrupted_total"); m != 1 {
		t.Fatalf("interrupted metric = %v, want 1", m)
	}

	// A fresh process over the same store resumes and completes.
	_, ts2 := newSrv()
	code, v, _ = postJSON(t, ts2.URL+"/v1/jobs", spec)
	if code != 202 {
		t.Fatalf("resubmit: %d %v", code, v)
	}
	id := v["id"].(string)
	var status string
	for time.Now().Before(deadline) {
		_, body := get(t, ts2.URL+"/v1/jobs/"+id)
		var jv map[string]any
		json.Unmarshal(body, &jv)
		status, _ = jv["status"].(string)
		if status == "done" || status == "failed" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status != "done" {
		t.Fatalf("resumed job status %q", status)
	}
	if m := metric(t, ts2, "ccserve_jobs_resumed_total"); m != 1 {
		t.Fatalf("resumed metric = %v, want 1", m)
	}
	if m := metric(t, ts2, "ccserve_states_resumed_total"); m <= 0 {
		t.Fatalf("states_resumed metric = %v, want > 0", m)
	}
	// The verdict matches an uninterrupted run (separate store) and the
	// snapshot is gone.
	_, body := get(t, ts2.URL+"/v1/jobs/"+id+"/result")
	// Restored states are counted as resumed, never again as explored:
	// together the two cover the result exactly once.
	var res struct{ States int }
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	explored := metric(t, ts2, "ccserve_states_explored_total")
	resumed := metric(t, ts2, "ccserve_states_resumed_total")
	if explored+resumed != float64(res.States) {
		t.Fatalf("states explored %v + resumed %v != the result's %d states", explored, resumed, res.States)
	}
	cleanDir := t.TempDir()
	stClean, err := store.Open(cleanDir)
	if err != nil {
		t.Fatal(err)
	}
	sClean, err := serve.New(serve.Config{Store: stClean, Jobs: 1, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tsClean := httptest.NewServer(sClean)
	t.Cleanup(tsClean.Close)
	postJSON(t, tsClean.URL+"/v1/jobs", spec)
	var cleanBody []byte
	for time.Now().Before(deadline) {
		_, b := get(t, tsClean.URL+"/v1/jobs/"+id)
		var jv map[string]any
		json.Unmarshal(b, &jv)
		if st, _ := jv["status"].(string); st == "done" {
			_, cleanBody = get(t, tsClean.URL+"/v1/jobs/"+id+"/result")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if string(cleanBody) == "" {
		t.Fatal("clean run never finished")
	}
	if string(body) != string(cleanBody) {
		t.Fatalf("resumed verdict differs from clean run:\n%s\nvs\n%s", body, cleanBody)
	}
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survives completion: %v", err)
	}
	if !strings.EqualFold(id, key) {
		t.Fatalf("job id %s != expected key %s", id, key)
	}
}
