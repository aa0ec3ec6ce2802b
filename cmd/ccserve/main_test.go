package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cmdtest"
)

func TestCCServeFlagErrors(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-cache DIR is required"},
		{[]string{"-cache", t.TempDir(), "-jobs", "0"}, "-jobs must be >= 1"},
		{[]string{"-cache", t.TempDir(), "positional"}, "unexpected arguments"},
	} {
		out, code := cmdtest.Run(t, bin, time.Minute, tc.args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2:\n%s", tc.args, code, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("%v: missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestCCServeBootSmoke drives the real binary the way the CI smoke
// does: boot on an ephemeral port, probe /healthz, submit the same job
// twice, assert the second submission is a cache hit with a
// byte-identical verdict body, then shut down cleanly on SIGTERM.
func TestCCServeBootSmoke(t *testing.T) {
	cmd, base := startServer(t, "-cache", t.TempDir(), "-jobs", "1")

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"ok": true`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	id, res1 := runJob(t, base)
	code, second := postJob(t, base)
	if code != 200 || !strings.Contains(second, `"cached": true`) {
		t.Fatalf("second submission not a cache hit: %d %s", code, second)
	}
	_, res2 := jobResult(t, base, id)
	if !bytes.Equal(res1, res2) {
		t.Fatal("verdict bodies differ between submissions")
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server did not exit cleanly: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
}

// TestCCServeLogCacheSingleWriter: while a ccserve -store-engine log
// holds its cache, cccheck on the same -cache exits 4 with a message
// naming the lock, rather than a second process writing the segments;
// once the server is gone the cache opens and serves its verdict.
func TestCCServeLogCacheSingleWriter(t *testing.T) {
	cccheck := cmdtest.Build(t, "../cccheck")
	cache := t.TempDir()
	srv, base := startServer(t, "-cache", cache, "-store-engine", "log", "-jobs", "1")
	runJob(t, base) // a written segment makes the cache detectably log-layout

	out, code := cmdtest.Run(t, cccheck, time.Minute, "-mode", "query", "-cache", cache)
	lock := filepath.Join(cache, "LOCK")
	if code != 4 || !strings.Contains(out, lock) || !strings.Contains(out, "another process holds this log cache") {
		t.Fatalf("cccheck on a held log cache: exit %d, want 4 naming %s:\n%s", code, lock, out)
	}

	srv.Process.Kill()
	srv.Wait()
	out, code = cmdtest.Run(t, cccheck, time.Minute, "-mode", "query", "-cache", cache)
	if code != 0 || !strings.Contains(out, `"count": 1`) {
		t.Fatalf("cccheck after the server exited: exit %d:\n%s", code, out)
	}
}

// startServer boots ccserve on an ephemeral port with the given flags
// and returns the process and its base URL; the process is killed when
// the test ends (a test that needs it gone sooner waits on it itself).
func startServer(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	bin := cmdtest.Build(t, ".")
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// The first log line announces the resolved address.
	var addr string
	sc := bufio.NewScanner(stderr)
	re := regexp.MustCompile(`listening on (\S+)`)
	for sc.Scan() {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatal("server never announced its address")
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained
	return cmd, "http://" + addr
}

const smokeSpec = `{"alg":"cc2","topo":"ring:3","daemon":"central","init":"legit"}`

// postJob submits smokeSpec and returns the status code and body.
func postJob(t *testing.T, base string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func jobResult(t *testing.T, base, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// runJob submits smokeSpec and waits for its verdict body.
func runJob(t *testing.T, base string) (string, []byte) {
	t.Helper()
	_, first := postJob(t, base)
	id := regexp.MustCompile(`"id": "([0-9a-f]+)"`).FindStringSubmatch(first)
	if id == nil {
		t.Fatalf("no job id in %s", first)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		code, raw := jobResult(t, base, id[1])
		if code == 200 {
			return id[1], raw
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %d %s", code, raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
