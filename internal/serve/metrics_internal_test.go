package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/store"
)

// metricsGolden holds the ordered /metrics series names of a server with
// a gossip node configured (so the conditional gossip rows are present),
// values stripped. It pins the exposition: bench/ and operators scrape
// these names, so a series may not move, vanish or change its name
// without this file changing with it.
const metricsGolden = "testdata/metrics_series.txt"

// newGossipServer is a server over a fresh dir store with a gossip node
// that has no neighbors and no background loop.
func newGossipServer(t *testing.T) *Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	node := gossip.New(gossip.Config{Self: "http://self.invalid", Store: st, Interval: -1})
	t.Cleanup(node.Close)
	s, err := New(Config{Store: st, Jobs: 1, JobWorkers: 1, Gossip: node})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seriesNames strips the value off every exposition line.
func seriesNames(t *testing.T, body string) []string {
	t.Helper()
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("exposition line %q has no value", line)
		}
		names = append(names, line[:i])
	}
	return names
}

func goldenSeries(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// TestMetricsSeriesGolden: /metrics lists exactly the golden's series,
// in the golden's order.
func TestMetricsSeriesGolden(t *testing.T) {
	s := newGossipServer(t)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", w.Code, w.Body)
	}
	got, want := seriesNames(t, w.Body.String()), goldenSeries(t)
	if !slices.Equal(got, want) {
		t.Fatalf("/metrics series moved:\ngot  %q\nwant %q", got, want)
	}
}

// TestObservabilityWithoutServerLock: /metrics and /readyz answer while
// another goroutine holds s.mu — a job-table section stuck behind a slow
// handler does not blind the operator.
func TestObservabilityWithoutServerLock(t *testing.T) {
	s := newGossipServer(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, path := range []string{"/metrics", "/readyz"} {
		done := make(chan int, 1)
		go func() {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			done <- w.Code
		}()
		select {
		case code := <-done:
			if code != http.StatusOK {
				t.Fatalf("%s: %d", path, code)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s blocked on the job-table lock", path)
		}
	}
}

// TestAPIDocListsEverySeries: docs/api.md names every series /metrics
// exposes, and nothing else under the ccserve_ prefix.
func TestAPIDocListsEverySeries(t *testing.T) {
	doc, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	set := func(names []string) []string {
		slices.Sort(names)
		return slices.Compact(names)
	}
	documented := set(regexp.MustCompile(`ccserve_[a-z0-9_]*[a-z0-9]`).FindAllString(string(doc), -1))
	var exposed []string
	for _, name := range goldenSeries(t) {
		name, _, _ = strings.Cut(name, "{")
		exposed = append(exposed, name)
	}
	exposed = set(exposed)
	if !slices.Equal(documented, exposed) {
		t.Fatalf("docs/api.md series differ from /metrics:\ndocumented %q\nexposed    %q", documented, exposed)
	}
}
