package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/explore"
	"repro/internal/store"
)

// smallCells is the table of cheap exhaustive cells the two serving
// workloads draw their specs from: 10–70 ms single-worker each, every
// state space well under the max_states values used, so an offset in
// max_states makes a distinct content key without changing the work or
// the verdict. Five cells, so that with a balanced schedule the median
// job falls inside one cell's latency distribution, not between two.
var smallCells = []store.JobSpec{
	{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc"},
	{Alg: "cc2", Topo: "ring:3", Daemon: "all-subsets", Init: "cc"},
	{Alg: "cc1", Topo: "ring:3", Daemon: "central", Init: "cc-full"},
	{Alg: "cc1", Topo: "star:4", Daemon: "central", Init: "cc"},
	{Alg: "cc3", Topo: "ring:3", Daemon: "central", Init: "cc"},
}

// cellSpec is cell c made unique by n.
func cellSpec(c, n int) store.JobSpec {
	s := smallCells[c]
	s.MaxStates = 100_001 + n
	return s.Canonical()
}

// spanHeader carries the client's operation span to the server-side
// middleware, so handler spans name the request that caused them.
const spanHeader = "X-Bench-Span"

// route names the API route of a request for span and metric names.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/gossip/"):
		return "gossip"
	case p == "/v1/jobs":
		return "submit"
	case p == "/v1/verdicts":
		return "list_verdicts"
	case strings.HasSuffix(p, "/result"):
		return "get_result"
	case strings.HasSuffix(p, "/watch"):
		return "watch"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "get_job"
	}
	return "other"
}

// traceSwitch holds the tracer the decorators record into; nil while
// the untraced third of a traced run is being measured.
type traceSwitch struct{ p atomic.Pointer[tracer] }

func (s *traceSwitch) get() *tracer { return s.p.Load() }

// tracedHandler is the middleware around Server.ServeHTTP: one span
// per request, keyed by route, child of the client's operation span.
func tracedHandler(sw *traceSwitch, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := sw.get()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, op := int32(-1), int64(-1)
		if h := r.Header.Get(spanHeader); h != "" {
			if n, err := strconv.ParseInt(h, 10, 32); err == nil {
				parent, op = int32(n), n
			}
		}
		id := tr.begin("serve."+route(r), parent, op)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// tracedStore times the store calls the serving tier makes. The store
// interface carries no context, so from outside these spans cannot be
// tied to the request that caused them (parent -1); they attribute
// time to the layer, and the hooks give the fleet workload its phase
// boundaries: Checkpoint(key) is the first thing a job does when it
// leaves the queue, Put's return is the moment a verdict is committed.
// The hooks fire only while a tracer is installed.
type tracedStore struct {
	store.Interface
	sw           *traceSwitch
	onCheckpoint func(key string, at time.Time)
	onPut        func(key string, at time.Time)
}

func (s *tracedStore) Get(spec store.JobSpec) (*explore.Result, []byte, bool) {
	tr := s.sw.get()
	defer tr.end(tr.begin("store.get", -1, -1))
	return s.Interface.Get(spec)
}

func (s *tracedStore) GetByKey(key string) (store.JobSpec, *explore.Result, []byte, bool) {
	tr := s.sw.get()
	defer tr.end(tr.begin("store.getbykey", -1, -1))
	return s.Interface.GetByKey(key)
}

func (s *tracedStore) Put(spec store.JobSpec, res *explore.Result) ([]byte, error) {
	tr := s.sw.get()
	id := tr.begin("store.put", -1, -1)
	raw, err := s.Interface.Put(spec, res)
	tr.end(id)
	if tr != nil && s.onPut != nil && err == nil {
		s.onPut(spec.Key(), time.Now())
	}
	return raw, err
}

func (s *tracedStore) Scan(fn func(key string, spec store.JobSpec, result []byte) error) error {
	tr := s.sw.get()
	defer tr.end(tr.begin("store.scan", -1, -1))
	return s.Interface.Scan(fn)
}

func (s *tracedStore) Checkpoint(key string) *store.Checkpoint {
	if s.onCheckpoint != nil && s.sw.get() != nil {
		s.onCheckpoint(key, time.Now())
	}
	return s.Interface.Checkpoint(key)
}

// scrapeMetrics reads the named gauges and counters from /metrics.
func scrapeMetrics(client *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for _, want := range names {
			if name == want {
				if out[name], err = strconv.ParseFloat(val, 64); err != nil {
					return nil, fmt.Errorf("metric %s: %w", name, err)
				}
			}
		}
	}
	return out, sc.Err()
}

// loopClient is one closed-loop client: next draws its next operation
// from the seeded schedule (outside the latency) and returns its kind,
// do issues it and checks the answer (the latency).
type loopClient interface {
	next() (kind uint8)
	do(tr *tracer) error
}

// sample is one closed-loop operation as the client saw it; times are
// nanoseconds, the start counted from the region's start.
type sample struct {
	start, latency int64
	kind           uint8
}

// closedLoop runs the clients concurrently, each issuing its next
// operation as soon as the previous one is answered and checked, until
// `seconds` have passed (or, when maxOps > 0, for exactly that many
// operations each). Each client's sample log is preallocated for
// `hint` operations, and the clock is read only where a sample needs
// it: no sleeps, no tickers.
//
// The throughput is taken block-wise: the operations, in completion
// order, are cut into one block per second of the region, all blocks
// the same number of operations, and the rate is that number over the
// median block's duration — a burst of interference that slows a few
// blocks does not move it. A region too short for three blocks reports
// operations over wall. The lag is the longest pause between one
// operation's end and the same client's next start.
func closedLoop(tr *tracer, clients []loopClient, seconds float64, maxOps, hint int) runResult {
	logs := make([][]sample, len(clients))
	failed := make([]int, len(clients))
	self := make([]int64, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := make([]sample, 0, max(maxOps, hint))
			for i := 0; ; i++ {
				t0 := time.Now()
				if maxOps > 0 && i >= maxOps || maxOps == 0 && !t0.Before(deadline) {
					break
				}
				kind := cl.next()
				t1 := time.Now()
				err := cl.do(tr)
				lat := time.Since(t1)
				if err != nil {
					failed[c]++
					fmt.Fprintf(os.Stderr, "bench: client %d operation %d: %v\n", c, i, err)
				}
				log = append(log, sample{start: int64(t1.Sub(start)), latency: int64(lat), kind: kind})
				self[c] += int64(time.Since(t0) - lat)
			}
			logs[c] = log
		}()
	}
	wg.Wait()
	res := runResult{wall: time.Since(start)}
	var ends []int64
	for c, log := range logs {
		res.failed += failed[c]
		res.selfNs += self[c]
		for i, s := range log {
			res.latencies = append(res.latencies, s.latency)
			ends = append(ends, s.start+s.latency)
			if i > 0 {
				res.lagNs = max(res.lagNs, s.start-(log[i-1].start+log[i-1].latency))
			}
		}
	}
	res.attempted = len(ends)
	res.unitsPerS = float64(res.attempted-res.failed) / res.wall.Seconds()
	if blocks := int(res.wall / time.Second); blocks >= 3 && len(ends) >= 3*blocks {
		slices.Sort(ends)
		per := len(ends) / blocks
		durs := make([]float64, blocks)
		prev := int64(0)
		for b := range durs {
			end := ends[(b+1)*per-1]
			durs[b] = float64(end - prev)
			prev = end
		}
		res.unitsPerS = float64(per) / (median(durs) / 1e9)
	}
	return res
}
