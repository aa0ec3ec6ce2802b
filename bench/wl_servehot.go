package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/serve"
	"repro/internal/store"
)

// serve-hot: one in-process server over a log store populated in
// set-up (then closed and reopened, so the index rebuild is part of
// setup_s). Two keep-alive clients run a closed loop over a seeded
// stream of requests; every verdict is already stored, so no request
// explores anything. The working set (hotEntries) is several times
// RetainJobs: hot ids are served from the in-memory job table, the
// Zipf tail re-hydrates through GetByKey.
const (
	hotEntries   = 4096
	hotRetain    = 1024
	hotWarmUp    = 3000  // requests per client before the timed region
	hotListEvery = 20000 // one full-scan list per this many requests per client
	hotZipfS     = 1.1
	hotClients   = 2
	hotOpsPerS   = 30000 // per client: sizes the preallocated sample log
)

// Request kinds. A list is a full store scan — thousands of point
// reads' worth — so it is scheduled by count, not by probability.
const (
	kindSubmit = iota
	kindGetJob
	kindGetResult
	kindList
	numKinds
)

var kindNames = [numKinds]string{"submit", "get_job", "get_result", "list_verdicts"}

type serveHotInst struct {
	e   *env
	dir string
	st  store.Interface
	sv  *serve.Server
	ts  *httptest.Server
	sw  traceSwitch
	cli [hotClients]*http.Client

	keys    []string // content key of entry i
	bodies  [][]byte // POST body of entry i
	cellOf  []uint8  // which small cell entry i is
	results [][]byte // result bytes Put returned, per cell
	perm    []int    // Zipf rank → entry
	listN   int      // entries the list filter matches

	epoch int // bumps per timed region so each draws a fresh stretch of the schedule
}

func setupServeHot(e *env) (instance, error) {
	s := &serveHotInst{e: e}
	n := e.scaled(hotEntries)
	dir, err := e.mkdir("store")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	st, err := store.OpenLog(dir)
	if err != nil {
		return nil, err
	}
	// One real exploration per cell; every entry of that cell stores the
	// cell's result under a spec of its own, and must get the same bytes.
	cellRes := make([]*explore.Result, len(smallCells))
	s.results = make([][]byte, len(smallCells))
	for i := 0; i < n; i++ {
		c := i % len(smallCells)
		spec := cellSpec(c, i)
		if cellRes[c] == nil {
			if cellRes[c], err = campaign.Execute(spec, 1); err != nil {
				st.Close()
				return nil, err
			}
		}
		raw, err := st.Put(spec, cellRes[c])
		if err != nil {
			st.Close()
			return nil, err
		}
		if s.results[c] == nil {
			s.results[c] = raw
		} else if !bytes.Equal(raw, s.results[c]) {
			st.Close()
			return nil, fmt.Errorf("populate: entry %d stored different bytes than its cell", i)
		}
		body, err := json.Marshal(spec)
		if err != nil {
			st.Close()
			return nil, err
		}
		s.keys = append(s.keys, spec.Key())
		s.bodies = append(s.bodies, body)
		s.cellOf = append(s.cellOf, uint8(c))
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	if st, err = store.OpenLog(dir); err != nil { // index rebuild
		return nil, err
	}
	if st.Len() != n {
		st.Close()
		return nil, fmt.Errorf("reopened store holds %d entries, want %d", st.Len(), n)
	}
	s.st = st
	var cfgStore store.Interface = st
	if e.traced {
		cfgStore = &tracedStore{Interface: st, sw: &s.sw}
	}
	sv, err := serve.New(serve.Config{Store: cfgStore, Jobs: 2, JobWorkers: 1, RetainJobs: hotRetain})
	if err != nil {
		st.Close()
		return nil, err
	}
	s.sv = sv
	var h http.Handler = sv
	if e.traced {
		h = tracedHandler(&s.sw, sv)
	}
	s.ts = httptest.NewServer(h)
	for i := range s.cli {
		s.cli[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	s.perm = rand.New(rand.NewSource(e.seed)).Perm(n)
	for _, c := range s.cellOf {
		if smallCells[c].Alg == "cc1" {
			s.listN++
		}
	}
	// Warm-up: the same loop, a fixed number of requests, unrecorded.
	if res := s.loop(nil, 0, e.scaled(hotWarmUp)); res.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", res.failed, res.attempted)
	}
	return s, nil
}

func (s *serveHotInst) run(tr *tracer, seconds float64, _ int) (runResult, error) {
	s.sw.p.Store(tr)
	defer s.sw.p.Store(nil)
	return s.loop(tr, seconds, 0), nil
}

// loop runs the closed loop over fresh stretches of the schedule.
func (s *serveHotInst) loop(tr *tracer, seconds float64, maxOps int) runResult {
	s.epoch++
	clients := make([]loopClient, hotClients)
	for c := range clients {
		clients[c] = &hotClient{s: s, cli: s.cli[c], stream: newHotStream(s.e.seed, s.epoch, c, s.perm)}
	}
	return closedLoop(tr, clients, seconds, maxOps, int(seconds*hotOpsPerS))
}

// hotClient is one keep-alive client and its schedule.
type hotClient struct {
	s           *serveHotInst
	cli         *http.Client
	stream      *hotStream
	buf         bytes.Buffer
	kind, entry int
}

func (c *hotClient) next() uint8 {
	c.kind, c.entry = c.stream.next()
	return uint8(c.kind)
}

func (c *hotClient) do(tr *tracer) error {
	op := tr.begin("bench.op", -1, -1)
	defer tr.end(op)
	if err := c.s.do(c.cli, &c.buf, c.kind, c.entry, op); err != nil {
		return fmt.Errorf("%s entry %d: %w", kindNames[c.kind], c.entry, err)
	}
	return nil
}

// streamSeed derives the seed of one client's schedule in one timed
// region from the run's seed.
func streamSeed(seed int64, epoch, client int) int64 {
	return seed*1_000_003 + int64(epoch)*101 + int64(client)
}

// hotStream is one client's seeded request schedule.
type hotStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int // Zipf rank → entry
	i    int
}

func newHotStream(seed int64, epoch, client int, perm []int) *hotStream {
	rng := rand.New(rand.NewSource(streamSeed(seed, epoch, client)))
	return &hotStream{rng: rng, zipf: rand.NewZipf(rng, hotZipfS, 1, uint64(len(perm)-1)), perm: perm}
}

// next draws the client's next request: 45% submits of a stored spec,
// 35% status reads and 20% result reads of a Zipf-ranked id, and a
// list every hotListEvery requests.
func (h *hotStream) next() (kind, entry int) {
	h.i++
	entry = h.perm[h.zipf.Uint64()]
	if h.i%hotListEvery == hotListEvery/2 {
		return kindList, entry
	}
	switch p := h.rng.Intn(100); {
	case p < 45:
		return kindSubmit, entry
	case p < 80:
		return kindGetJob, entry
	default:
		return kindGetResult, entry
	}
}

// do issues one request and checks the answer: status envelopes must
// name the job and say done, result bodies must equal the bytes
// store.Put returned, anything else but the race noted below fails.
func (s *serveHotInst) do(cli *http.Client, buf *bytes.Buffer, kind, entry int, op int32) error {
	var req *http.Request
	var err error
	base, key := s.ts.URL, s.keys[entry]
	switch kind {
	case kindSubmit:
		req, err = http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(s.bodies[entry]))
	case kindGetJob:
		req, err = http.NewRequest(http.MethodGet, base+"/v1/jobs/"+key, nil)
	case kindGetResult:
		req, err = http.NewRequest(http.MethodGet, base+"/v1/jobs/"+key+"/result", nil)
	case kindList:
		req, err = http.NewRequest(http.MethodGet, base+"/v1/verdicts?filter=alg%3Dcc1", nil)
	}
	if err != nil {
		return err
	}
	if op >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(op)))
	}
	resp, err := cli.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	// A submit installs a queued placeholder before it probes the store,
	// so a request racing another client's submit of the same hot key may
	// be answered "queued" (200 on a status read, 202 otherwise): a
	// correct answer, just not the final one.
	racing := kind != kindList && bytes.Contains(buf.Bytes(), []byte(`"status": "queued"`))
	if resp.StatusCode != http.StatusOK && !(racing && resp.StatusCode == http.StatusAccepted) {
		return fmt.Errorf("status %d: %.120s", resp.StatusCode, buf.Bytes())
	}
	body := buf.Bytes()
	switch kind {
	case kindSubmit, kindGetJob:
		if !bytes.Contains(body, []byte(`"id": "`+key+`"`)) || !racing && !bytes.Contains(body, []byte(`"status": "done"`)) {
			return fmt.Errorf("unexpected envelope: %.400s", body)
		}
	case kindGetResult:
		if !racing && !bytes.Equal(body, s.results[s.cellOf[entry]]) {
			return fmt.Errorf("result bytes differ from the bytes Put returned")
		}
	case kindList:
		if !bytes.Contains(body[:min(len(body), 40)], []byte(`"count": `+strconv.Itoa(s.listN)+`,`)) {
			return fmt.Errorf("list answered %.40s, want count %d", body, s.listN)
		}
	}
	return nil
}

func (s *serveHotInst) layers(spans []span, res runResult, m metricSet) {
	byRoute := map[string][]int64{}
	var overhead []int64
	for _, sp := range spans {
		name, ok := strings.CutPrefix(sp.Name, "serve.")
		if !ok {
			continue
		}
		d := sp.End - sp.Start
		byRoute[name] = append(byRoute[name], d)
		if sp.Parent >= 0 {
			parent := spans[sp.Parent]
			overhead = append(overhead, parent.End-parent.Start-d)
		}
	}
	for _, name := range kindNames {
		m["serve.handler_us_p50."+name] = float64(quantile(byRoute[name], 0.5)) / 1e3
	}
	m["serve.handler_us_p99.get_job"] = float64(quantile(byRoute["get_job"], 0.99)) / 1e3
	m["serve.client_overhead_us"] = float64(quantile(overhead, 0.5)) / 1e3
	m["serve.latency_p99_ms"] = float64(quantile(sortedCopy(res.latencies), 0.99)) / 1e6
	// Store spans carry no parent (see tracedStore), so the handlers' self
	// time is taken per layer: on this workload every store call is made
	// from inside a handler.
	storeNs := setStoreLayer(spans, m)
	var handlerNs int64
	for _, ds := range byRoute {
		for _, d := range ds {
			handlerNs += d
		}
	}
	m["serve.handler_self_s"] = float64(handlerNs-storeNs) / 1e9
	if got, err := scrapeMetrics(s.cli[0], s.ts.URL, "ccserve_cache_hit_ratio", "ccserve_requests_shed_total"); err == nil {
		m["serve.cache_hit_ratio"] = got["ccserve_cache_hit_ratio"]
		m["serve.shed"] = got["ccserve_requests_shed_total"]
	}
}

// setStoreLayer fills the span-derived store metrics and returns the
// time spent inside store calls.
func setStoreLayer(spans []span, m metricSet) (storeNs int64) {
	calls := 0
	for name, t := range selfTimes(spans) {
		if strings.HasPrefix(name, "store.") {
			storeNs += t.Total
			calls += t.Count
		}
	}
	m["store.traced_self_s"] = float64(storeNs) / 1e9
	m["store.traced_calls"] = float64(calls)
	return storeNs
}

func (s *serveHotInst) probes(m metricSet) error {
	return probeStore(s.e, m)
}

func (s *serveHotInst) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	for _, c := range s.cli {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if s.sv != nil {
		s.sv.Drain(5 * time.Second)
	}
	if s.st != nil {
		s.st.Close()
	}
	os.RemoveAll(s.dir)
}
