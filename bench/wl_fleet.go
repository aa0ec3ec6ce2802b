package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/gossip"
	"repro/internal/pubsub"
	"repro/internal/serve"
	"repro/internal/store"
)

// fleet-cold: three in-process peers, each with its own log store,
// joined only by verdict gossip (full mesh; the anti-entropy timer is
// set to an hour, so only the commit-driven announce path runs). Two
// closed-loop clients submit distinct, never-seen specs: submit to a
// peer, watch its SSE stream to the terminal event, and finish when
// the verdict has been ingested by both other peers. The latency is
// submit → visible fleet-wide.
const (
	fleetPeers   = 3
	fleetClients = 2
	fleetWarmUp  = 25 // jobs per client before the timed region
	fleetTimeout = 10 * time.Second
)

type fleetPeer struct {
	dir  string
	st   store.Interface
	ts   *httptest.Server
	node *gossip.Node
	sv   atomic.Pointer[serve.Server]
}

// waiter is one job's fleet-wide visibility latch.
type waiter struct {
	remaining atomic.Int32
	done      chan struct{}
}

type fleetInst struct {
	e     *env
	peers []*fleetPeer
	sw    traceSwitch
	cli   [fleetClients]*http.Client

	waiters sync.Map     // key → *waiter
	nextN   atomic.Int64 // makes every spec of the process distinct
	epoch   int

	mu         sync.Mutex
	finished   []string             // keys whose operation completed, for verify
	running    map[string]time.Time // traced: the job left the queue (store.Checkpoint on its peer)
	committed  map[string]time.Time // traced: the first store.Put of the key returned
	hops       []int64              // traced: committed → OnIngest on another peer
	phases     [3][]int64           // traced: submit→running, running→terminal, terminal→fleet
	submits    []int64              // traced: the POST as the client saw it
	tracedP50  float64              // ms, end-to-end median of the traced region
	tracedPuts []int64
}

func setupFleet(e *env) (instance, error) {
	f := &fleetInst{e: e, running: map[string]time.Time{}, committed: map[string]time.Time{}}
	urls := make([]string, fleetPeers)
	for i := 0; i < fleetPeers; i++ {
		p := &fleetPeer{}
		f.peers = append(f.peers, p)
		var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The listener must exist before the server that needs its URL.
			if sv := p.sv.Load(); sv != nil {
				sv.ServeHTTP(w, r)
				return
			}
			http.Error(w, "peer not wired yet", http.StatusServiceUnavailable)
		})
		if e.traced {
			h = tracedHandler(&f.sw, h)
		}
		p.ts = httptest.NewServer(h)
		urls[i] = p.ts.URL
		dir, err := e.mkdir("peer")
		if err != nil {
			f.close()
			return nil, err
		}
		p.dir = dir
		if p.st, err = store.OpenLog(dir); err != nil {
			f.close()
			return nil, err
		}
	}
	for i, p := range f.peers {
		var neighbors []string
		for j, u := range urls {
			if j != i {
				neighbors = append(neighbors, u)
			}
		}
		st := p.st
		if e.traced {
			st = &tracedStore{Interface: p.st, sw: &f.sw, onCheckpoint: f.noteRunning, onPut: f.notePut}
		}
		p.node = gossip.New(gossip.Config{
			Self: urls[i], Neighbors: neighbors, Store: st, Interval: time.Hour,
			OnIngest: func(key string) {
				if sv := p.sv.Load(); sv != nil {
					sv.GossipIngested(key)
				}
				f.noteIngest(key)
			},
		})
		sv, err := serve.New(serve.Config{Store: st, Jobs: 2, JobWorkers: 1, Gossip: p.node})
		if err != nil {
			f.close()
			return nil, err
		}
		p.sv.Store(sv)
	}
	for i := range f.cli {
		f.cli[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	}
	if res := f.loop(nil, 0, e.scaled(fleetWarmUp)); res.failed > 0 {
		f.close()
		return nil, fmt.Errorf("warm-up: %d of %d jobs failed", res.failed, res.attempted)
	}
	return f, nil
}

func (f *fleetInst) noteRunning(key string, at time.Time) {
	f.mu.Lock()
	if _, seen := f.running[key]; !seen {
		f.running[key] = at
	}
	f.mu.Unlock()
}

func (f *fleetInst) notePut(key string, at time.Time) {
	f.mu.Lock()
	if _, seen := f.committed[key]; !seen {
		f.committed[key] = at
	}
	f.mu.Unlock()
}

// noteIngest is every peer's OnIngest hook: it timestamps the arrival
// and releases the operation waiting for fleet-wide visibility.
func (f *fleetInst) noteIngest(key string) {
	now := time.Now()
	if f.sw.get() != nil {
		f.mu.Lock()
		if at, ok := f.committed[key]; ok {
			f.hops = append(f.hops, int64(now.Sub(at)))
		}
		f.mu.Unlock()
	}
	if w, ok := f.waiters.Load(key); ok {
		if w := w.(*waiter); w.remaining.Add(-1) == 0 {
			close(w.done)
		}
	}
}

func (f *fleetInst) run(tr *tracer, seconds float64, _ int) (runResult, error) {
	f.sw.p.Store(tr)
	defer f.sw.p.Store(nil)
	res := f.loop(tr, seconds, 0)
	if tr != nil {
		f.tracedP50 = float64(quantile(sortedCopy(res.latencies), 0.5)) / 1e6
	}
	res.failed += f.divergedEntries()
	return res, nil
}

func (f *fleetInst) loop(tr *tracer, seconds float64, maxOps int) runResult {
	f.epoch++
	clients := make([]loopClient, fleetClients)
	for c := range clients {
		clients[c] = &fleetClient{f: f, cli: f.cli[c],
			stream: fleetStream{rng: rand.New(rand.NewSource(streamSeed(f.e.seed, f.epoch, c)))}}
	}
	return closedLoop(tr, clients, seconds, maxOps, int(seconds*100))
}

// fleetClient is one submitting client and its schedule.
type fleetClient struct {
	f          *fleetInst
	cli        *http.Client
	stream     fleetStream
	cell, peer int
}

func (c *fleetClient) next() uint8 {
	c.cell, c.peer = c.stream.next()
	return uint8(c.cell)
}

func (c *fleetClient) do(tr *tracer) error {
	if err := c.f.job(tr, c.cli, c.cell, c.peer); err != nil {
		return fmt.Errorf("job on peer %d: %w", c.peer, err)
	}
	return nil
}

// fleetStream is one client's seeded job schedule: balanced blocks —
// every cell once per block, in seeded order — each job on a seeded
// peer, so every run does the same mix of work whatever its seed.
type fleetStream struct {
	rng   *rand.Rand
	order []int
	i     int
}

func (s *fleetStream) next() (cell, peer int) {
	if s.i%len(smallCells) == 0 {
		s.order = s.rng.Perm(len(smallCells))
	}
	cell = s.order[s.i%len(smallCells)]
	s.i++
	return cell, s.rng.Intn(fleetPeers)
}

// job is one operation: submit a never-seen spec to a peer, watch it
// to its terminal event, wait until both other peers have ingested the
// verdict.
func (f *fleetInst) job(tr *tracer, cli *http.Client, cell, peer int) error {
	spec := cellSpec(cell, int(f.nextN.Add(1)))
	key := spec.Key()
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	w := &waiter{done: make(chan struct{})}
	w.remaining.Store(fleetPeers - 1)
	f.waiters.Store(key, w)
	defer f.waiters.Delete(key)

	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()
	base := f.peers[peer].ts.URL
	op := tr.begin("bench.op", -1, -1)
	defer tr.end(op)
	header := func(req *http.Request) {
		if op >= 0 {
			req.Header.Set(spanHeader, strconv.Itoa(int(op)))
		}
	}

	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	header(req)
	resp, err := cli.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	tSubmitted := time.Now()

	if req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+key+"/watch", nil); err != nil {
		return err
	}
	header(req)
	if resp, err = cli.Do(req); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	terminals := 0
	var tTerminal time.Time
	dec := pubsub.NewDecoder(resp.Body)
	for {
		ev, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			resp.Body.Close()
			return fmt.Errorf("watch: %w", err)
		}
		if pubsub.IsTerminal(ev.Type) {
			terminals++
			tTerminal = time.Now()
			if ev.Type != pubsub.TypeVerdict {
				resp.Body.Close()
				return fmt.Errorf("watch: terminal event %q: %s", ev.Type, ev.Data)
			}
		}
	}
	resp.Body.Close()
	if terminals != 1 {
		return fmt.Errorf("watch: %d terminal events on one stream, want exactly 1", terminals)
	}

	select {
	case <-w.done:
	case <-ctx.Done():
		return fmt.Errorf("verdict not visible fleet-wide after %v (%d peers still missing)", fleetTimeout, w.remaining.Load())
	}
	tFleet := time.Now()

	f.mu.Lock()
	f.finished = append(f.finished, key)
	if tr != nil {
		f.submits = append(f.submits, int64(tSubmitted.Sub(t0)))
		if at, ok := f.running[key]; ok {
			f.phases[0] = append(f.phases[0], int64(at.Sub(t0)))
			f.phases[1] = append(f.phases[1], int64(tTerminal.Sub(at)))
			f.phases[2] = append(f.phases[2], int64(tFleet.Sub(tTerminal)))
		}
	}
	f.mu.Unlock()
	if tr != nil {
		tr.add("fleet.submit", t0, tSubmitted, op, int64(op))
		tr.add("fleet.watch", tSubmitted, tTerminal, op, int64(op))
		tr.add("fleet.propagate", tTerminal, tFleet, op, int64(op))
	}
	return nil
}

func (f *fleetInst) layers(spans []span, res runResult, m metricSet) {
	ms := func(xs []int64, q float64) float64 { return float64(quantile(xs, q)) / 1e6 }
	m["serve.submit_ms"] = ms(f.submits, 0.5)
	m["serve.submit_to_running_ms"] = ms(f.phases[0], 0.5)
	m["serve.running_to_terminal_ms"] = ms(f.phases[1], 0.5)
	m["serve.terminal_to_fleet_ms"] = ms(f.phases[2], 0.5)
	m["gossip.hop_ms_p50"] = ms(f.hops, 0.5)
	m["gossip.hop_ms_p99"] = ms(f.hops, 0.99)
	m["fleet.latency_p99_ms"] = ms(sortedCopy(res.latencies), 0.99)
	m["serve.handler_us_p50.submit"] = float64(quantile(durations(spans, "serve.submit"), 0.5)) / 1e3
	f.tracedPuts = durations(spans, "store.put")
	setStoreLayer(spans, m)

	var bytesIn, received, failures, evictions float64
	for _, p := range f.peers {
		for _, l := range p.node.StatusView().Neighbors {
			bytesIn += float64(l.BytesIn)
			received += float64(l.ReceivedFrom)
			failures += float64(l.Failures)
		}
		if got, err := scrapeMetrics(f.cli[0], p.ts.URL, "ccserve_watch_evictions_total"); err == nil {
			evictions += got["ccserve_watch_evictions_total"]
		}
	}
	if received > 0 {
		m["gossip.entry_bytes"] = bytesIn / received
	}
	m["gossip.failures"] = failures
	m["pubsub.evictions"] = evictions
}

func (f *fleetInst) probes(m metricSet) error {
	// The same specs through campaign.Execute directly: the pure compute
	// share of a job, with no server, store or network around it.
	var exec []int64
	for rep := 0; rep < f.e.scaled(4); rep++ {
		for c := range smallCells {
			t0 := time.Now()
			if _, err := campaign.Execute(cellSpec(c, int(f.nextN.Add(1))), 1); err != nil {
				return err
			}
			exec = append(exec, int64(time.Since(t0)))
		}
	}
	execMs := float64(quantile(exec, 0.5)) / 1e6
	m["campaign.execute_ms_p50"] = execMs
	// What the layers measured one by one explain of the end-to-end
	// median; the residual is queue wait, SSE delivery and scheduling on
	// the two shared cores.
	if f.tracedP50 > 0 {
		attributed := m["serve.submit_ms"] + execMs + float64(quantile(f.tracedPuts, 0.5))/1e6 + m["gossip.hop_ms_p50"]
		m["fleet.attributed_ratio"] = attributed / f.tracedP50
		m["fleet.residual_ms"] = f.tracedP50 - attributed
	}
	if err := probePubsub(f.e, m); err != nil {
		return err
	}
	return probeStore(f.e, m)
}

// divergedEntries checks the fleet converged on identical bytes: every
// job finished since the last check must be present in all three
// stores and equal byte for byte. It returns how many are not.
func (f *fleetInst) divergedEntries() int {
	f.mu.Lock()
	keys := f.finished
	f.finished = nil
	f.mu.Unlock()
	failed := 0
	for _, key := range keys {
		_, _, first, ok := f.peers[0].st.GetByKey(key)
		same := ok
		for _, p := range f.peers[1:] {
			_, _, raw, ok := p.st.GetByKey(key)
			same = same && ok && bytes.Equal(raw, first)
		}
		if !same {
			failed++
			fmt.Fprintf(os.Stderr, "bench: entry %.12s is not byte-identical on all %d peers\n", key, fleetPeers)
		}
	}
	return failed
}

func (f *fleetInst) close() {
	for _, c := range f.cli {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	for _, p := range f.peers {
		if p.node != nil {
			p.node.Close()
		}
		if sv := p.sv.Load(); sv != nil {
			sv.Drain(5 * time.Second)
		}
		if p.ts != nil {
			p.ts.Close()
		}
		if p.st != nil {
			p.st.Close()
		}
		if p.dir != "" {
			os.RemoveAll(p.dir)
		}
	}
}

// probePubsub calls the broker and the SSE codec directly.
func probePubsub(e *env, m metricSet) error {
	const burst = 200 // stays inside the default subscriber queue, so nothing is evicted
	rounds := e.scaled(250)
	payload := map[string]any{"id": "probe", "states": 12345, "frontier": 678, "depth": 9}
	for _, subs := range []int{1, 64} {
		b := pubsub.New(pubsub.Options{})
		ss := make([]*pubsub.Sub, subs)
		for i := range ss {
			ss[i] = b.Subscribe("probe", 0)
		}
		var total time.Duration
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for i := 0; i < burst; i++ {
				if _, err := b.Publish("probe", pubsub.TypeProgress, payload); err != nil {
					return err
				}
			}
			total += time.Since(t0)
			for _, s := range ss {
				for i := 0; i < burst; i++ {
					<-s.Events()
				}
			}
		}
		for _, s := range ss {
			s.Close()
		}
		if b.Evictions() != 0 {
			return fmt.Errorf("pubsub probe evicted %d subscribers", b.Evictions())
		}
		m["pubsub.publish_ns.sub"+strconv.Itoa(subs)] = float64(total.Nanoseconds()) / float64(rounds*burst)
	}

	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	n := rounds * burst
	var wire []byte
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wire = pubsub.AppendSSE(wire, pubsub.Event{Seq: uint64(i + 1), Type: pubsub.TypeProgress, Data: data})
	}
	m["pubsub.sse_encode_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	dec := pubsub.NewDecoder(bytes.NewReader(wire))
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if ev, err := dec.Next(); err != nil || ev.Seq != uint64(i+1) {
			return fmt.Errorf("sse decode %d: seq %d, %v", i, ev.Seq, err)
		}
	}
	m["pubsub.sse_decode_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return nil
}
