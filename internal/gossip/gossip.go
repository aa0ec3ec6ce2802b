// Package gossip propagates committed verdict keys between ccserve
// peers, bitswap-style, so a fleet behind a load balancer dedupes
// exploration globally instead of per node: a job completed on one
// peer becomes a content-addressed store hit on every peer.
//
// Each node keeps an in-order commit log of the store keys it holds
// (seeded from the store at start, appended on every local completion
// and every ingest) and, per neighbor, a bitswap-style ledger: a push
// cursor (how far into our log we have announced to them), a pull
// cursor (how far into their log we have consumed), and byte/entry
// accounting in both directions. Three wire calls, all on the
// /v1/gossip/* prefix the serving tier mounts:
//
//	POST /v1/gossip/announce     an SSE-framed announce event
//	                             {from, seq, keys}: newly committed
//	                             keys on the sender
//	GET  /v1/gossip/log?after=N  the sender's commit log past N —
//	                             pull-side anti-entropy, how a peer
//	                             that was down catches back up
//	GET  /v1/gossip/entry/{key}  the exact entry line the store
//	                             persists (version, canonical spec,
//	                             FNV-64a sum, result bytes)
//	GET  /v1/gossip/status       ledgers and counters, for operators
//
// Peering is symmetric: each peer lists the other. An announce names
// the URL its keys are fetched from, so a node accepts one only from a
// configured neighbor; entries are served to anyone, and only
// neighbors get a ledger.
//
// Keys a node hears about but does not hold form its want-list; a
// single fetcher drains it, pulling each entry from the announcing
// neighbor. Ingest trusts nothing: the transfer must pass
// store.DecodeEntry — format version, checksum over spec+result, and
// the embedded spec hashing back to the claimed key — before it is
// re-encoded by the local store's own Put. A transfer that fails
// lands in the store's quarantine as a specimen (the PR 6 path) and
// is never served; a peer that is down simply stalls its cursors
// until the anti-entropy pull converges after it returns.
package gossip

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/pubsub"
	"repro/internal/store"
)

// Wire bounds: a hostile peer must not be able to balloon memory with
// a claimed (rather than shipped) size.
const (
	// maxAnnounceBytes bounds an announce body.
	maxAnnounceBytes = 1 << 20
	// maxBatchKeys bounds the keys in one announce or log page.
	maxBatchKeys = 512
	// maxEntryBytes bounds one fetched entry (a verdict with embedded
	// counterexample traces is large; past this is damage).
	maxEntryBytes = 64 << 20
	// wantQueueDepth bounds the pending fetch queue; overflow is
	// dropped and re-discovered by the anti-entropy pull.
	wantQueueDepth = 4096
)

// Config parameterizes a Node.
type Config struct {
	// Self is this node's advertised base URL (loop suppression: it is
	// the announce "from" neighbors fetch from).
	Self string
	// Neighbors are the peer base URLs to gossip with (Self excluded).
	Neighbors []string
	// Store is the local verdict store keys are committed to and
	// served from.
	Store store.Interface
	// Interval is the anti-entropy cadence: how often the node pulls
	// each neighbor's commit log and retries failed announces
	// (default 5s; negative disables the background loop — tests
	// drive Sync explicitly).
	Interval time.Duration
	// OnIngest, if non-nil, is called after a gossiped verdict commits
	// locally (the serving tier publishes watch events for jobs it has
	// records for; Ingested is the count).
	OnIngest func(key string)
	// Log, if non-nil, receives one line per ingest, quarantine and
	// neighbor failure.
	Log func(format string, args ...any)
}

// ledger is the per-neighbor bitswap accounting.
type ledger struct {
	neighbor string

	announcedTo  atomic.Int64 // keys pushed to them
	receivedFrom atomic.Int64 // verdicts ingested from them
	servedTo     atomic.Int64 // entries they fetched from us
	bytesIn      atomic.Int64
	bytesOut     atomic.Int64
	corrupt      atomic.Int64 // their transfers we quarantined
	failures     atomic.Int64 // calls to them that failed

	mu         sync.Mutex
	pushCursor int    // our log position announced to them
	pullCursor uint64 // their log position we consumed
}

// LedgerView is the JSON shape of one neighbor's ledger in Status.
type LedgerView struct {
	Neighbor     string `json:"neighbor"`
	AnnouncedTo  int64  `json:"announced_to"`
	ReceivedFrom int64  `json:"received_from"`
	ServedTo     int64  `json:"served_to"`
	BytesIn      int64  `json:"bytes_in"`
	BytesOut     int64  `json:"bytes_out"`
	Corrupt      int64  `json:"corrupt"`
	Failures     int64  `json:"failures"`
	PushCursor   int    `json:"push_cursor"`
	PullCursor   uint64 `json:"pull_cursor"`
}

// Status is the /v1/gossip/status body.
type Status struct {
	Self      string       `json:"self"`
	Seq       uint64       `json:"seq"` // local commit-log length
	Ingested  int64        `json:"ingested"`
	Corrupt   int64        `json:"corrupt"`
	WantDepth int          `json:"want_depth"`
	Neighbors []LedgerView `json:"neighbors"`
}

// want is one pending fetch: a key and the neighbor that has it.
type want struct {
	from string
	key  string
}

// Node is one peer's gossip state. Create with New, wire its
// ServeHTTP under /v1/gossip/, call Committed on every local store
// write, and Close on shutdown.
type Node struct {
	cfg    Config
	client *http.Client

	mu   sync.Mutex
	log  []string            // commit order
	have map[string]struct{} // set of log

	// ledgers holds one entry per configured neighbor, made in New and
	// never added to after, so reads need no lock.
	ledgers map[string]*ledger

	// retries holds keys whose fetch failed (peer down, transfer
	// corrupt, local write refused), mapped to the neighbor that has
	// them; every anti-entropy round re-queues them. Bounded by the
	// fleet's verdict population — entries leave on successful ingest.
	retryMu sync.Mutex
	retries map[string]string

	wants chan want
	wake  chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	ingested atomic.Int64
	corrupt  atomic.Int64
	dropped  atomic.Int64 // want-queue overflow (recovered by pull)
}

// New builds and starts a Node: the commit log seeds from the store's
// current keys, then the fetcher and (unless disabled) the
// anti-entropy loop start.
func New(cfg Config) *Node {
	if cfg.Interval == 0 {
		cfg.Interval = 5 * time.Second
	}
	n := &Node{
		cfg: cfg, client: &http.Client{Timeout: 30 * time.Second},
		have:    map[string]struct{}{},
		ledgers: map[string]*ledger{},
		retries: map[string]string{},
		wants:   make(chan want, wantQueueDepth),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	// Seed: everything already in the store is announceable. Scan is
	// key-sorted — a deterministic (if historically inaccurate) commit
	// order is all the log needs.
	n.cfg.Store.Scan(func(key string, _ store.JobSpec, _ []byte) error {
		n.log = append(n.log, key)
		n.have[key] = struct{}{}
		return nil
	})
	for _, p := range cfg.Neighbors {
		n.ledgers[p] = &ledger{neighbor: p}
	}
	n.wg.Add(1)
	go n.fetcher()
	if cfg.Interval > 0 {
		n.wg.Add(1)
		go n.loop()
	}
	return n
}

// Close stops the background goroutines and waits for them.
func (n *Node) Close() {
	n.once.Do(func() { close(n.stop) })
	n.wg.Wait()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Log != nil {
		n.cfg.Log(format, args...)
	}
}

// Committed records a locally written store key and nudges the
// announcer. Idempotent per key; safe from any goroutine; never
// blocks.
func (n *Node) Committed(key string) {
	if !validKey(key) {
		return
	}
	n.mu.Lock()
	if _, dup := n.have[key]; dup {
		n.mu.Unlock()
		return
	}
	n.have[key] = struct{}{}
	n.log = append(n.log, key)
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// Seq returns the local commit-log length.
func (n *Node) Seq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return uint64(len(n.log))
}

// Ingested returns the gossiped verdicts committed locally (a
// /metrics counter).
func (n *Node) Ingested() int64 { return n.ingested.Load() }

// Corrupt returns the transfers quarantined at ingest (a /metrics
// counter).
func (n *Node) Corrupt() int64 { return n.corrupt.Load() }

func (n *Node) has(key string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.have[key]
	return ok
}

// logPage returns keys (after, after+maxBatchKeys] and the log length.
func (n *Node) logPage(after uint64) (seq uint64, keys []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	seq = uint64(len(n.log))
	if after >= seq {
		return seq, nil
	}
	end := min(after+maxBatchKeys, seq)
	return seq, append([]string(nil), n.log[after:end]...)
}

// enqueue adds keys we lack to the want-list. Overflow is dropped:
// the anti-entropy pull re-discovers anything lost.
func (n *Node) enqueue(from string, keys []string) (wanted int) {
	for _, k := range keys {
		if !validKey(k) || n.has(k) {
			continue
		}
		select {
		case n.wants <- want{from: from, key: k}:
			wanted++
		default:
			n.dropped.Add(1)
			return wanted
		}
	}
	return wanted
}

// loop is the anti-entropy heartbeat: push unannounced log suffixes,
// pull neighbors' logs past our cursor.
func (n *Node) loop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-n.wake:
		case <-tick.C:
			n.pullAll()
			n.requeueRetries()
		}
		n.pushAll()
	}
}

// Sync runs one full push+pull+retry round synchronously — the test
// hook (Interval < 0 disables the background loop) and the
// convergence primitive: after every peer's Sync has run without new
// commits or failures, fleets are key-identical.
func (n *Node) Sync() {
	n.pushAll()
	n.pullAll()
	n.requeueRetries()
}

// addRetry remembers a key whose transfer failed so the next
// anti-entropy round tries again — this is what makes a fleet
// converge after a peer returns from the dead.
func (n *Node) addRetry(w want) {
	n.retryMu.Lock()
	if _, dup := n.retries[w.key]; !dup {
		n.retries[w.key] = w.from
	}
	n.retryMu.Unlock()
}

// requeueRetries re-enqueues every failed key still missing.
func (n *Node) requeueRetries() {
	n.retryMu.Lock()
	pending := make([]want, 0, len(n.retries))
	for k, from := range n.retries {
		if n.has(k) {
			delete(n.retries, k)
			continue
		}
		pending = append(pending, want{from: from, key: k})
	}
	n.retryMu.Unlock()
	for _, w := range pending {
		n.enqueue(w.from, []string{w.key})
	}
}

// pushAll announces the unannounced log suffix to every neighbor.
func (n *Node) pushAll() {
	for _, peer := range n.cfg.Neighbors {
		l := n.ledgers[peer]
		for {
			l.mu.Lock()
			cursor := l.pushCursor
			l.mu.Unlock()
			seq, keys := n.logPage(uint64(cursor))
			if len(keys) == 0 {
				break
			}
			if err := n.announce(peer, seq, keys); err != nil {
				l.failures.Add(1)
				n.logf("gossip: announce %d key(s) to %s failed: %v", len(keys), peer, err)
				break // retry from the same cursor next round
			}
			l.mu.Lock()
			l.pushCursor = cursor + len(keys)
			l.mu.Unlock()
			l.announcedTo.Add(int64(len(keys)))
		}
	}
}

// pullAll consumes every neighbor's commit log past our pull cursor.
func (n *Node) pullAll() {
	for _, peer := range n.cfg.Neighbors {
		l := n.ledgers[peer]
		for {
			l.mu.Lock()
			cursor := l.pullCursor
			l.mu.Unlock()
			seq, keys, err := n.pullLog(peer, cursor)
			if err != nil {
				l.failures.Add(1)
				break
			}
			if len(keys) > 0 {
				n.enqueue(peer, keys)
			}
			next := min(cursor+uint64(len(keys)), seq)
			if len(keys) == 0 && next < seq {
				// Defensive: a peer claiming more log than it pages out
				// would otherwise spin this loop.
				next = seq
			}
			l.mu.Lock()
			l.pullCursor = next
			l.mu.Unlock()
			if next >= seq {
				break
			}
		}
	}
}

// announceMsg is the announce event's data payload.
type announceMsg struct {
	From string   `json:"from"`
	Seq  uint64   `json:"seq"`
	Keys []string `json:"keys"`
}

// announce POSTs one SSE-framed announce event to a neighbor.
func (n *Node) announce(peer string, seq uint64, keys []string) error {
	data, err := json.Marshal(announceMsg{From: n.cfg.Self, Seq: seq, Keys: keys})
	if err != nil {
		return err
	}
	frame := pubsub.AppendSSE(nil, pubsub.Event{Seq: seq, Type: pubsub.TypeAnnounce, Data: data})
	resp, err := n.client.Post(peer+"/v1/gossip/announce", "text/event-stream", strings.NewReader(string(frame)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gossip: %s answered %d to announce", peer, resp.StatusCode)
	}
	return nil
}

// pullLog GETs one page of a neighbor's commit log.
func (n *Node) pullLog(peer string, after uint64) (seq uint64, keys []string, err error) {
	resp, err := n.client.Get(fmt.Sprintf("%s/v1/gossip/log?after=%d", peer, after))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return 0, nil, fmt.Errorf("gossip: %s answered %d to log pull", peer, resp.StatusCode)
	}
	ev, err := pubsub.NewDecoder(io.LimitReader(resp.Body, maxAnnounceBytes)).Next()
	if err != nil {
		return 0, nil, err
	}
	msg, err := decodeAnnounce(ev)
	if err != nil {
		return 0, nil, err
	}
	return msg.Seq, msg.Keys, nil
}

// decodeAnnounce validates an announce event's payload: bounded key
// count, every key well-formed. The SSE layer already bounded the
// bytes and validated the JSON.
func decodeAnnounce(ev pubsub.Event) (announceMsg, error) {
	if ev.Type != pubsub.TypeAnnounce {
		return announceMsg{}, fmt.Errorf("gossip: unexpected event type %q", ev.Type)
	}
	var msg announceMsg
	if err := json.Unmarshal(ev.Data, &msg); err != nil {
		return announceMsg{}, fmt.Errorf("gossip: bad announce payload: %v", err)
	}
	if len(msg.Keys) > maxBatchKeys {
		return announceMsg{}, fmt.Errorf("gossip: announce carries %d keys, cap is %d", len(msg.Keys), maxBatchKeys)
	}
	for _, k := range msg.Keys {
		if !validKey(k) {
			return announceMsg{}, fmt.Errorf("gossip: malformed key %q in announce", k)
		}
	}
	return msg, nil
}

// validKey: a content key is exactly 64 lower-case hex digits.
func validKey(k string) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// fetcher drains the want-list: one goroutine, so a slow neighbor
// throttles ingestion, never the serving tier.
func (n *Node) fetcher() {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case w := <-n.wants:
			n.fetchOne(w)
		}
	}
}

// fetchOne pulls one wanted entry and ingests it through the full
// verification gauntlet.
func (n *Node) fetchOne(w want) {
	if n.has(w.key) {
		return // raced a local completion or another announce
	}
	l := n.ledgers[w.from] // wants come only from neighbors
	u := fmt.Sprintf("%s/v1/gossip/entry/%s?from=%s", w.from, w.key, url.QueryEscape(n.cfg.Self))
	resp, err := n.client.Get(u)
	if err != nil {
		l.failures.Add(1)
		n.addRetry(w)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		l.failures.Add(1)
		n.addRetry(w)
		return
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes+1))
	if err != nil || len(data) > maxEntryBytes {
		l.failures.Add(1)
		n.addRetry(w)
		return
	}
	l.bytesIn.Add(int64(len(data)))

	spec, res, err := store.DecodeEntry(w.key, data)
	switch {
	case err == nil:
	case err == store.ErrEntryDrift:
		// A peer on another entry-format version: skip, no quarantine.
		return
	default:
		// Checksum/structure/key-match failure: the specimen goes to
		// quarantine and nothing of it touches the live store — an
		// unverified verdict is never served.
		n.cfg.Store.QuarantineBytes("gossip-"+w.key[:12]+".entry", data, chaos.Describe(err))
		l.corrupt.Add(1)
		n.corrupt.Add(1)
		n.addRetry(w) // a later transfer may be clean; the specimen is kept either way
		n.logf("gossip: quarantined transfer of %s from %s: %v", w.key[:12], w.from, err)
		return
	}
	// Local Put re-encodes from the decoded spec+result — byte-identical
	// to every other store holding this verdict, and re-checksummed by
	// the engine on the way down.
	if _, err := n.cfg.Store.Put(spec, res); err != nil {
		l.failures.Add(1)
		n.addRetry(w)
		n.logf("gossip: ingest Put of %s failed: %v", w.key[:12], err)
		return
	}
	n.retryMu.Lock()
	delete(n.retries, w.key)
	n.retryMu.Unlock()
	l.receivedFrom.Add(1)
	n.ingested.Add(1)
	n.logf("gossip: ingested %s from %s", w.key[:12], w.from)
	n.Committed(w.key) // extends the log and re-announces onward
	if n.cfg.OnIngest != nil {
		n.cfg.OnIngest(w.key)
	}
}

// ServeHTTP serves the /v1/gossip/* wire. The serving tier mounts it
// under that prefix (peer traffic is exempt from client load
// shedding, like the cluster tier).
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/gossip/announce" && r.Method == http.MethodPost:
		n.handleAnnounce(w, r)
	case r.URL.Path == "/v1/gossip/log" && r.Method == http.MethodGet:
		n.handleLog(w, r)
	case strings.HasPrefix(r.URL.Path, "/v1/gossip/entry/") && r.Method == http.MethodGet:
		n.handleEntry(w, r)
	case r.URL.Path == "/v1/gossip/status" && r.Method == http.MethodGet:
		n.handleStatus(w, r)
	default:
		code := http.StatusNotFound
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			code = http.StatusMethodNotAllowed
		}
		writeErr(w, code, "unknown gossip route %s %s", r.Method, r.URL.Path)
	}
}

// writeErr mirrors the serving tier's JSON error envelope so the
// gossip surface refuses in the same shape as every other endpoint.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	class := "bad_request"
	switch code {
	case http.StatusNotFound:
		class = "not_found"
	case http.StatusMethodNotAllowed:
		class = "method_not_allowed"
	}
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...), "class": class})
	w.Write(append(body, '\n'))
}

func (n *Node) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	ev, err := pubsub.NewDecoder(http.MaxBytesReader(w, r.Body, maxAnnounceBytes)).Next()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad announce frame: %v", err)
		return
	}
	msg, err := decodeAnnounce(ev)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if n.ledgers[msg.From] == nil {
		// Fetches go to the announcer's URL: only a configured neighbor
		// may name one.
		writeErr(w, http.StatusBadRequest, "announce from %q, which is not a configured neighbor", msg.From)
		return
	}
	wanted := n.enqueue(msg.From, msg.Keys)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"wanted\":%d}\n", wanted)
}

func (n *Node) handleLog(w http.ResponseWriter, r *http.Request) {
	after := uint64(0)
	if v := r.URL.Query().Get("after"); v != "" {
		parsed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad after cursor %q", v)
			return
		}
		after = parsed
	}
	seq, keys := n.logPage(after)
	data, err := json.Marshal(announceMsg{From: n.cfg.Self, Seq: seq, Keys: keys})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Write(pubsub.AppendSSE(nil, pubsub.Event{Seq: max(seq, 1), Type: pubsub.TypeAnnounce, Data: data}))
}

func (n *Node) handleEntry(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/gossip/entry/")
	if !validKey(key) {
		writeErr(w, http.StatusBadRequest, "malformed entry key %q", key)
		return
	}
	spec, res, _, ok := n.cfg.Store.GetByKey(key)
	if !ok {
		writeErr(w, http.StatusNotFound, "no entry for %s", key)
		return
	}
	line, err := store.EncodeEntry(spec, res)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Entries are served to anyone; only a neighbor's fetches are counted.
	if l := n.ledgers[r.URL.Query().Get("from")]; l != nil {
		l.servedTo.Add(1)
		l.bytesOut.Add(int64(len(line)))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(line)
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := n.StatusView()
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.MarshalIndent(st, "", "  ")
	w.Write(append(body, '\n'))
}

// StatusView snapshots the node for /v1/gossip/status and tests.
func (n *Node) StatusView() Status {
	st := Status{
		Self:      n.cfg.Self,
		Seq:       n.Seq(),
		Ingested:  n.ingested.Load(),
		Corrupt:   n.corrupt.Load(),
		WantDepth: len(n.wants),
	}
	for _, peer := range n.cfg.Neighbors {
		l := n.ledgers[peer]
		l.mu.Lock()
		st.Neighbors = append(st.Neighbors, LedgerView{
			Neighbor:     l.neighbor,
			AnnouncedTo:  l.announcedTo.Load(),
			ReceivedFrom: l.receivedFrom.Load(),
			ServedTo:     l.servedTo.Load(),
			BytesIn:      l.bytesIn.Load(),
			BytesOut:     l.bytesOut.Load(),
			Corrupt:      l.corrupt.Load(),
			Failures:     l.failures.Load(),
			PushCursor:   l.pushCursor,
			PullCursor:   l.pullCursor,
		})
		l.mu.Unlock()
	}
	return st
}
