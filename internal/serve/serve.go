// Package serve is the verification-as-a-service layer: an HTTP API
// (stdlib net/http) over the exhaustive checker, the content-addressed
// verdict store and the campaign expander. Jobs are content-addressed
// — the job id IS the store key — so identical submissions dedupe at
// every level: an in-flight identical job is joined (singleflight), a
// completed one is served from the store byte-identically, and only
// genuinely new specs reach the explorer, through a bounded worker
// pool so concurrent clients cannot oversubscribe the machine.
//
//	POST /v1/jobs            submit a store.JobSpec; 200 = served from cache,
//	                         202 = queued/running (joined if already in flight)
//	GET  /v1/jobs/{id}       status envelope (spec, status, cached, verdict, counts)
//	GET  /v1/jobs/{id}/result  the full explore.Result JSON, byte-identical
//	                         between cached and freshly computed verdicts
//	POST /v1/campaigns       submit a campaign.Spec grid; cells share the job machinery
//	GET  /v1/campaigns/{id}  deterministic aggregate (cells in expansion order)
//	GET  /v1/campaigns/{id}/summary  pass-rate aggregate from the query plane
//	GET  /v1/campaigns/diff?a=…&b=…  cell-by-cell diff of two campaigns
//	GET  /v1/verdicts?filter=…       list/filter the verdict warehouse
//	GET  /v1/store/stats     store engine footprint (entries, segments, garbage)
//	POST /v1/store/compact   force a store compaction (no-op on the dir engine)
//	GET  /healthz            liveness (the process is up)
//	GET  /readyz             readiness (accepting work; 503 while draining,
//	                         degraded while the store breaker is open)
//	GET  /metrics            Prometheus-style text: cache hit ratio, states/sec,
//	                         queue depth, worker pool, shedding and breaker state
//
// Every error response — including the mux-generated 404/405 for
// unknown routes and wrong methods — is one JSON envelope:
// {"error": …, "class": …, "retry_after": …} where class is a
// machine-readable kind (bad_request | not_found | method_not_allowed
// | shed | unavailable | internal) and retry_after (seconds, also the
// Retry-After header) appears on shed and draining responses. See
// docs/api.md.
//
// The server degrades rather than collapses: submissions past the queue
// or in-flight bounds are shed with 429 + Retry-After, each job runs
// under an optional wall-clock timeout, and a failing verdict store
// trips a circuit breaker into compute-only mode — verdicts stay
// correct, they just stop being persisted until the store recovers.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/explore"
	"repro/internal/gossip"
	"repro/internal/pubsub"
	"repro/internal/store"
)

// Config parameterizes the server.
type Config struct {
	// Store is the verdict cache (required) — either engine behind
	// store.Interface.
	Store store.Interface
	// Jobs is the number of explorations running concurrently
	// (default 2). Submissions beyond it queue.
	Jobs int
	// JobWorkers is the explorer pool width per job (default
	// GOMAXPROCS/Jobs, min 1), so Jobs × JobWorkers ≈ GOMAXPROCS and
	// concurrent clients cannot oversubscribe the explorer.
	JobWorkers int
	// MaxStatesCap rejects specs whose state bound exceeds it —
	// including "unlimited" — protecting the server's memory from one
	// hostile submission (default 6,000,000; negative = uncapped).
	MaxStatesCap int
	// RetainJobs bounds the finished jobs kept in memory (default
	// 1024; negative = unlimited). Older finished jobs are evicted
	// FIFO — their verdicts live in the store, and a later GET or
	// resubmission re-hydrates them by content key — so a client
	// streaming distinct specs cannot grow the process without bound.
	// (Failed jobs are not persisted; an evicted failure reads 404.)
	RetainJobs int
	// MaxQueue bounds the jobs waiting for a worker slot (default
	// 256; negative = unlimited). Submissions past it are rejected
	// with 503 rather than parking unbounded goroutines and records.
	MaxQueue int
	// CheckpointEvery enables in-flight job checkpointing: every N
	// expanded states — and on shutdown — a running exploration
	// persists a resumable snapshot under its content key in the
	// store, so a killed server loses at most N states of work per
	// job and a resubmission after restart resumes instead of
	// restarting (default 1,000,000; negative = disabled).
	CheckpointEvery int
	// MemBudget bounds each job's in-memory explorer footprint
	// (bytes; 0 = fully in-memory): past it the cold visited arena
	// spills to SpillDir ("" = the system temp dir), letting jobs
	// exceed RAM with byte-identical verdicts.
	MemBudget int64
	SpillDir  string
	// FS routes the explorers' spill-file I/O through a chaos.FS
	// (nil = the host filesystem). The store carries its own FS from
	// store.OpenFS; this covers the scratch files.
	FS chaos.FS
	// JobTimeout bounds each job's wall-clock run (0 = no timeout;
	// negative = no timeout). A job past it fails with a classified
	// timeout message; its checkpoint (if enabled) survives, so a
	// resubmission resumes rather than restarts.
	JobTimeout time.Duration
	// MaxInFlight bounds concurrently-handled API requests (default
	// 512; negative = unlimited). Requests past it are shed with 429 +
	// Retry-After before touching any server state; /healthz, /readyz
	// and /metrics are exempt so operators can always see in.
	MaxInFlight int
	// BreakerFailures is the consecutive store-write failures that trip
	// the circuit breaker into compute-only mode (default 3; negative =
	// breaker disabled). While open, jobs skip the store entirely —
	// verdicts are computed and served from memory, not persisted — and
	// after BreakerCooldown one job probes the store again (half-open):
	// success closes the breaker, failure re-opens it.
	BreakerFailures int
	// BreakerCooldown is how long the breaker stays open before a probe
	// (default 15s).
	BreakerCooldown time.Duration
	// Gossip, when non-nil, mounts the verdict gossip plane under
	// /v1/gossip/ (exempt from load shedding, like the cluster tier)
	// and announces every locally committed verdict to the node's
	// neighbors. Wire the node's OnIngest to GossipIngested so
	// gossiped verdicts resolve local watchers.
	Gossip *gossip.Node
	// Log, if non-nil, receives one line per job state change.
	Log func(format string, args ...any)
}

// Job statuses.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
	// StatusUnknown: a campaign cell whose job was evicted and whose
	// store entry is gone (externally wiped cache).
	StatusUnknown = "unknown"
)

type job struct {
	spec   store.JobSpec
	key    string
	status string
	cached bool
	errMsg string
	// errClass is the chaos classification of a failed job's error
	// (transient | permanent | corrupt), empty when the failure is not
	// a classifiable I/O fault — surfaced as error_class in the status
	// envelope so clients can tell a retryable infrastructure failure
	// from a broken spec without parsing the message.
	errClass string
	result   []byte // raw explore.Result JSON, exactly as stored
	res      *explore.Result
}

type camp struct {
	id   string
	keys []string // cell keys in expansion order
	// terminal marks cells whose cell event has been published on the
	// campaign topic; doneSent latches the campaign's terminal event.
	terminal map[string]bool
	doneSent bool
}

// Server implements the HTTP API. Create with New; it is an
// http.Handler.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time

	// baseCtx is cancelled by Drain: running explorations notice at
	// their next chunk boundary, checkpoint, and stop; jobsWG tracks
	// them so shutdown can wait for the snapshots to land.
	baseCtx  context.Context
	stopJobs context.CancelFunc
	jobsWG   sync.WaitGroup

	// broker fans progress and terminal events out to the watch
	// streams; hist is the API request-latency histogram; breaker owns
	// the store circuit breaker.
	broker  *pubsub.Broker
	hist    latencyHist
	breaker storeBreaker

	// mu guards the job table — jobs, doneOrder, campaigns,
	// cellCampaigns — and the fields of the job and camp records in it
	// (and orders Drain's cancel before any later admission). Nothing
	// else: counters are atomics, and /metrics and /readyz never take it.
	mu        sync.Mutex
	jobs      map[string]*job
	doneOrder []string // finished job keys in completion order (FIFO eviction)
	campaigns map[string]*camp
	// cellCampaigns maps a cell's job key to the campaigns it belongs
	// to, so a finishing job can fan its cell event out.
	cellCampaigns map[string][]string

	clusterMu   sync.Mutex // guards clusterJobs
	clusterJobs map[string]*clusterPeer

	// Counters and gauges, each rendered by one metricsTable row.
	// queued and running change only under mu, so the MaxQueue
	// admission check in submit is exact; readers load them lock-free.
	inFlight, watchConns, queued, running                            atomic.Int64
	submitted, deduped, executed, failures, rejected                 atomic.Int64
	interrupted, shed, jobsTimedOut, badRequests                     atomic.Int64
	cacheHits, cacheMisses, statesExplored, exploreNanos             atomic.Int64
	checkpointsWritten, checkpointErrors, jobsResumed, statesResumed atomic.Int64
	queries, compactions, clusterOpens, clusterAdoptions             atomic.Int64
	clusterFramesIn, clusterFrameBytes, clusterErrors, coldReads     atomic.Int64
	localLookups, localHits                                          atomic.Int64
	// phaseNanos is the explorer's wall time in the layer driver's
	// seed, expand and commit phases (explore.RunStats).
	phaseNanos [3]atomic.Int64
}

// New builds a Server over the given store.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: a verdict store is required")
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = runtime.GOMAXPROCS(0) / cfg.Jobs
		if cfg.JobWorkers < 1 {
			cfg.JobWorkers = 1
		}
	}
	if cfg.MaxStatesCap == 0 {
		cfg.MaxStatesCap = 6_000_000
	}
	if cfg.RetainJobs == 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 256
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1_000_000
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 512
	}
	if cfg.BreakerFailures == 0 {
		cfg.BreakerFailures = 3
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 15 * time.Second
	}
	baseCtx, stopJobs := context.WithCancel(context.Background())
	s := &Server{
		cfg:           cfg,
		mux:           http.NewServeMux(),
		sem:           make(chan struct{}, cfg.Jobs),
		start:         time.Now(),
		baseCtx:       baseCtx,
		stopJobs:      stopJobs,
		broker:        pubsub.New(pubsub.Options{}),
		breaker:       storeBreaker{threshold: cfg.BreakerFailures, cooldown: cfg.BreakerCooldown},
		jobs:          map[string]*job{},
		campaigns:     map[string]*camp{},
		cellCampaigns: map[string][]string{},
		clusterJobs:   map[string]*clusterPeer{},
	}
	s.breaker.logf = s.logf
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleGetResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/watch", s.handleWatchJob)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/watch", s.handleWatchCampaign)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmitCampaign)
	s.mux.HandleFunc("GET /v1/campaigns/diff", s.handleDiffCampaigns)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGetCampaign)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/summary", s.handleCampaignSummary)
	s.mux.HandleFunc("GET /v1/verdicts", s.handleListVerdicts)
	s.mux.HandleFunc("GET /v1/store/stats", s.handleStoreStats)
	s.mux.HandleFunc("POST /v1/store/compact", s.handleStoreCompact)
	s.mux.HandleFunc("POST /v1/cluster/rpc", s.handleClusterRPC)
	s.mux.HandleFunc("POST /v1/cluster/frontier", s.handleClusterFrontier)
	s.mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Every mux dispatch goes through the envelope interceptor so even
	// the stdlib's own plain-text 404/405 responses come out as the
	// unified JSON error envelope.
	ew := &envelopeWriter{ResponseWriter: w, req: r}
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/gossip/") && s.cfg.Gossip != nil:
		s.cfg.Gossip.ServeHTTP(ew, r)
		return
	case p == "/healthz", p == "/readyz", p == "/metrics",
		strings.HasPrefix(p, "/v1/cluster/"), strings.HasPrefix(p, "/v1/gossip/"),
		strings.HasPrefix(p, "/v1/") && strings.HasSuffix(p, "/watch"):
		// Exempt from load shedding and the latency histogram.
		// Observability stays reachable however overloaded the API is.
		// Peers are a closed, operator-sized population, and a shed frame
		// or barrier RPC would force a whole distributed layer retry
		// (without a gossip node, gossip paths get the enveloped 404).
		// A watch stream is held open for a job's lifetime, so it would
		// starve the in-flight cap and swamp the histogram; per-subscriber
		// queues with slow-consumer eviction bound its cost instead.
		s.mux.ServeHTTP(ew, r)
		return
	}
	start := time.Now()
	defer func() { s.hist.observe(time.Since(start)) }()
	if max := s.cfg.MaxInFlight; max > 0 {
		n := s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		if n > int64(max) {
			s.shed.Add(1)
			writeShed(w, http.StatusTooManyRequests, 1,
				"serve: %d requests in flight exceeds the cap of %d, retry shortly", n, max)
			return
		}
	}
	s.mux.ServeHTTP(ew, r)
}

// envelopeWriter rewrites the plain-text 404 and 405 bodies the
// stdlib mux writes for unknown routes and disallowed methods into
// the one JSON error envelope every handler-level error already uses.
// Handler responses pass through untouched: they set an
// application/json content type before writing their status, which is
// the discriminator.
type envelopeWriter struct {
	http.ResponseWriter
	req         *http.Request
	wroteHeader bool
	intercepted bool
}

func (w *envelopeWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	ct := w.Header().Get("Content-Type")
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(ct, "application/json") {
		w.intercepted = true
		body, _ := json.MarshalIndent(errEnvelope{
			Error: fmt.Sprintf("%s %s: %s", w.req.Method, w.req.URL.Path,
				strings.ToLower(http.StatusText(code))),
			Class: errClass(code),
		}, "", "  ")
		w.Header().Del("X-Content-Type-Options")
		w.Header().Del("Content-Length")
		w.Header().Set("Content-Type", "application/json")
		w.ResponseWriter.WriteHeader(code)
		w.ResponseWriter.Write(append(body, '\n'))
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *envelopeWriter) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.intercepted {
		return len(p), nil // swallow the replaced plain-text body
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so SSE watch streams can
// push events through the envelope interceptor.
func (w *envelopeWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

// errEnvelope is the one shape every error response takes (see the
// package doc): a human-readable message, a machine-readable class
// derived from the status code, and — on shed/draining responses —
// the Retry-After hint mirrored into the body.
type errEnvelope struct {
	Error      string `json:"error"`
	Class      string `json:"class"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

// errClass maps a status code onto the envelope's class vocabulary.
func errClass(code int) string {
	switch code {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusTooManyRequests:
		return "shed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errEnvelope{Error: fmt.Sprintf(format, args...), Class: errClass(code)})
}

// badRequest is the 400 path for client mistakes — malformed JSON,
// unknown fields, oversized bodies, invalid specs — counted separately
// from server-side failures so the error-path tests (and operators)
// can see rejects move without parsing logs.
func (s *Server) badRequest(w http.ResponseWriter, format string, args ...any) {
	s.badRequests.Add(1)
	writeError(w, http.StatusBadRequest, format, args...)
}

// maxSpecBytes bounds job and campaign submission bodies: a canonical
// spec is well under a kilobyte, so anything past this is hostile or
// broken and is rejected before buffering more.
const maxSpecBytes = 1 << 20

// writeShed is the load-shedding variant of writeError: the same
// envelope with a Retry-After hint in both the header and the body,
// so clients (and the CI smoke) can back off mechanically instead of
// hammering.
func writeShed(w http.ResponseWriter, code, retryAfter int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeJSON(w, code, errEnvelope{
		Error: fmt.Sprintf(format, args...), Class: errClass(code), RetryAfter: retryAfter,
	})
}

// writeReject maps a submit error onto the unified shedding shape:
// queue-full is 429 with a Retry-After scaled to the backlog (the
// queue drains at roughly one job per worker slot), shutting-down is
// 503 with a fixed hint (the restarted server is seconds away, not
// milliseconds).
func (s *Server) writeReject(w http.ResponseWriter, err error, format string, args ...any) {
	switch {
	case errors.Is(err, errQueueFull):
		writeShed(w, http.StatusTooManyRequests, min(1+int(s.queued.Load())/s.cfg.Jobs, 60), format, args...)
	case errors.Is(err, errShuttingDown):
		writeShed(w, http.StatusServiceUnavailable, 10, format, args...)
	default:
		writeError(w, http.StatusServiceUnavailable, format, args...)
	}
}

// jobView is the status envelope for one job.
type jobView struct {
	ID          string        `json:"id"`
	Spec        store.JobSpec `json:"spec"`
	Status      string        `json:"status"`
	Cached      bool          `json:"cached"`
	Error       string        `json:"error,omitempty"`
	ErrorClass  string        `json:"error_class,omitempty"`
	Verdict     string        `json:"verdict,omitempty"`
	Inits       int           `json:"inits,omitempty"`
	States      int           `json:"states,omitempty"`
	Transitions int64         `json:"transitions,omitempty"`
	Violations  int           `json:"violations,omitempty"`
}

func (s *Server) view(j *job) jobView {
	v := jobView{ID: j.key, Spec: j.spec, Status: j.status, Cached: j.cached, Error: j.errMsg, ErrorClass: j.errClass}
	if j.res != nil {
		v.Verdict = j.res.Verdict()
		v.Inits = j.res.Inits
		v.States = j.res.States
		v.Transitions = j.res.Transitions
		v.Violations = len(j.res.Violations)
	}
	return v
}

// errQueueFull rejects submissions past Config.MaxQueue.
var errQueueFull = fmt.Errorf("serve: job queue is full, retry later")

// storeBreaker is the verdict store's circuit breaker (Config's
// BreakerFailures and BreakerCooldown), owning its lock and its two
// counters. until zero = closed; in the future = open (jobs run
// compute-only); in the past = half-open (the next store write is the
// probe: success closes it, failure re-opens it).
type storeBreaker struct {
	threshold int // consecutive failures that trip it; negative = disabled
	cooldown  time.Duration
	logf      func(format string, args ...any)

	failures, trips atomic.Int64

	mu    sync.Mutex
	fails int // consecutive failures
	until time.Time
}

// Breaker states, as /metrics and /readyz report them.
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

var breakerNames = [...]string{"closed", "half-open", "open"}

func (b *storeBreaker) state() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.until.IsZero():
		return breakerClosed
	case time.Now().Before(b.until):
		return breakerOpen
	default:
		return breakerHalfOpen
	}
}

// available reports whether jobs should touch the verdict store.
func (b *storeBreaker) available() bool { return b.state() != breakerOpen }

// record feeds one store-write outcome to the breaker: a success
// closes it; a failure trips it after threshold consecutive ones (or
// re-opens it after a failed half-open probe).
func (b *storeBreaker) record(err error) {
	if err != nil {
		b.failures.Add(1)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case err == nil:
		if !b.until.IsZero() {
			b.logf("store breaker closed: store write succeeded")
		}
		b.fails, b.until = 0, time.Time{}
	case b.threshold >= 0:
		b.fails++
		if b.fails >= b.threshold && (b.until.IsZero() || time.Now().After(b.until)) {
			b.until = time.Now().Add(b.cooldown)
			b.trips.Add(1)
			b.logf("store breaker open for %v after %d consecutive write failures (%v): compute-only until the store recovers",
				b.cooldown, b.fails, err)
		}
	}
}

// submit registers a job for the canonical spec, joining an existing
// identical job (in flight or completed) or serving it from the store.
// Returns the job and whether this submission created it; the error is
// errQueueFull when the job would exceed the queue bound (the handler
// turns it into a 503).
func (s *Server) submit(spec store.JobSpec) (*job, bool, error) {
	key := spec.Key()
	s.submitted.Add(1)
	s.mu.Lock()
	if j, ok := s.jobs[key]; ok && j.status != StatusFailed {
		s.deduped.Add(1)
		if j.status == StatusDone {
			// Joining a completed job serves its verdict without
			// recomputation: a (memory-level) cache hit.
			s.cacheHits.Add(1)
		}
		s.mu.Unlock()
		return j, false, nil
	}
	// A failed record (queue rejection, execution error) does not pin
	// the key: a resubmission retries fresh.
	// Install a placeholder so concurrent identical submissions join it,
	// then probe the store outside the lock (disk I/O plus decoding a
	// result that can embed large counterexample traces must not stall
	// every other handler).
	j := &job{spec: spec, key: key, status: StatusQueued}
	s.jobs[key] = j
	s.mu.Unlock()

	// With the breaker open the store is known bad: skip the disk probe
	// (a miss at worst costs a recompute; a hang here would stall every
	// handler behind a dead disk).
	var (
		res *explore.Result
		raw []byte
		hit bool
	)
	if s.breaker.available() {
		res, raw, hit = s.cfg.Store.Get(spec)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if hit {
		s.cacheHits.Add(1)
		j.status, j.cached, j.res, j.result = StatusDone, true, res, raw
		s.finishLocked(j)
		return j, true, nil
	}
	var reject error
	switch {
	case s.cfg.MaxQueue >= 0 && s.queued.Load() >= int64(s.cfg.MaxQueue):
		reject = errQueueFull
	case s.baseCtx.Err() != nil:
		// Draining: reject rather than spawn a job whose context is
		// already cancelled (and whose jobsWG.Add could race Drain's
		// Wait — the cancel and this check are both under s.mu, so an
		// accepted Add strictly precedes the Wait).
		reject = errShuttingDown
	}
	if reject != nil {
		// Fail the record in place — anyone who joined the placeholder
		// meanwhile (and already holds a 202 with this id) polls into
		// the failure instead of a vanished 404 — and, like any failed
		// record, let a later resubmission retry fresh.
		s.rejected.Add(1)
		j.status, j.errMsg = StatusFailed, reject.Error()
		s.finishLocked(j)
		return nil, false, reject
	}
	s.cacheMisses.Add(1)
	s.queued.Add(1)
	s.jobsWG.Add(1)
	go s.run(j)
	return j, true, nil
}

// errShuttingDown rejects submissions that arrive while Drain is in
// progress (503, like a full queue).
var errShuttingDown = fmt.Errorf("serve: shutting down, retry against the restarted server")

// Drain stops accepting new exploration work and waits (up to the
// timeout) for the running jobs to notice the cancellation and persist
// their checkpoints — the graceful half of "kill -9 safe": a SIGTERM
// loses at most one chunk of work per job, a SIGKILL at most
// CheckpointEvery states.
func (s *Server) Drain(timeout time.Duration) bool {
	// Under s.mu so no submit can observe an un-cancelled context and
	// then Add after our Wait starts.
	s.mu.Lock()
	s.stopJobs()
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// finishLocked publishes a finished job's terminal event and records
// it for FIFO eviction, evicting past the retention bound. Called with
// s.mu held.
func (s *Server) finishLocked(j *job) {
	s.publishJobTerminalLocked(j)
	s.doneOrder = append(s.doneOrder, j.key)
	if s.cfg.RetainJobs < 0 {
		return
	}
	for len(s.doneOrder) > s.cfg.RetainJobs {
		old := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		// The key may have been re-created since (evict → store hit →
		// fresh record): only drop finished records, never live ones.
		if j := s.jobs[old]; j != nil && (j.status == StatusDone || j.status == StatusFailed) {
			delete(s.jobs, old)
		}
	}
}

// hydrate rebuilds a finished job from its store entry after
// eviction (or from another process's run): the job id is the content
// key, so the verdict is recoverable byte-identically. The returned
// record is transient and private to the caller.
func (s *Server) hydrate(key string) *job {
	spec, res, raw, ok := s.cfg.Store.GetByKey(key)
	if !ok {
		return nil
	}
	return &job{spec: spec, key: key, status: StatusDone, cached: true, res: res, result: raw}
}

func (s *Server) run(j *job) {
	defer s.jobsWG.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	s.mu.Lock()
	s.queued.Add(-1)
	s.running.Add(1)
	j.status = StatusRunning
	s.mu.Unlock()
	s.logf("job %s running: %s", j.key[:12], j.spec)

	// With the breaker open the store is known bad: the cell runs
	// compute-only — no lookup, no checkpoints (snapshots live in the
	// same store that just failed), no write.
	var st store.Interface
	if s.breaker.available() {
		st = s.cfg.Store
	}
	stats := &explore.RunStats{}
	eo := campaign.ExecOptions{
		Workers:   s.cfg.JobWorkers,
		MemBudget: s.cfg.MemBudget,
		SpillDir:  s.cfg.SpillDir,
		FS:        s.cfg.FS,
		Stats:     stats,
		Progress:  s.progressFunc(j.key, stats),
		// A failed job is terminal here: the client's resubmission is
		// the retry, and the breaker counts every store-write failure.
		Retries: -1,
	}
	if s.cfg.CheckpointEvery > 0 && st != nil {
		eo.Checkpoints = st
		eo.CheckpointEvery = s.cfg.CheckpointEvery
	}
	jobCtx, cancelJob := s.baseCtx, context.CancelFunc(func() {})
	if s.cfg.JobTimeout > 0 {
		jobCtx, cancelJob = context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	}
	start := time.Now()
	out := campaign.Cell(jobCtx, st, j.spec, eo)
	cancelJob()
	elapsed := time.Since(start)
	res, err := out.Result, out.Err
	interrupted := out.Status == campaign.StatusSkipped
	// A deadline on jobCtx with baseCtx still live is this job's own
	// timeout, not a shutdown.
	timedOut := interrupted && errors.Is(jobCtx.Err(), context.DeadlineExceeded) && s.baseCtx.Err() == nil

	// Serve the exact bytes the store now holds; if persisting failed
	// the verdict is still correct, so marshal it directly (the next
	// identical submission will recompute).
	raw := out.Raw
	if st != nil && err == nil && out.Status != campaign.StatusHit {
		s.breaker.record(out.PersistErr)
		if out.PersistErr == nil && s.cfg.Gossip != nil {
			// Announce the fresh verdict to the fleet: the peers' next
			// identical submission is a store hit, not a recomputation.
			s.cfg.Gossip.Committed(j.key)
		}
	}
	if err == nil && raw == nil {
		raw, _ = json.Marshal(res)
	}

	s.addExploreStats(eo.Stats)
	if eo.Stats.ResumedStates > 0 {
		s.jobsResumed.Add(1)
	}
	s.mu.Lock()
	s.running.Add(-1)
	switch {
	case timedOut:
		s.failures.Add(1)
		s.jobsTimedOut.Add(1)
		j.status, j.errMsg = StatusFailed,
			fmt.Sprintf("job exceeded the %v wall-clock timeout (checkpoint saved if enabled; resubmit to resume)", s.cfg.JobTimeout)
	case interrupted:
		// Shutdown cancellation: the snapshot (if enabled) is on disk
		// and a post-restart resubmission resumes it; the record fails
		// so in-flight pollers see a terminal state.
		s.interrupted.Add(1)
		j.status, j.errMsg = StatusFailed, "interrupted by shutdown (checkpoint saved; resubmit to resume)"
	case err != nil:
		s.failures.Add(1)
		j.status, j.errMsg = StatusFailed, err.Error()
		// A classifiable I/O fault (spill write, checkpoint read)
		// surfaces its class in the envelope, mirroring the CLIs'
		// exit-code-4 discipline; validation and logic errors stay
		// unclassified.
		if cl := chaos.Classify(err); cl != chaos.Unknown {
			j.errClass = cl.String()
		}
	case out.Status == campaign.StatusHit:
		// The verdict landed between submit's probe and this job's turn
		// (gossip, or another process sharing the cache directory).
		s.cacheHits.Add(1)
		j.status, j.cached, j.res, j.result = StatusDone, true, res, raw
	default:
		s.executed.Add(1)
		// Restored states count under ccserve_states_resumed_total; this
		// run explored only the rest, in elapsed.
		s.statesExplored.Add(int64(res.States - eo.Stats.ResumedStates))
		s.exploreNanos.Add(elapsed.Nanoseconds())
		j.status, j.res, j.result = StatusDone, res, raw
	}
	s.finishLocked(j)
	s.mu.Unlock()
	switch {
	case timedOut:
		s.logf("job %s timed out after %v at %d states", j.key[:12], elapsed.Round(time.Millisecond), res.States)
	case interrupted:
		s.logf("job %s interrupted at %d states (checkpoint saved)", j.key[:12], res.States)
	case err != nil:
		s.logf("job %s failed: %v", j.key[:12], err)
	default:
		extra := ""
		if eo.Stats.ResumedStates > 0 {
			extra = fmt.Sprintf(", resumed from %d states", eo.Stats.ResumedStates)
		}
		s.logf("job %s done: %s in %v (%d states%s)", j.key[:12], res.Verdict(), elapsed.Round(time.Millisecond), res.States, extra)
	}
}

// addExploreStats adds one exploration's explorer counters to the
// server's: a job's (run), or a cluster engine's as it closes
// (clusterPeer.leave), whose phase clocks stay zero — the coordinator's
// layer driver runs them.
func (s *Server) addExploreStats(st *explore.RunStats) {
	s.checkpointsWritten.Add(int64(st.CheckpointsWritten))
	s.checkpointErrors.Add(int64(st.CheckpointErrors))
	s.statesResumed.Add(int64(st.ResumedStates))
	s.coldReads.Add(st.ColdReads)
	s.localLookups.Add(st.LocalLookups)
	s.localHits.Add(st.LocalHits)
	for i, sec := range [...]float64{st.SeedSeconds, st.ExpandSeconds, st.CommitSeconds} {
		s.phaseNanos[i].Add(int64(sec * 1e9))
	}
}

// validateSpec canonicalizes and fully validates a submission,
// including the server-side state-bound cap.
func (s *Server) validateSpec(spec store.JobSpec) (store.JobSpec, error) {
	c := spec.Canonical()
	if err := campaign.Validate(c); err != nil {
		return c, err
	}
	if cap := s.cfg.MaxStatesCap; cap > 0 && (c.MaxStates < 0 || c.MaxStates > cap) {
		return c, fmt.Errorf("serve: max_states %d exceeds this server's cap of %d", c.MaxStates, cap)
	}
	return c, nil
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec store.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.badRequest(w, "bad job spec: %v", err)
		return
	}
	c, err := s.validateSpec(spec)
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	j, created, err := s.submit(c)
	if err != nil {
		s.writeReject(w, err, "%v", err)
		return
	}
	s.mu.Lock()
	v := s.view(j)
	s.mu.Unlock()
	if !created && v.Status == StatusDone {
		// The verdict was served without recomputation, whether it came
		// from the store or from this process's completed job.
		v.Cached = true
	}
	code := http.StatusAccepted
	if v.Status == StatusDone || v.Status == StatusFailed {
		code = http.StatusOK
	}
	writeJSON(w, code, v)
}

// getJob resolves a job id: the in-memory record if present, else a
// transient re-hydration from the store (evicted jobs, or verdicts
// computed by another process sharing the cache directory).
func (s *Server) getJob(id string) *job {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j != nil {
		return j
	}
	return s.hydrate(id)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	v := s.view(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	status, errMsg, result := j.status, j.errMsg, j.result
	s.mu.Unlock()
	switch status {
	case StatusFailed:
		writeError(w, http.StatusInternalServerError, "%s", errMsg)
	case StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": j.key, "status": status})
	}
}

func (s *Server) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.badRequest(w, "bad campaign spec: %v", err)
		return
	}
	cells, err := spec.Expand()
	if err != nil {
		s.badRequest(w, "%v", err)
		return
	}
	// Validate every cell against the server cap before any work runs:
	// a partially-rejected campaign would be confusing to aggregate.
	keys := make([]string, len(cells))
	for i, c := range cells {
		if _, err := s.validateSpec(c); err != nil {
			s.badRequest(w, "cell %s: %v", c, err)
			return
		}
		keys[i] = c.Key()
	}
	id := store.CampaignID(keys)
	// Submit every cell before registering the campaign, so a GET for
	// the id can never observe a partially-submitted grid.
	for i, c := range cells {
		if _, _, err := s.submit(c); err != nil {
			// Already-queued cells keep running and persist; the client
			// resubmits the campaign once the queue drains and the done
			// cells are cache hits.
			s.writeReject(w, err, "%v after %d/%d cells", err, i, len(cells))
			return
		}
	}
	s.mu.Lock()
	c, existed := s.campaigns[id]
	if !existed {
		c = &camp{id: id, keys: keys, terminal: map[string]bool{}}
		s.campaigns[id] = c
		for _, k := range keys {
			s.cellCampaigns[k] = append(s.cellCampaigns[k], id)
		}
	}
	// Cells that finished before the registration above — store hits
	// served synchronously inside submit, or fast jobs — publish their
	// cell events now, so a watcher subscribing off this response's id
	// replays a complete picture (including the campaign's done event
	// when every cell was already cached).
	for _, k := range keys {
		if j := s.jobs[k]; j != nil && (j.status == StatusDone || j.status == StatusFailed) {
			s.publishCellLocked(c, j)
		}
	}
	s.mu.Unlock()
	// Persist the manifest so summary/diff queries survive restarts
	// and work offline (cccheck -mode query). Same breaker discipline
	// as verdict writes: with the store down the in-memory record
	// still serves this process.
	if !existed && s.breaker.available() {
		s.breaker.record(s.cfg.Store.PutCampaign(id, keys))
	}
	s.logf("campaign %s: %d cells", id[:12], len(cells))
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "cells": len(cells), "resubmitted": existed})
}

// campaignView is the aggregate for one campaign: cells in expansion
// order, so a completed campaign renders deterministically.
type campaignView struct {
	ID        string    `json:"id"`
	Status    string    `json:"status"` // running | done
	Cells     int       `json:"cells"`
	Done      int       `json:"done"`
	CacheHits int       `json:"cache_hits"`
	Verified  int       `json:"verified"`
	Bounded   int       `json:"bounded"`
	Violated  int       `json:"violated"`
	Failed    int       `json:"failed"`
	Results   []jobView `json:"results"`
}

// campaignKeys resolves a campaign id to its cell keys: the in-memory
// record if this process accepted the submission, else the persisted
// manifest (another process's campaign, or one from before a
// restart).
func (s *Server) campaignKeys(id string) ([]string, bool) {
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c != nil {
		return append([]string(nil), c.keys...), true
	}
	return s.cfg.Store.GetCampaign(id)
}

func (s *Server) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	keys, ok := s.campaignKeys(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.campaignStatus(id, keys))
}

// handleHealthz is liveness only: the process is up and serving. It
// stays 200 while draining or degraded — use /readyz to decide whether
// to send work here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"cache_dir":      s.cfg.Store.Dir(),
	})
}

// handleReadyz is readiness: 503 + Retry-After while draining (new
// submissions are rejected anyway), 200 otherwise — with degraded=true
// while the store breaker is open and verdicts are compute-only.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.baseCtx.Err() != nil {
		w.Header().Set("Retry-After", "10")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready":  false,
			"reason": "draining: new submissions are rejected while running jobs checkpoint",
		})
		return
	}
	state := s.breaker.state()
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":       true,
		"degraded":    state != breakerClosed,
		"breaker":     breakerNames[state],
		"queue_depth": s.queued.Load(),
		"in_flight":   s.inFlight.Load(),
	})
}

// metricsTable is the /metrics exposition in order: one row per series
// (the latency histogram is one row), each name spelled here and
// nowhere else. read returns an integer (rendered %d), a float64 (%g),
// the histogram, or nil to leave the row out.
var metricsTable = []struct {
	name string
	read func(s *Server) any
}{
	{"ccserve_jobs_submitted_total", func(s *Server) any { return s.submitted.Load() }},
	{"ccserve_jobs_deduped_total", func(s *Server) any { return s.deduped.Load() }},
	{"ccserve_jobs_executed_total", func(s *Server) any { return s.executed.Load() }},
	{"ccserve_jobs_failed_total", func(s *Server) any { return s.failures.Load() }},
	{"ccserve_jobs_rejected_total", func(s *Server) any { return s.rejected.Load() }},
	{"ccserve_jobs_interrupted_total", func(s *Server) any { return s.interrupted.Load() }},
	{"ccserve_requests_shed_total", func(s *Server) any { return s.shed.Load() }},
	{"ccserve_jobs_timed_out_total", func(s *Server) any { return s.jobsTimedOut.Load() }},
	{"ccserve_store_failures_total", func(s *Server) any { return s.breaker.failures.Load() }},
	{"ccserve_breaker_trips_total", func(s *Server) any { return s.breaker.trips.Load() }},
	{"ccserve_breaker_state", func(s *Server) any { return s.breaker.state() }},
	{"ccserve_quarantined_total", func(s *Server) any { return s.cfg.Store.Quarantined() }},
	{"ccserve_checkpoint_errors_total", func(s *Server) any { return s.checkpointErrors.Load() }},
	{"ccserve_checkpoints_written_total", func(s *Server) any { return s.checkpointsWritten.Load() }},
	{"ccserve_jobs_resumed_total", func(s *Server) any { return s.jobsResumed.Load() }},
	{"ccserve_states_resumed_total", func(s *Server) any { return s.statesResumed.Load() }},
	{"ccserve_cache_hits_total", func(s *Server) any { return s.cacheHits.Load() }},
	{"ccserve_cache_misses_total", func(s *Server) any { return s.cacheMisses.Load() }},
	{"ccserve_cache_hit_ratio", func(s *Server) any {
		hits := s.cacheHits.Load()
		return ratio(float64(hits), float64(hits+s.cacheMisses.Load()))
	}},
	{"ccserve_states_explored_total", func(s *Server) any { return s.statesExplored.Load() }},
	{"ccserve_states_per_second", func(s *Server) any {
		return ratio(float64(s.statesExplored.Load()), float64(s.exploreNanos.Load())/1e9)
	}},
	{`ccserve_explore_phase_seconds_total{phase="seed"}`, phaseRow(0)},
	{`ccserve_explore_phase_seconds_total{phase="expand"}`, phaseRow(1)},
	{`ccserve_explore_phase_seconds_total{phase="commit"}`, phaseRow(2)},
	{"ccserve_explore_cold_reads_total", func(s *Server) any { return s.coldReads.Load() }},
	{"ccserve_explore_local_cache_lookups_total", func(s *Server) any { return s.localLookups.Load() }},
	{"ccserve_explore_local_cache_hits_total", func(s *Server) any { return s.localHits.Load() }},
	{"ccserve_queue_depth", func(s *Server) any { return s.queued.Load() }},
	{"ccserve_jobs_running", func(s *Server) any { return s.running.Load() }},
	{"ccserve_bad_requests_total", func(s *Server) any { return s.badRequests.Load() }},
	{"ccserve_queries_total", func(s *Server) any { return s.queries.Load() }},
	{"ccserve_compactions_total", func(s *Server) any { return s.compactions.Load() }},
	{"ccserve_cluster_jobs_open", func(s *Server) any {
		s.clusterMu.Lock()
		defer s.clusterMu.Unlock()
		return len(s.clusterJobs)
	}},
	{"ccserve_cluster_opens_total", func(s *Server) any { return s.clusterOpens.Load() }},
	{"ccserve_cluster_frames_in_total", func(s *Server) any { return s.clusterFramesIn.Load() }},
	{"ccserve_cluster_frame_bytes_total", func(s *Server) any { return s.clusterFrameBytes.Load() }},
	{"ccserve_cluster_adoptions_total", func(s *Server) any { return s.clusterAdoptions.Load() }},
	{"ccserve_cluster_errors_total", func(s *Server) any { return s.clusterErrors.Load() }},
	{"ccserve_worker_slots", func(s *Server) any { return cap(s.sem) }},
	{"ccserve_job_workers", func(s *Server) any { return s.cfg.JobWorkers }},
	// The push plane: watch streams, broker fan-out, verdict gossip.
	{"ccserve_watch_streams", func(s *Server) any { return s.watchConns.Load() }},
	{"ccserve_watch_topics", func(s *Server) any { return s.broker.Topics() }},
	{"ccserve_events_published_total", func(s *Server) any { return s.broker.Published() }},
	{"ccserve_watch_evictions_total", func(s *Server) any { return s.broker.Evictions() }},
	{"ccserve_gossip_ingested_total", gossipRow((*gossip.Node).Ingested, 0)},
	{"ccserve_gossip_log_seq", gossipRow((*gossip.Node).Seq, nil)},
	{"ccserve_gossip_corrupt_total", gossipRow((*gossip.Node).Corrupt, nil)},
	{"ccserve_http_request_seconds", func(s *Server) any { return &s.hist }},
	{"ccserve_uptime_seconds", func(s *Server) any { return time.Since(s.start).Seconds() }},
}

// gossipRow reads a series off the gossip node; none stands in without one.
func gossipRow[T any](read func(*gossip.Node) T, none any) func(*Server) any {
	return func(s *Server) any {
		if s.cfg.Gossip == nil {
			return none
		}
		return read(s.cfg.Gossip)
	}
}

// phaseRow reads one explorer phase clock, in seconds.
func phaseRow(i int) func(*Server) any {
	return func(s *Server) any { return float64(s.phaseNanos[i].Load()) / 1e9 }
}

// ratio is a/b, or 0 before the first sample.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// handleMetrics renders metricsTable. It takes no server lock.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, m := range metricsTable {
		switch v := m.read(s).(type) {
		case nil:
		case *latencyHist:
			v.render(w, m.name)
		default:
			fmt.Fprintf(w, "%s %v\n", m.name, v)
		}
	}
}
