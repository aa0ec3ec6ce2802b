// Command ccserve exposes the exhaustive checker as an HTTP service
// backed by the content-addressed verdict store: submit a job spec,
// poll its verdict, and let identical submissions — from any client,
// or from cccheck/ccbench runs sharing the same -cache directory —
// dedupe against in-flight work and completed entries instead of
// recomputing.
//
//	ccserve -addr :8344 -cache ./verdicts
//
//	curl -s localhost:8344/healthz
//	curl -s -X POST localhost:8344/v1/jobs -d '{"alg":"cc2","topo":"ring:3","daemon":"central","init":"cc-full"}'
//	curl -s localhost:8344/v1/jobs/<id>
//	curl -s localhost:8344/v1/jobs/<id>/result
//	curl -sN localhost:8344/v1/jobs/<id>/watch
//	curl -s -X POST localhost:8344/v1/campaigns -d '{"algs":["cc1","cc2"],"topos":["ring:3"],"inits":["cc"]}'
//	curl -s localhost:8344/v1/campaigns/<id>
//	curl -sN localhost:8344/v1/campaigns/<id>/watch
//	curl -s 'localhost:8344/v1/verdicts?filter=alg%3Dcc2,verdict%3Dviolated'
//	curl -s localhost:8344/v1/campaigns/<id>/summary
//	curl -s 'localhost:8344/v1/campaigns/diff?a=<id>&b=<id>'
//	curl -s localhost:8344/v1/store/stats
//	curl -s -X POST localhost:8344/v1/store/compact
//	curl -s localhost:8344/metrics
//
// The query plane (GET /v1/verdicts, /v1/campaigns/{id}/summary,
// /v1/campaigns/diff) answers list/filter/summary/diff questions over
// the verdict store; its JSON bodies are byte-identical to cccheck
// -mode query over the same directory. The management plane
// (/v1/store/stats, POST /v1/store/compact) inspects and compacts the
// store; compaction never changes a served verdict byte. The full HTTP
// surface, the error envelope {"error","class","retry_after"} every
// non-2xx response carries, and the filter grammar are specified in
// docs/api.md.
//
// The watch endpoints stream text/event-stream: progress events while
// a job runs, exactly one terminal verdict/failed event (per-cell and
// done events for campaigns), with Last-Event-ID (or ?after=N) resume.
// With -gossip-peers each node announces newly committed verdict keys
// to its peers and fetches the ones it lacks over /v1/gossip/*, so a
// job completed on any node is a store hit fleet-wide; ingested
// entries are checksum-reverified and corrupt ones quarantined.
//
// The -cache directory is opened in whichever layout it already holds
// — dir (one file per verdict) or log (append-only checksummed segments
// with background compaction); both serve byte-identical entries. A
// fresh directory starts as dir, the layout any number of processes may
// write at once. -store-engine log starts it as log instead: a Put is
// one appended record rather than one file, but only one process at a
// time may have a log-layout cache open for writing, and nothing on
// disk enforces that — a second writer silently replaces the first
// one's segments. It is the choice for a server that owns its cache.
//
// Any ccserve can be a peer of a distributed check: a cccheck -peers
// coordinator opens the job over /v1/cluster/rpc with the peer list it
// drives, one visited-set shard per peer. The peers must share one
// -cache directory so shard snapshots can migrate on node loss — which
// makes that directory a dir-layout one.
//
// Concurrency: at most -jobs explorations run at once, each with
// -job-workers explorer goroutines (default: jobs × workers ≈
// GOMAXPROCS), so any number of concurrent clients shares a bounded
// pool. Specs whose state bound exceeds -max-states-cap are rejected
// with 400.
//
// Degradation (see docs/robustness.md): submissions past -max-queue or
// -max-inflight are shed with 429 + Retry-After; each job runs under
// the -job-timeout wall clock; repeated verdict-store write failures
// trip a circuit breaker into compute-only mode (verdicts stay correct,
// persistence resumes when the store recovers). GET /healthz is
// liveness only; GET /readyz is readiness (503 while draining).
//
// Exit status: 0 on clean shutdown (SIGINT/SIGTERM), 2 on usage or
// startup errors, 4 when the verdict store cannot be opened for a
// classified I/O reason (the message names the path, errno and class).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/explore"
	"repro/internal/gossip"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8344", "listen address")
		cacheDir   = flag.String("cache", "", "verdict-store directory (required; shared with cccheck/ccbench -cache)")
		jobs       = flag.Int("jobs", 2, "explorations running concurrently")
		jobWorkers = flag.Int("job-workers", 0, "explorer goroutines per job (0 = GOMAXPROCS/jobs)")
		storeEng   = flag.String("store-engine", "", "layout for a fresh -cache: dir (one file per verdict; concurrent processes may share it) or log (append-only segments with compaction, faster Put; one writing process at a time, not enforced). Empty = the layout the directory holds, dir when it holds none; Get bytes are identical either way")
		maxStates  = flag.Int("max-states-cap", 6_000_000, "reject jobs whose state bound exceeds this (negative = uncapped)")
		retain     = flag.Int("retain-jobs", 1024, "finished jobs kept in memory; older ones re-hydrate from the store on demand (negative = unlimited)")
		maxQueue   = flag.Int("max-queue", 256, "jobs waiting for a worker slot before submissions get 503 (negative = unlimited)")
		ckptEvery  = flag.Int("checkpoint-every", 1_000_000, "running jobs persist a resumable snapshot under their content key every N expanded states and on shutdown; resubmitting after a restart resumes them (negative = disabled)")
		memBudget  = flag.String("mem-budget", "", "per-job in-memory explorer budget (e.g. 256M, 2G; empty = unlimited): past it the exploration spills to temp files with an identical verdict")
		spillDir   = flag.String("spill-dir", "", "directory for out-of-core spill scratch (empty = the system temp dir)")
		jobTimeout = flag.Duration("job-timeout", time.Hour, "per-job wall-clock budget: a job past it fails (checkpoint saved; resubmit to resume); 0 = no timeout")
		maxInFl    = flag.Int("max-inflight", 512, "concurrently-handled API requests before shedding with 429 + Retry-After (negative = unlimited; /healthz, /readyz, /metrics are exempt)")
		gossipSelf = flag.String("gossip-self", "", "this node's advertised base URL for verdict gossip (required with -gossip-peers; e.g. http://a:8344)")
		gossipPeer = flag.String("gossip-peers", "", "comma-separated base URLs of peers to gossip committed verdicts with (own -cache per peer, unlike the peers of a cccheck -peers cluster): a job completed anywhere becomes a store hit fleet-wide; every ingested entry is checksum-verified and corrupt ones are quarantined, never served")
		gossipInt  = flag.Duration("gossip-interval", 5*time.Second, "anti-entropy cadence: how often to pull each gossip peer's commit log and retry failed fetches")
		quiet      = flag.Bool("quiet", false, "suppress per-job log lines")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if *cacheDir == "" {
		fatalf("-cache DIR is required (the verdict store shared with cccheck/ccbench)")
	}
	if *jobs < 1 {
		fatalf("-jobs must be >= 1, got %d", *jobs)
	}
	budget, err := campaign.ParseBytes("mem-budget", *memBudget)
	if err != nil {
		fatalf("%v", err)
	}
	st, err := store.OpenEngine(*storeEng, *cacheDir, nil)
	if err != nil {
		if chaos.Classify(err) != chaos.Unknown {
			fmt.Fprintf(os.Stderr, "ccserve: %s\n", chaos.Describe(err))
			os.Exit(4)
		}
		fatalf("%v", err)
	}
	// Startup hygiene: a killed predecessor may have left half-written
	// store temp files, checkpoints it never got to delete, and spill
	// scratch from in-flight explorations.
	if n := st.GCTemp(); n > 0 {
		log.Printf("ccserve: removed %d orphaned store temp file(s)", n)
	}
	if n := st.GCCheckpoints(); n > 0 {
		log.Printf("ccserve: removed %d orphaned checkpoint file(s)", n)
	}
	if n := explore.GCSpill(*spillDir); n > 0 {
		log.Printf("ccserve: removed %d orphaned spill scratch entr(ies)", n)
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	st.SetLog(logf) // quarantine/retry lines share the job log stream
	// The gossip node must exist before the server (serve mounts its
	// endpoints and announces committed keys to it), but its OnIngest
	// hook needs the server — hence the pointer indirection.
	var gnode *gossip.Node
	var srvPtr atomic.Pointer[serve.Server]
	if *gossipPeer != "" {
		if *gossipSelf == "" {
			fatalf("-gossip-peers requires -gossip-self (this node's advertised base URL)")
		}
		self := strings.TrimRight(*gossipSelf, "/")
		var neighbors []string
		for _, p := range strings.Split(*gossipPeer, ",") {
			if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" && p != self {
				neighbors = append(neighbors, p)
			}
		}
		gnode = gossip.New(gossip.Config{
			Self: self, Neighbors: neighbors, Store: st, Interval: *gossipInt,
			OnIngest: func(key string) {
				if sv := srvPtr.Load(); sv != nil {
					sv.GossipIngested(key)
				}
			},
			Log: logf,
		})
	}
	srv, err := serve.New(serve.Config{
		Store: st, Jobs: *jobs, JobWorkers: *jobWorkers,
		MaxStatesCap: *maxStates, RetainJobs: *retain, MaxQueue: *maxQueue,
		CheckpointEvery: *ckptEvery, MemBudget: budget, SpillDir: *spillDir,
		JobTimeout: *jobTimeout, MaxInFlight: *maxInFl,
		Gossip: gnode, Log: logf,
	})
	if err != nil {
		fatalf("%v", err)
	}
	srvPtr.Store(srv)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	// The resolved address matters with -addr :0 (tests, scripts).
	log.Printf("ccserve: listening on %s (cache %s, %d job slots)", ln.Addr(), *cacheDir, *jobs)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("%v", err)
		}
	case <-ctx.Done():
		log.Printf("ccserve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			fatalf("shutdown: %v", err)
		}
		// Cancel running explorations and wait for their checkpoints to
		// land, so a restart resumes them instead of redoing the work.
		if !srv.Drain(10 * time.Second) {
			log.Printf("ccserve: drain timed out; some jobs may restart from an older checkpoint")
		}
	}
	if gnode != nil {
		gnode.Close()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ccserve: "+format+"\n", args...)
	os.Exit(2)
}
