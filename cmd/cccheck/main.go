// Command cccheck verifies the committee-coordination specification
// instead of sampling it: in exhaustive mode it enumerates the full
// reachable configuration space of an algorithm on a small topology —
// from every initial configuration of the chosen fault family, branching
// over every daemon choice — and checks Exclusion, Synchronization,
// Essential Discussion, closure of Correct(p), convergence bounds and
// deadlock-freedom on every state and transition (the §2.5
// snap-stabilization contract as a proof-by-enumeration). In campaign
// mode the flags become comma lists and the cartesian grid fans across
// the worker pool. In query mode nothing is explored: the
// command reads an existing -cache warehouse and answers
// list/filter/summary/diff questions over the stored verdicts, with
// JSON bytes identical to the corresponding ccserve endpoints. In paper
// mode it regenerates the paper's tables (docs/paper-map.md) as
// markdown and asserts every claim they check. Sampled, monitored runs
// from random configurations on randomized topologies are ccsim's
// (ccsim -topo scenario:14 -random-init -runs 64).
//
//	cccheck -alg cc2 -topo ring:3                         # exhaustive, all daemon modes
//	cccheck -alg cc2 -topo ring:4 -init cc -daemon central  # the scaled instance (78k states, <1s)
//	cccheck -alg cc2 -topo ring:3 -cache ./verdicts       # reuse/persist verdicts (shared with ccserve)
//	cccheck -alg cc1 -topo star:4 -init random -random-inits 128
//	cccheck -alg cc2 -topo ring:3 -mutate leave-early     # must be caught (exit 1 + trace)
//	cccheck -alg dining -topo ring:3                      # baselines: legit init only
//	cccheck -alg token-ring -topo ring:5 -symmetry        # quotient modulo ring rotation
//	cccheck -mode campaign -alg cc1,cc2,cc3 -topo ring:3,star:4 \
//	        -daemon central,synchronous -init legit,cc -cache ./verdicts -j 8
//	cccheck -mode query -cache ./verdicts -filter alg=cc2,verdict=violated
//	cccheck -mode query -cache ./verdicts -summary <campaign-id>
//	cccheck -mode query -cache ./verdicts -diff <id-a>,<id-b>
//	cccheck -mode paper                                   # every experiment (parallel across the pool)
//	cccheck -mode paper -exp T45 -seed 7                  # one experiment
//	cccheck -mode paper -exp list                         # list experiment IDs
//	cccheck -mode paper -quick -j 1                       # reduced sizes, serial reference run
//
// A campaign streams per-cell progress, persists every completed cell
// before moving on, and prints one aggregate report whose bytes are
// identical at any -j; an interrupted campaign (Ctrl-C) resumes from
// the cache on the next run. A run that hits a bound
// (-max-states/-max-depth/-max-branch) reports "bounded", never
// "verified". -symmetry requires a model with a verified automorphism
// group (the token-ring baseline on rings; the CC algorithms on
// disjoint:K,S) and is exact: same verdict, states quotiented into
// rotation orbits.
//
// Two knobs decouple an exploration from this machine and this
// process (see docs/architecture.md):
//
//   - -mem-budget 256M bounds the explorer's in-memory footprint; past
//     it the cold visited arena (every layer already expanded) spills to
//     a temp file and the verdict is byte-identical to the in-memory
//     run.
//   - with -cache, a run checkpoints a resumable snapshot under the
//     job's content key every -checkpoint-every expanded states and on
//     SIGINT/SIGTERM (exit 3); re-running the same command resumes
//     from the snapshot — surviving even kill -9, which loses at most
//     one checkpoint interval — and finishes with verdict bytes
//     identical to an uninterrupted run.
//
// The -cache warehouse has two layouts: dir (one file per verdict) and
// log (append-only checksummed segments with background compaction,
// started by ccserve -store-engine log). A directory is opened in the
// layout it already holds, and a fresh one starts as dir. Both serve
// byte-identical entries and share the same layout for campaign
// manifests, checkpoints and quarantine. A dir-layout cache may be
// shared by concurrent processes; a log-layout one is open in one
// process at a time, enforced by a lock: pointed at the cache of a
// running ccserve -store-engine log, cccheck exits 4 with a message
// naming the lock.
//
// The query grammar: -filter takes comma-separated key=value pairs over
// alg, topo, daemon, init, mutation and verdict (verified | bounded |
// violated); -summary aggregates one campaign's pass rates; -diff
// compares two campaigns cell by cell. See docs/api.md for the full
// grammar and the matching HTTP endpoints.
//
// Paper mode prints the same bytes at any -j. With -cache, the MC
// experiment's exhaustive cells are served from and persisted to the
// verdict store. -exp and -quick belong to paper mode only.
//
// Unknown flag-grammar values — a misspelled daemon, an out-of-range
// topology size like ring:0, a trailing comma in a campaign list — are
// usage errors (exit 2 with a message), never silent defaults.
//
// -chaos SPEC (e.g. "seed=7,write=0.05,torn=0.02,flip=0.01") routes
// every durable I/O path — store writes, checkpoints, spill files —
// through a deterministic fault injector (see docs/robustness.md);
// verdicts stay byte-identical to a fault-free run or the process
// exits loudly with a classified I/O error, never a wrong answer.
//
// Exit status:
//
//	0  every check passed
//	1  a violation was found (counterexample traces are printed), or a
//	   paper claim failed
//	2  usage error (bad flag grammar, invalid spec, unknown experiment)
//	3  interrupted mid-exploration (checkpoint saved if -cache was given)
//	4  classified I/O failure (transient/permanent/corrupt) that
//	   survived the retry budget: the message names the path, errno and
//	   class; the cache and checkpoints are consistent — fix the disk
//	   and re-run
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/store"
)

func main() {
	var (
		algName   = flag.String("alg", "cc2", "algorithm: cc1 | cc2 | cc3 | dining | token-ring (campaign mode: comma list)")
		topo      = flag.String("topo", "ring:3", "topology spec (see internal/hypergraph.Parse; campaign mode: comma list)")
		mode      = flag.String("mode", "exhaustive", "exhaustive | campaign | query | paper")
		daemons   = flag.String("daemon", "", "comma list of central | synchronous | all (default all three)")
		initMode  = flag.String("init", "", "initial-configuration family: legit | cc | cc-full | random (default cc-full for CC, legit for the baselines; campaign mode: comma list)")
		randInits = flag.Int("random-inits", 256, "initial configurations for -init random")
		maxStates = flag.Int("max-states", 2_000_000, "distinct-configuration bound (0 or negative = unlimited)")
		maxDepth  = flag.Int("max-depth", 0, "BFS depth bound (0 = unlimited)")
		maxBranch = flag.Int("max-branch", 1<<16, "per-configuration branch bound")
		symmetry  = flag.Bool("symmetry", false, "explore modulo the model's rotation/block automorphism group (exact; only for models that declare one)")
		mutate    = flag.String("mutate", "", "deliberately break a guard: "+strings.Join(explore.Mutations(), " | ")+" (campaign mode: comma list, 'none' = unmutated)")
		cacheDir  = flag.String("cache", "", "content-addressed verdict store directory: serve cached verdicts, persist fresh ones (shared with ccserve; paper mode: serves the MC experiment's cells)")
		filterStr = flag.String("filter", "", "query mode: filter grammar, e.g. 'alg=cc2,topo=ring:3,verdict=violated' (empty = every stored verdict)")
		summaryID = flag.String("summary", "", "query mode: aggregate this campaign id's pass rate instead of listing verdicts")
		diffSpec  = flag.String("diff", "", "query mode: 'A,B' — diff two campaign ids cell by cell instead of listing verdicts")
		memBudget = flag.String("mem-budget", "", "in-memory budget for the explorer's visited set (e.g. 256M, 2G; empty = unlimited): past it the cold arena spills to a temp file with an identical verdict")
		ckptEvery = flag.Int("checkpoint-every", 1_000_000, "with -cache: persist a resumable exploration snapshot under the job's content key every N expanded states and on SIGINT/SIGTERM, so an interrupted run resumes instead of restarting (0 = on interruption only, negative = disabled)")
		spillDir  = flag.String("spill-dir", "", "directory for out-of-core spill scratch (empty = the system temp dir)")
		chaosSpec = flag.String("chaos", "", "fault-injection spec for all durable I/O, e.g. 'seed=7,write=0.05,torn=0.02,flip=0.01' (keys: seed|write|read|torn|sync|rename|flip|perm|fail-write-at|fail-read-at|fail-rename-at); verdicts stay byte-identical or the run fails loudly with a classified error (exit 4)")
		seed      = flag.Int64("seed", 1, "seed for -init random and the random topology families (paper mode: the base seed of every experiment)")
		traces    = flag.Int("traces", 3, "max violations to collect and print per run")
		workers   = flag.Int("j", 0, "worker-pool width (0 = GOMAXPROCS)")
		expSpec   = flag.String("exp", "", "paper mode: comma list of experiment IDs, 'all' (the default) or 'list' to print the registry")
		quick     = flag.Bool("quick", false, "paper mode: reduced sizes (smoke run)")
		peersSpec = flag.String("peers", "", "exhaustive mode: distribute each job across this comma-separated list of ccserve peer base URLs (one visited-set shard per peer; the peers must share one -cache directory); the verdict is byte-identical to a single-node run by the cluster differential battery's contract")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if *workers > 0 {
		par.Workers = *workers
	}
	if *maxStates == 0 {
		// The flag has always meant "0 = unlimited"; JobSpec encodes
		// unlimited as a negative bound (its JSON zero value means
		// "default"), so translate here.
		*maxStates = -1
	}

	switch *mode {
	case "exhaustive", "campaign", "query", "paper":
	default:
		fatalf("unknown mode %q (exhaustive | campaign | query | paper)", *mode)
	}
	if (*expSpec != "" || *quick) && *mode != "paper" {
		fatalf("-exp and -quick apply to -mode paper only (current mode: %s)", *mode)
	}

	scalars := store.JobSpec{
		RandomInits: *randInits, Seed: *seed,
		MaxStates: *maxStates, MaxDepth: *maxDepth, MaxBranch: *maxBranch,
		MaxViolations: *traces, Symmetry: *symmetry,
	}
	budget, err := campaign.ParseBytes("mem-budget", *memBudget)
	if err != nil {
		fatalf("%v", err)
	}
	if *ckptEvery > 0 && *cacheDir == "" {
		// Differentiate "user asked for checkpoints" from the default.
		set := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "checkpoint-every" {
				set = true
			}
		})
		if set {
			fatalf("-checkpoint-every needs -cache DIR: snapshots live under the job's content key in the verdict store")
		}
	}
	var fsys chaos.FS
	if *chaosSpec != "" {
		faults, err := chaos.ParseFaults(*chaosSpec)
		if err != nil {
			fatalf("%v", err)
		}
		fsys = chaos.NewFaultFS(nil, faults)
	}
	var peers []string
	if *peersSpec != "" {
		if *mode != "exhaustive" {
			fatalf("-peers applies to -mode exhaustive only (current mode: %s)", *mode)
		}
		for _, p := range strings.Split(*peersSpec, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, strings.TrimRight(p, "/"))
			}
		}
		if len(peers) == 0 {
			fatalf("-peers lists no usable URLs")
		}
	}
	exec := execConfig{
		cacheDir: *cacheDir,
		ExecOptions: campaign.ExecOptions{
			MemBudget: budget, SpillDir: *spillDir, FS: fsys,
			CheckpointEvery: *ckptEvery, Peers: peers,
		},
	}

	switch *mode {
	case "exhaustive":
		runExhaustive(*algName, *topo, *daemons, *initMode, *mutate, scalars, exec)
	case "campaign":
		runCampaign(*algName, *topo, *daemons, *initMode, *mutate, scalars, exec)
	case "query":
		runQuery(exec, *filterStr, *summaryID, *diffSpec)
	case "paper":
		runPaper(*expSpec, *seed, *quick, exec)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cccheck: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "cccheck: run 'cccheck -h' for usage")
	os.Exit(2)
}

// exitIO terminates with exit code 4 when err carries a classified I/O
// failure (path + errno + class on stderr), falling back to a usage
// error otherwise. Verdict streams on stdout stay clean either way.
func exitIO(err error) {
	if chaos.Classify(err) != chaos.Unknown {
		fmt.Fprintf(os.Stderr, "cccheck: %s\n", chaos.Describe(err))
		os.Exit(4)
	}
	fatalf("%v", err)
}

// openStore opens the verdict store (nil without -cache) and performs
// the startup hygiene pass: half-written store temp files, orphaned
// checkpoints and spill scratch left by a killed process are swept and
// their counts reported. stderr only — stdout carries verdicts and
// must stay byte-stable.
func (e *execConfig) openStore() store.Interface {
	if e.cacheDir == "" {
		return nil // untyped nil: campaign.Cell's nil check relies on it
	}
	st, err := store.OpenEngine("", e.cacheDir, e.FS)
	if err != nil {
		exitIO(err)
	}
	if n := st.GCTemp(); n > 0 {
		fmt.Fprintf(os.Stderr, "cccheck: removed %d orphaned store temp file(s)\n", n)
	}
	if n := st.GCCheckpoints(); n > 0 {
		fmt.Fprintf(os.Stderr, "cccheck: removed %d orphaned checkpoint file(s)\n", n)
	}
	if n := explore.GCSpill(e.SpillDir); n > 0 {
		fmt.Fprintf(os.Stderr, "cccheck: removed %d orphaned spill scratch entr(ies)\n", n)
	}
	st.SetLog(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cccheck: "+format+"\n", args...)
	})
	if e.CheckpointEvery >= 0 && len(e.Peers) == 0 {
		// In-flight snapshots: an interrupted job resumes mid-exploration
		// on the next run (0 = snapshot on interruption only). A
		// distributed job recovers from the peers' per-shard barrier
		// snapshots in the shared store instead.
		e.Checkpoints = st
	}
	return st
}

// --- Exhaustive mode ----------------------------------------------------------

// execConfig carries the cache location and the result-irrelevant
// execution knobs (out-of-core budget, checkpoint cadence, fault
// injector, peers) from the flags to the modes. CheckpointEvery holds
// the raw flag value: negative means disabled, and openStore leaves
// Checkpoints nil.
type execConfig struct {
	cacheDir string
	campaign.ExecOptions
}

// runExhaustive checks one (alg, topo, init) instance under each of the
// requested daemon branching modes. Every (instance, mode) cell is a
// content-addressed job executed through the same runner as campaigns
// and ccserve, so with -cache their verdicts are interchangeable — and
// with checkpointing, a SIGTERM'd (or SIGKILL'd) run resumes from its
// last snapshot on the next identical invocation, exit code 3.
func runExhaustive(algName, topoSpec, daemons, initName, mutation string, scalars store.JobSpec, exec execConfig) {
	daemonList, err := campaign.ParseList("daemon", daemons)
	if err != nil {
		fatalf("%v", err)
	}
	if len(daemonList) == 0 {
		daemonList = campaign.Daemons()
	}
	specs := make([]store.JobSpec, len(daemonList))
	for i, d := range daemonList {
		s := scalars
		s.Alg, s.Topo, s.Daemon, s.Init, s.Mutation = algName, topoSpec, d, initName, mutation
		specs[i] = s.Canonical()
		if err := campaign.Validate(specs[i]); err != nil {
			fatalf("%v", err)
		}
	}
	st := exec.openStore()
	h, err := hypergraph.ParseSeeded(specs[0].Topo, specs[0].Seed)
	if err != nil {
		fatalf("%v", err) // unreachable: Validate parsed it
	}
	fmt.Printf("topology: %s\n", h)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	failed := false
	bounded := false
	eo := exec.ExecOptions
	eo.Workers = par.Workers
	for _, s := range specs {
		out := campaign.Cell(ctx, st, s, eo)
		res := out.Result
		switch out.Status {
		case campaign.StatusSkipped:
			states := 0
			if res != nil {
				states = res.States
			}
			if eo.Checkpoints != nil {
				fmt.Printf("interrupted at %d states — checkpoint saved; re-run the same command to resume\n", states)
			} else {
				fmt.Printf("interrupted at %d states\n", states)
			}
			os.Exit(3)
		case campaign.StatusFailed:
			exitIO(out.Failure())
		}
		tag := ""
		if out.Status == campaign.StatusHit {
			tag = "  [cache hit]"
		}
		if out.Resumed > 0 {
			tag += fmt.Sprintf("  [resumed from %d states]", out.Resumed)
		}
		fmt.Println(res.Summary() + tag)
		if res.MaxIncorrectDepth >= 0 {
			fmt.Printf("  deepest non-AllCorrect configuration: depth %d\n", res.MaxIncorrectDepth)
		}
		for _, v := range res.Violations {
			fmt.Print(explore.RenderTrace(v))
		}
		if !res.Ok() {
			failed = true
		}
		if res.Truncated {
			bounded = true
		}
	}
	switch {
	case failed:
		fmt.Println("RESULT: VIOLATIONS FOUND")
		os.Exit(1)
	case bounded:
		// A truncated run is evidence, not proof: say "bounded", never
		// "verified".
		fmt.Println("RESULT: all checks passed within bounds (bounded — NOT a verification)")
	default:
		fmt.Println("RESULT: all checks passed — verified exhaustively")
	}
}

// --- Campaign mode ------------------------------------------------------------

func runCampaign(algs, topos, daemons, inits, mutations string, scalars store.JobSpec, exec execConfig) {
	cspec, err := campaign.ParseSpec(algs, topos, daemons, inits, mutations)
	if err != nil {
		fatalf("%v", err)
	}
	cspec.Template = campaign.Template(scalars)
	cells, err := cspec.Expand()
	if err != nil {
		fatalf("%v", err)
	}
	st := exec.openStore()
	fmt.Printf("campaign: %d cells", len(cells))
	if st != nil {
		fmt.Printf(" (cache %s)", st.Dir())
	}
	fmt.Println()
	if st != nil {
		// Persist the manifest up front so the query plane (-mode query,
		// ccserve summary/diff) can address this campaign by id even if
		// the run is interrupted. Same id ccserve computes at submit.
		keys := make([]string, len(cells))
		for i, c := range cells {
			keys[i] = c.Canonical().Key()
		}
		id := store.CampaignID(keys)
		if err := st.PutCampaign(id, keys); err != nil {
			exitIO(err)
		}
		fmt.Printf("campaign id: %s\n", id)
	}

	// Ctrl-C / SIGTERM stops scheduling new cells; completed ones are
	// already persisted, so the next identical run resumes from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ropts := campaign.RunOptions{
		Workers: par.Workers,
		Exec:    exec.ExecOptions,
		Progress: func(ev campaign.Event) {
			resumed := ""
			if ev.Resumed > 0 {
				resumed = fmt.Sprintf(", resumed from %d states", ev.Resumed)
			}
			retried := ""
			if ev.Attempts > 1 {
				retried = fmt.Sprintf(" (attempt %d)", ev.Attempts)
			}
			switch ev.Status {
			case campaign.StatusSkipped:
				fmt.Printf("  [%d/%d] %-44s  skipped (interrupted)\n", ev.Index+1, ev.Total, ev.Spec)
			case campaign.StatusFailed:
				fmt.Printf("  [%d/%d] %-44s  FAILED%s\n", ev.Index+1, ev.Total, ev.Spec, retried)
			case campaign.StatusHit:
				fmt.Printf("  [%d/%d] %-44s  %s (cache hit)\n", ev.Index+1, ev.Total, ev.Spec, ev.Verdict)
			default:
				fmt.Printf("  [%d/%d] %-44s  %s (%d states, %v%s)%s\n", ev.Index+1, ev.Total, ev.Spec, ev.Verdict, ev.States, ev.Elapsed.Round(time.Millisecond), resumed, retried)
			}
		},
	}
	rep := campaign.Run(ctx, st, cells, ropts)
	fmt.Println()
	rep.Render(os.Stdout)
	if !rep.Complete() {
		fmt.Println("campaign interrupted — re-run the same command to resume from the cache")
	}
	if !rep.Ok() {
		// A refuted spec (exit 1) outranks an I/O casualty (exit 4):
		// violations are the answer the user asked for, failed cells are
		// an environment problem. Exit 4 only when every failure is a
		// classified I/O error and nothing was violated.
		if rep.Violated == 0 && rep.Failed > 0 {
			ioOnly := true
			for _, c := range rep.Results {
				if c.Status == campaign.StatusFailed && c.ErrorClass == "" {
					ioOnly = false
					break
				}
			}
			if ioOnly {
				for _, c := range rep.Results {
					if c.Status == campaign.StatusFailed {
						fmt.Fprintf(os.Stderr, "cccheck: cell %s failed (%s): %s\n", c.Spec, c.ErrorClass, c.Error)
					}
				}
				os.Exit(4)
			}
		}
		os.Exit(1)
	}
}

// --- Query mode ---------------------------------------------------------------

// runQuery is the offline face of the query plane: the same
// list/summary/diff answers ccserve's /v1/verdicts and /v1/campaigns
// endpoints give, computed directly from the cache directory and
// printed as one JSON document on stdout (byte-identical to the HTTP
// body, whichever engine holds the warehouse).
func runQuery(exec execConfig, filter, summary, diffSpec string) {
	if exec.cacheDir == "" {
		fatalf("-mode query needs -cache DIR")
	}
	if summary != "" && diffSpec != "" {
		fatalf("-summary and -diff are mutually exclusive")
	}
	st := exec.openStore()
	defer st.Close()

	var doc any
	switch {
	case summary != "":
		s, err := store.CampaignSummary(st, summary)
		if err != nil {
			fatalf("%v", err)
		}
		doc = s
	case diffSpec != "":
		a, b, ok := strings.Cut(diffSpec, ",")
		a, b = strings.TrimSpace(a), strings.TrimSpace(b)
		if !ok || a == "" || b == "" {
			fatalf("-diff wants two campaign ids: A,B")
		}
		d, err := store.DiffCampaigns(st, a, b)
		if err != nil {
			fatalf("%v", err)
		}
		doc = d
	default:
		f, err := store.ParseFilter(filter)
		if err != nil {
			fatalf("%v", err)
		}
		rows, err := store.List(st, f)
		if err != nil {
			exitIO(err)
		}
		doc = map[string]any{"count": len(rows), "verdicts": rows}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		exitIO(err)
	}
	os.Stdout.Write(append(data, '\n'))
}

// --- Paper mode ---------------------------------------------------------------

// runPaper regenerates the paper's tables as markdown on stdout, in the
// order asked for, each one streamed as soon as it and its predecessors
// finish: every registered experiment, or the comma list in exp. "list"
// prints the registry instead.
func runPaper(exp string, seed int64, quick bool, exec execConfig) {
	var ids []string
	switch exp {
	case "list":
		for _, e := range experiments.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.What)
		}
		return
	case "", "all":
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	default:
		for _, id := range strings.Split(exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := experiments.Get(id); !ok {
				fatalf("unknown experiment %q (-exp list prints the registry)", id)
			}
			ids = append(ids, id)
		}
	}
	st := exec.openStore()
	results, err := experiments.RunAll(ids, experiments.Config{Seed: seed, Quick: quick, Store: st}, os.Stdout)
	if err != nil {
		fatalf("%v", err) // unreachable: every id was looked up above
	}
	if st != nil {
		if err := st.Close(); err != nil {
			exitIO(err)
		}
	}
	failed := 0
	for _, res := range results {
		if !res.Ok() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "cccheck: %d experiment(s) had failing claims\n", failed)
		os.Exit(1)
	}
}
