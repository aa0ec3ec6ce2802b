// Package campaign turns the exhaustive checker into a batch system:
// a declarative grid (algorithms × topologies × daemon branchings ×
// init families × mutations) expands into content-addressed job specs,
// a scheduler fans them across the worker pool, skips jobs whose
// verdict is already in the store, and emits one deterministic
// aggregate report regardless of the pool width. Because every
// completed cell is persisted before the next is scheduled, a killed
// campaign resumes from where it stopped: re-running it re-executes
// only the missing cells.
//
// This file is the shared single-job runner: the one place that maps a
// store.JobSpec onto an explore.Model and explore.Options. cccheck,
// ccbench and ccserve all execute jobs through it — by way of Cell
// (campaign.go), the one lookup → explore → persist → retry lifecycle —
// which is what makes their cached verdicts interchangeable.
package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hypergraph"
	"repro/internal/sim"
	"repro/internal/store"
)

// Algs lists the supported algorithm names.
func Algs() []string { return []string{"cc1", "cc2", "cc3", "dining", "token-ring"} }

// Daemons lists the canonical daemon-branching names (the aliases
// "sync" and "all" canonicalize onto the last two).
func Daemons() []string { return []string{"central", "synchronous", "all-subsets"} }

// Inits lists the init-family names.
func Inits() []string { return []string{"legit", "cc", "cc-full", "random"} }

var ccVariants = map[string]core.Variant{"cc1": core.CC1, "cc2": core.CC2, "cc3": core.CC3}

func selectionMode(daemon string) (sim.SelectionMode, bool) {
	switch daemon {
	case "central":
		return sim.SelectCentral, true
	case "synchronous":
		return sim.SelectSynchronous, true
	case "all-subsets":
		return sim.SelectAllSubsets, true
	}
	return 0, false
}

// Validate rejects a job spec that cannot execute, with an error
// message naming the offending value and the accepted ones — the CLIs
// turn it into a usage error (exit 2) and ccserve into a 400. It
// validates the canonicalized spec, so alias spellings pass.
func Validate(spec store.JobSpec) error {
	_, err := prepare(spec.Canonical())
	return err
}

// prepare runs every check Validate promises and returns the built
// model factory, so Execute validates and constructs in one pass
// instead of building the model once per check.
func prepare(c store.JobSpec) (*checkedFactory, error) {
	_, isCC := ccVariants[c.Alg]
	switch c.Alg {
	case "cc1", "cc2", "cc3", "dining", "token-ring":
	case "":
		return nil, fmt.Errorf("campaign: missing algorithm (want %s)", strings.Join(Algs(), " | "))
	default:
		return nil, fmt.Errorf("campaign: unknown algorithm %q (want %s)", c.Alg, strings.Join(Algs(), " | "))
	}
	if _, ok := selectionMode(c.Daemon); !ok {
		return nil, fmt.Errorf("campaign: unknown daemon mode %q (want central | synchronous | all-subsets)", c.Daemon)
	}
	if _, err := explore.ParseInitMode(c.Init); err != nil {
		return nil, fmt.Errorf("campaign: unknown init mode %q (want %s)", c.Init, strings.Join(Inits(), " | "))
	}
	if c.Topo == "" {
		return nil, fmt.Errorf("campaign: missing topology spec")
	}
	h, err := hypergraph.Parse(c.Topo, rand.New(rand.NewSource(c.Seed)))
	if err != nil {
		return nil, fmt.Errorf("campaign: %v", err)
	}
	if !isCC {
		if c.Init != "legit" {
			return nil, fmt.Errorf("campaign: the %s baseline is not self-stabilizing: only -init legit is supported, not %q", c.Alg, c.Init)
		}
		if c.Mutation != "" {
			return nil, fmt.Errorf("campaign: -mutate applies to the CC algorithms only, not %s", c.Alg)
		}
	}
	// Building the factory performs the remaining checks (codec size
	// bounds, mutation names) and exposes the automorphism group for
	// the -symmetry precondition.
	factory, err := newFactoryChecked(c, h)
	if err != nil {
		return nil, err
	}
	if c.Symmetry && !factory.hasSyms {
		return nil, fmt.Errorf("campaign: this model declares no automorphisms: %s", factory.whySymEmpty)
	}
	return factory, nil
}

// checkedFactory is what Validate/Execute need to know about a built
// model factory without committing to a state type.
type checkedFactory struct {
	hasSyms     bool
	whySymEmpty string
	run         func(ctx context.Context, opts explore.Options) (*explore.Result, error)
	runCluster  func(ctx context.Context, opts explore.Options, tr cluster.Transport) (*explore.Result, error)
	newPeer     func(opts explore.Options, cfg explore.PeerConfig) (explore.PeerEngine, error)
}

func newFactoryChecked(c store.JobSpec, h *hypergraph.H) (*checkedFactory, error) {
	if v, ok := ccVariants[c.Alg]; ok {
		im, err := explore.ParseInitMode(c.Init)
		if err != nil {
			return nil, fmt.Errorf("campaign: %v", err)
		}
		factory, err := explore.CC(v, h, explore.CCOptions{
			Init: im, RandomCount: c.RandomInits, Seed: c.Seed, Mutation: c.Mutation,
		})
		if err != nil {
			return nil, fmt.Errorf("campaign: %v", err)
		}
		return checked(factory, "the CC algorithms read the identifier order (maxByID tie-breaks, min-id leader election), "+
			"so nontrivial rotations are not automorphisms of CC ∘ TC on connected topologies; -symmetry is exact "+
			"for CC only on block-symmetric disjoint:K,S topologies with a non-random init family"), nil
	}
	kind := baseline.Dining
	if c.Alg == "token-ring" {
		kind = baseline.TokenRing
	}
	factory, err := explore.Baseline(kind, h, 1)
	if err != nil {
		return nil, fmt.Errorf("campaign: %v", err)
	}
	return checked(factory, "-symmetry needs a declared automorphism group: the token-ring baseline declares ring rotations; "+
		"dining does not (its fork orientation and request tie-break read the committee index order)"), nil
}

// checked erases a model factory's state type behind the three ways a
// job can run it.
func checked[S sim.Cloneable[S]](factory func() *explore.Model[S], whySymEmpty string) *checkedFactory {
	return &checkedFactory{
		hasSyms:     factory().Syms != nil,
		whySymEmpty: whySymEmpty,
		run: func(ctx context.Context, opts explore.Options) (*explore.Result, error) {
			return explore.ExploreCtx(ctx, factory, opts)
		},
		runCluster: func(ctx context.Context, opts explore.Options, tr cluster.Transport) (*explore.Result, error) {
			return cluster.Run(ctx, factory, opts, tr)
		},
		newPeer: func(opts explore.Options, cfg explore.PeerConfig) (explore.PeerEngine, error) {
			return explore.NewPeer(factory, opts, cfg)
		},
	}
}

// ExecOptions parameterize one job execution beyond the spec. Every
// field is result-irrelevant: the verdict bytes are a pure function of
// the canonical spec at any worker count, memory budget, checkpoint
// cadence or cluster size, which is what makes the cache (and resuming)
// sound.
type ExecOptions struct {
	// Workers is the explorer pool width for this job (0 = 1: campaign
	// and server schedulers parallelize across jobs, so each job
	// defaults to one worker; pass par.Workers for a lone interactive
	// run).
	Workers int
	// Peers, when non-empty, distributes the job across these ccserve
	// peers (base URLs) instead of exploring in this process: the spec
	// is forwarded to every peer verbatim, each peer owns one
	// contiguous shard of the state-hash space, and shard snapshots
	// land in the peers' (shared) verdict store so a lost peer's work
	// migrates instead of restarting. The single-node checkpoint
	// (Checkpoints) does not apply.
	Peers []string
	// Checkpoints, if non-nil, enables checkpoint/restore through this
	// store: the job resumes from an existing snapshot under its
	// content key, persists one every CheckpointEvery expanded states
	// and on context cancellation, and deletes it on completion.
	Checkpoints store.Interface
	// CheckpointEvery is the expanded-state snapshot cadence
	// (0 = snapshot only on cancellation).
	CheckpointEvery int
	// MemBudget bounds the explorer's in-memory frontier + arena
	// footprint (bytes; 0 = fully in-memory); overflow spills to
	// SpillDir ("" = the system temp dir).
	MemBudget int64
	SpillDir  string
	// Stats, if non-nil, receives resume/spill bookkeeping (not part
	// of the result).
	Stats *explore.RunStats
	// FS routes the explorer's spill-file I/O through a chaos.FS
	// (nil = the host filesystem); the store's own FS is set at
	// store.OpenFS time. Result-irrelevant like everything else here:
	// injected faults either retry away, fail the job with a
	// classified error, or quarantine an artifact — never change the
	// verdict bytes.
	FS chaos.FS
	// Progress, if non-nil, receives the explorer's chunk-boundary
	// counter snapshots (see explore.Options.Progress) — the feed the
	// serving tier publishes to /v1/jobs/{id}/watch subscribers.
	Progress func(explore.Progress)
	// Retries is Cell's retry budget for recoverable failures
	// (transient I/O, quarantined corruption): the explore-and-persist
	// step is re-run up to this many extra times, with exponential
	// backoff, before the cell is marked failed. 0 means the default
	// (2); negative disables retries.
	Retries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt (0 = 50ms).
	RetryBackoff time.Duration
}

// ErrInterrupted reports that a job was cancelled mid-exploration; if
// checkpointing was enabled, a snapshot was saved and re-executing the
// same spec resumes it.
var ErrInterrupted = explore.ErrInterrupted

// jobOptions maps a canonical spec plus execution options onto the
// explorer's option set — the one translation every execution path
// (single-node, cluster coordinator, cluster peer) must share, or
// their verdicts could legally diverge.
func jobOptions(c store.JobSpec, o ExecOptions) explore.Options {
	mode, _ := selectionMode(c.Daemon)
	maxStates := c.MaxStates
	if maxStates < 0 {
		maxStates = 0 // canonical -1 = unlimited
	}
	opts := explore.Options{
		Mode:            mode,
		MaxStates:       maxStates,
		MaxDepth:        c.MaxDepth,
		MaxBranch:       c.MaxBranch,
		MaxViolations:   c.MaxViolations,
		CheckDeadlock:   !c.NoDeadlock,
		Symmetry:        c.Symmetry,
		Workers:         o.Workers,
		MemBudget:       o.MemBudget,
		SpillDir:        o.SpillDir,
		FS:              o.FS,
		CheckpointEvery: o.CheckpointEvery,
		Stats:           o.Stats,
		Progress:        o.Progress,
	}
	if o.Workers <= 0 {
		opts.Workers = 1
	}
	if _, ok := ccVariants[c.Alg]; ok {
		opts.CheckClosure = !c.NoClosure
		if mode == sim.SelectSynchronous {
			opts.CheckConvergence = !c.NoConverge
		}
	}
	return opts
}

// NewPeerEngine builds the peer half of a distributed exploration for
// one job spec: the model factory and option translation are exactly
// ExecuteOpts', so a cluster of these engines is checking the same
// problem a single node would. ccserve's /v1/cluster tier calls this
// when a coordinator opens a job on it.
func NewPeerEngine(spec store.JobSpec, o ExecOptions, cfg explore.PeerConfig) (explore.PeerEngine, error) {
	c := spec.Canonical()
	factory, err := prepare(c)
	if err != nil {
		return nil, err
	}
	return factory.newPeer(jobOptions(c, o), cfg)
}

// Execute runs one job to completion and returns its result (see
// ExecuteOpts; this is the no-frills form the tests and bench/
// exercise).
func Execute(spec store.JobSpec, workers int) (*explore.Result, error) {
	return ExecuteOpts(context.Background(), spec, ExecOptions{Workers: workers})
}

// ExecuteOpts runs one job under a context — in this process, with
// optional checkpoint/restore and an out-of-core memory budget, or
// across o.Peers when set; the two are byte-identical by the cluster
// differential battery's contract. On cancellation it returns an error
// wrapping ErrInterrupted (snapshot saved when o.Checkpoints is set).
// On success the result's StateBytes is zeroed: it measures this
// process's retained footprint — different between resumed/fresh,
// spilled/in-memory and local/distributed runs of the same job — and
// the persisted verdict must be byte-identical across all of them.
func ExecuteOpts(ctx context.Context, spec store.JobSpec, o ExecOptions) (*explore.Result, error) {
	c := spec.Canonical()
	factory, err := prepare(c)
	if err != nil {
		return nil, err
	}
	opts := jobOptions(c, o)
	run := factory.run
	var ckpt *store.Checkpoint
	switch {
	case len(o.Peers) > 0:
		raw, err := json.Marshal(c)
		if err != nil {
			return nil, fmt.Errorf("campaign: marshal spec: %w", err)
		}
		tr, err := cluster.DialHTTP(ctx, cluster.HTTPConfig{
			Peers: o.Peers, Job: c.Key(), Spec: raw, Workers: o.Workers,
		})
		if err != nil {
			return nil, err
		}
		defer tr.Close()
		run = func(ctx context.Context, opts explore.Options) (*explore.Result, error) {
			return factory.runCluster(ctx, opts, tr)
		}
	case o.Checkpoints != nil:
		ckpt = o.Checkpoints.Checkpoint(c.Key())
		opts.Checkpoint = ckpt
	}
	res, err := run(ctx, opts)
	if err != nil {
		return res, err
	}
	res.StateBytes = 0
	if ckpt != nil {
		// The verdict supersedes the snapshot; a failed delete is
		// GCCheckpoints' problem, not the job's.
		ckpt.Delete()
	}
	return res, nil
}
