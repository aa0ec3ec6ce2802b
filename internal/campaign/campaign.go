package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/explore"
	"repro/internal/par"
	"repro/internal/store"
)

// Spec is a declarative campaign: one template job plus five axis
// lists, expanded into the cartesian grid of the lists. The template
// carries every other job field (bounds, seed, symmetry, ...), so a
// job knob is declared once, in store.JobSpec. The template's fields
// sit flat beside the lists in JSON (POST /v1/campaigns); cccheck
// builds the same value from its comma-list flags (ParseSpec).
type Spec struct {
	// Algs and Topos are required; empty lists are an error.
	Algs  []string `json:"algs"`
	Topos []string `json:"topos"`
	// Daemons defaults to all three branching modes.
	Daemons []string `json:"daemons,omitempty"`
	// Inits defaults to the per-algorithm default family (cc-full for
	// CC, legit for the baselines).
	Inits []string `json:"inits,omitempty"`
	// Mutations defaults to none; the value "none" names the unmutated
	// cell, so grids can mix it with seeded mutations.
	Mutations []string `json:"mutations,omitempty"`

	// Template is every cell's job minus the five axis fields, which
	// it must leave empty.
	Template
}

// Template is the job every campaign cell starts from. It is a defined
// type rather than store.JobSpec itself so that embedding it in Spec
// promotes the fields but not JobSpec's Key/String/Canonical: a
// campaign is not a job.
type Template store.JobSpec

// ParseList splits a comma-list flag value strictly: every element
// must be non-empty after trimming, so typos like "cc1,,cc2" or a
// trailing "cc1," are usage errors instead of silently collapsing.
// An empty input yields an empty list (the field's default applies).
func ParseList(flagName, s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("campaign: empty element in -%s list %q", flagName, s)
		}
		out = append(out, p)
	}
	return out, nil
}

// ParseBytes parses a human byte-size flag value: a plain integer is
// bytes; K/M/G suffixes (optionally with B, case-insensitive) scale by
// powers of 1024. Empty means 0 (no budget).
func ParseBytes(flagName, s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	mult := int64(1)
	u := strings.ToUpper(t)
	u = strings.TrimSuffix(u, "B")
	switch {
	case strings.HasSuffix(u, "K"):
		mult, u = 1<<10, u[:len(u)-1]
	case strings.HasSuffix(u, "M"):
		mult, u = 1<<20, u[:len(u)-1]
	case strings.HasSuffix(u, "G"):
		mult, u = 1<<30, u[:len(u)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		// The overflow check matters: a wrapped-negative budget would
		// silently read as "unlimited" — the opposite of the intent.
		return 0, fmt.Errorf("campaign: bad -%s value %q (want e.g. 268435456, 256M, 2G)", flagName, s)
	}
	return n * mult, nil
}

// ParseSpec builds the grid from the comma-list flag grammar
// (e.g. -alg cc1,cc2 -topo ring:3,star:4 -daemon central,sync), with an
// empty template for the caller to fill. Every list is parsed strictly;
// value validation happens in Expand.
func ParseSpec(algs, topos, daemons, inits, mutations string) (Spec, error) {
	var s Spec
	var err error
	if s.Algs, err = ParseList("alg", algs); err != nil {
		return s, err
	}
	if s.Topos, err = ParseList("topo", topos); err != nil {
		return s, err
	}
	if s.Daemons, err = ParseList("daemon", daemons); err != nil {
		return s, err
	}
	if s.Inits, err = ParseList("init", inits); err != nil {
		return s, err
	}
	if s.Mutations, err = ParseList("mutate", mutations); err != nil {
		return s, err
	}
	return s, nil
}

// Expand materializes the grid into canonical, validated job specs in
// deterministic order (alg-major, then topo, daemon, init, mutation),
// deduplicated by content key (aliases can make distinct grid cells
// identical jobs). Each cell is the template with the five axis fields
// set. Any invalid cell fails the whole expansion — a campaign with a
// typo runs nothing rather than silently running a subset.
func (s Spec) Expand() ([]store.JobSpec, error) {
	for _, f := range []struct{ field, list, value string }{
		{"alg", "algs", s.Alg}, {"topo", "topos", s.Topo}, {"daemon", "daemons", s.Daemon},
		{"init", "inits", s.Init}, {"mutation", "mutations", s.Mutation},
	} {
		if f.value != "" {
			return nil, fmt.Errorf("campaign: %q is an axis: list it in %q, not as a template field (got %q)", f.field, f.list, f.value)
		}
	}
	if len(s.Algs) == 0 {
		return nil, fmt.Errorf("campaign: no algorithms given (want a comma list of %s)", strings.Join(Algs(), " | "))
	}
	if len(s.Topos) == 0 {
		return nil, fmt.Errorf("campaign: no topologies given (e.g. ring:3,star:4)")
	}
	daemons := s.Daemons
	if len(daemons) == 0 {
		daemons = Daemons()
	}
	inits := s.Inits
	if len(inits) == 0 {
		inits = []string{""}
	}
	mutations := s.Mutations
	if len(mutations) == 0 {
		mutations = []string{""}
	}
	var cells []store.JobSpec
	seen := map[string]bool{}
	for _, alg := range s.Algs {
		for _, topo := range s.Topos {
			for _, daemon := range daemons {
				for _, init := range inits {
					for _, mut := range mutations {
						spec := store.JobSpec(s.Template)
						spec.Alg, spec.Topo, spec.Daemon, spec.Init, spec.Mutation = alg, topo, daemon, init, mut
						spec = spec.Canonical()
						if err := Validate(spec); err != nil {
							return nil, fmt.Errorf("%v (cell %s)", err, spec)
						}
						key := spec.Key()
						if seen[key] {
							continue
						}
						seen[key] = true
						cells = append(cells, spec)
					}
				}
			}
		}
	}
	return cells, nil
}

// Cell statuses, as reported in events and the aggregate report.
const (
	StatusHit     = "hit"     // verdict served from the store
	StatusDone    = "done"    // explored this run (and persisted)
	StatusSkipped = "skipped" // not run: the campaign was interrupted
	StatusFailed  = "failed"  // the job errored (spec raced a cache wipe, I/O failure)
)

// Event is one per-cell progress notification, streamed as cells
// finish. Ordering across cells follows completion (hence varies with
// the pool width); everything in the final Report is deterministic.
type Event struct {
	Index   int // cell index in expansion order
	Total   int
	Spec    store.JobSpec
	Key     string
	Status  string
	Verdict string
	States  int
	// Resumed is the state count restored from a checkpoint before
	// this cell continued (0 = started fresh). Progress-only: the
	// Report is byte-identical whether a cell resumed or not.
	Resumed int
	// Attempts is how many times the cell ran (1 = no retries needed;
	// see ExecOptions.Retries). Progress-only, like Resumed.
	Attempts int
	Elapsed  time.Duration
}

// CellResult is one cell of the aggregate report.
type CellResult struct {
	Spec    store.JobSpec `json:"spec"`
	Key     string        `json:"key"`
	Status  string        `json:"status"`
	Verdict string        `json:"verdict,omitempty"`
	Error   string        `json:"error,omitempty"`
	// ErrorClass tags a failed cell with chaos.Classify's verdict on
	// its error (transient | permanent | corrupt | unknown), so report
	// consumers and the CLI exit path can tell an I/O casualty from a
	// spec problem without parsing the message.
	ErrorClass  string `json:"error_class,omitempty"`
	Inits       int    `json:"inits,omitempty"`
	States      int    `json:"states,omitempty"`
	Transitions int64  `json:"transitions,omitempty"`
	Deadlocks   int    `json:"deadlocks,omitempty"`
	Violations  int    `json:"violations,omitempty"`
}

// Report is the deterministic aggregate of one campaign run: cells in
// expansion order, no timing, so the bytes are identical at any pool
// width and any cache state reached by the same set of completed cells.
type Report struct {
	Cells     int `json:"cells"`
	CacheHits int `json:"cache_hits"`
	Explored  int `json:"explored"`
	Verified  int `json:"verified"`
	Bounded   int `json:"bounded"`
	Violated  int `json:"violated"`
	Skipped   int `json:"skipped"`
	Failed    int `json:"failed"`

	Results []CellResult `json:"results"`
}

// JSON renders the report deterministically.
func (r *Report) JSON() []byte {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("campaign: report marshal cannot fail: %v", err))
	}
	return append(data, '\n')
}

// Ok reports whether no cell violated or failed (skipped cells are
// not failures: the campaign was interrupted, not refuted).
func (r *Report) Ok() bool { return r.Violated == 0 && r.Failed == 0 }

// Complete reports whether every cell ran (nothing skipped).
func (r *Report) Complete() bool { return r.Skipped == 0 }

// Render writes the human-readable aggregate.
func (r *Report) Render(w io.Writer) {
	for _, c := range r.Results {
		switch c.Status {
		case StatusSkipped:
			fmt.Fprintf(w, "%-44s  skipped (interrupted)\n", c.Spec)
		case StatusFailed:
			fmt.Fprintf(w, "%-44s  FAILED: %s\n", c.Spec, c.Error)
		default:
			cached := ""
			if c.Status == StatusHit {
				cached = "  [cache]"
			}
			fmt.Fprintf(w, "%-44s  %-8s  %8d states  %10d transitions  %d violations%s\n",
				c.Spec, c.Verdict, c.States, c.Transitions, c.Violations, cached)
		}
	}
	fmt.Fprintf(w, "campaign: %d cells — %d verified, %d bounded, %d violated, %d failed, %d skipped (%d cache hits, %d explored)\n",
		r.Cells, r.Verified, r.Bounded, r.Violated, r.Failed, r.Skipped, r.CacheHits, r.Explored)
}

// Outcome is what Cell reports for one cell: everything a caller needs
// to print, aggregate or serve it, with the two ways a cell can fail
// kept apart.
type Outcome struct {
	// Result is the verdict: the stored one on a hit, the computed one
	// otherwise — still set when only persisting failed (PersistErr),
	// and the partial exploration when the cell was interrupted.
	Result *explore.Result
	// Raw is the entry exactly as the store holds it (what a later Get
	// returns); nil when nothing was stored.
	Raw    []byte
	Status string
	// Attempts is how many times the cell ran (0 on a hit, 1 = no
	// retries needed; see ExecOptions.Retries).
	Attempts int
	// Resumed is the state count restored from a checkpoint before the
	// cell continued (0 = started fresh).
	Resumed int
	// Err is the exploration's error (wrapping ErrInterrupted when the
	// cell reads as skipped); PersistErr is the store write's, with the
	// verdict computed and in Result.
	Err        error
	PersistErr error
}

// Failure is the error behind a skipped or failed cell, nil otherwise.
func (o Outcome) Failure() error {
	if o.Err != nil {
		return o.Err
	}
	return o.PersistErr
}

// Cell is the one lifecycle of a content-addressed cell, shared by
// cccheck, campaigns, the MC experiment and ccserve: serve the verdict
// from the store on a hit; otherwise explore it, persist it, and retry
// recoverable failures (transient
// I/O, quarantined corruption) within eo.Retries — a fresh attempt
// resumes from the cell's checkpoint if one was saved, rebuilds all
// spill scratch and converges to the same verdict. Cancellation is not
// a failure and never retried: the snapshot (if eo.Checkpoints is set)
// is saved and the cell reads as skipped, exactly like a cell never
// scheduled, so the next run resumes it. st may be nil (no caching:
// the cell always explores and nothing is persisted). eo.Stats, when
// set, must not be shared between concurrent cells.
func Cell(ctx context.Context, st store.Interface, spec store.JobSpec, eo ExecOptions) Outcome {
	spec = spec.Canonical()
	if st != nil {
		if res, raw, ok := st.Get(spec); ok {
			return Outcome{Result: res, Raw: raw, Status: StatusHit}
		}
	}
	if eo.Stats == nil {
		eo.Stats = &explore.RunStats{}
	}
	retries := eo.Retries
	if retries == 0 {
		retries = 2
	}
	delay := eo.RetryBackoff
	if delay <= 0 {
		delay = 50 * time.Millisecond
	}
	var out Outcome
	for {
		out.Attempts++
		out.Raw, out.PersistErr = nil, nil
		out.Result, out.Err = ExecuteOpts(ctx, spec, eo)
		if out.Err == nil && st != nil {
			out.Raw, out.PersistErr = st.Put(spec, out.Result)
		}
		err := out.Failure()
		if err == nil || errors.Is(err, ErrInterrupted) || out.Attempts > retries || !chaos.Recoverable(err) {
			break
		}
		select {
		case <-ctx.Done():
			out.Err = fmt.Errorf("campaign: %w during retry backoff (%v)", ErrInterrupted, context.Cause(ctx))
		case <-time.After(delay):
			delay *= 2
			continue
		}
		break
	}
	out.Resumed = eo.Stats.ResumedStates
	switch {
	case errors.Is(out.Err, ErrInterrupted):
		out.Status = StatusSkipped
	case out.Failure() != nil:
		out.Status = StatusFailed
	default:
		out.Status = StatusDone
	}
	return out
}

// RunOptions parameterize a campaign run.
type RunOptions struct {
	// Workers is the cell-pool width (0 = par.Workers): how many cells
	// explore concurrently.
	Workers int
	// Exec is how each cell executes (see ExecOptions; its Workers is
	// the explorer width per cell, 0 = 1 since cells already fan across
	// the pool). Setting Exec.Checkpoints to the campaign's store
	// enables in-flight cell checkpointing, so an interrupted cell
	// resumes mid-exploration on the next run instead of restarting.
	// Exec.Stats is per cell and ignored here; Event carries its
	// progress-relevant part.
	Exec ExecOptions
	// Progress, if non-nil, receives one event per finished cell.
	// Calls are serialized.
	Progress func(Event)
}

// Run executes the cells (from Expand) against the store, each through
// Cell: cache hits are served without recomputation, misses are
// explored and persisted before the cell completes — the campaign never
// aborts on one bad cell — and a cancelled context marks the remaining
// cells skipped: re-running the same campaign later resumes from the
// store. st may be nil (no caching, everything explores). The returned
// report is byte-identical at any opts.Workers for a given starting
// cache state.
func Run(ctx context.Context, st store.Interface, cells []store.JobSpec, opts RunOptions) *Report {
	rep := &Report{Cells: len(cells), Results: make([]CellResult, len(cells))}
	eo := opts.Exec
	eo.Stats = nil
	var progMu sync.Mutex
	emit := func(ev Event) {
		if opts.Progress == nil {
			return
		}
		progMu.Lock()
		defer progMu.Unlock()
		opts.Progress(ev)
	}

	par.ForEachWorker(len(cells), opts.Workers, func(w, i int) {
		spec := cells[i].Canonical()
		cell := CellResult{Spec: spec, Key: spec.Key()}
		start := time.Now()
		out := Outcome{Status: StatusSkipped}
		if ctx.Err() == nil {
			out = Cell(ctx, st, spec, eo)
		}
		cell.Status = out.Status
		switch out.Status {
		case StatusFailed:
			err := out.Failure()
			cell.Error = err.Error()
			if out.Attempts > 1 {
				cell.Error = fmt.Sprintf("%v (after %d attempts)", err, out.Attempts)
			}
			if cls := chaos.Classify(err); cls != chaos.Unknown {
				cell.ErrorClass = cls.String()
			}
		case StatusHit, StatusDone:
			res := out.Result
			cell.Verdict = res.Verdict()
			cell.Inits = res.Inits
			cell.States = res.States
			cell.Transitions = res.Transitions
			cell.Deadlocks = res.Deadlocks
			cell.Violations = len(res.Violations)
		}
		rep.Results[i] = cell
		emit(Event{
			Index: i, Total: len(cells), Spec: spec, Key: cell.Key,
			Status: cell.Status, Verdict: cell.Verdict, States: cell.States,
			Resumed: out.Resumed, Attempts: out.Attempts, Elapsed: time.Since(start),
		})
	})

	for i := range rep.Results {
		switch rep.Results[i].Status {
		case StatusHit:
			rep.CacheHits++
		case StatusDone:
			rep.Explored++
		case StatusSkipped:
			rep.Skipped++
		case StatusFailed:
			rep.Failed++
		}
		switch rep.Results[i].Verdict {
		case "verified":
			rep.Verified++
		case "bounded":
			rep.Bounded++
		case "violated":
			rep.Violated++
		}
	}
	return rep
}
