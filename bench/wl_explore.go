package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/sim"
)

// The two single-node exploration workloads share one instance type:
// explore-wide is the in-memory, high-fan-out cell; explore-spill is
// the deep, narrow cell under a memory budget. One repeat is one
// exploration from scratch; the cells are exhaustive, so the seed does
// not change them.
type exploreInst struct {
	e       *env
	factory func() *explore.Model[core.State]
	opts    explore.Options
	budget  int64 // > 0: explore-spill
	golden  goldenCounts

	spillDirs []string
	last      *explore.Result
	lastStats explore.RunStats
	lastRate  float64 // states/s of the latest timed region
}

// wideCell is the explore-wide cell; cluster-local3 runs the same one.
func wideCell(e *env) (func() *explore.Model[core.State], explore.Options, error) {
	factory, err := explore.CC(core.CC1, hypergraph.ChainOfTriples(3), explore.CCOptions{Init: explore.InitLegit})
	opts := explore.Options{
		Mode: sim.SelectAllSubsets, MaxStates: e.scaled(goldenWide.States),
		CheckDeadlock: true, CheckClosure: true, Workers: par.Workers,
	}
	return factory, opts, err
}

func setupWide(e *env) (instance, error) {
	factory, opts, err := wideCell(e)
	if err != nil {
		return nil, err
	}
	x := &exploreInst{e: e, factory: factory, opts: opts, golden: goldenWide}
	return x, x.warmUp(opts.MaxStates)
}

func setupSpill(e *env) (instance, error) {
	factory, err := explore.CC(core.CC2, hypergraph.CommitteeRing(5), explore.CCOptions{Init: explore.InitCC})
	if err != nil {
		return nil, err
	}
	x := &exploreInst{
		e: e, factory: factory, golden: goldenSpill,
		opts: explore.Options{
			Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true, Workers: par.Workers,
		},
		budget: max(int64(float64(1<<20)*e.scale), 16<<10),
	}
	if !e.full() {
		x.opts.MaxStates = e.scaled(goldenSpill.States)
	}
	return x, x.warmUp(e.scaled(goldenSpill.States * 3 / 5))
}

// warmUp is the pass that ends set-up: the same cell, bounded.
func (x *exploreInst) warmUp(maxStates int) error {
	opts := x.opts
	opts.MaxStates = maxStates
	if x.budget > 0 {
		dir, err := x.e.mkdir("spill")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		opts.MemBudget, opts.SpillDir = x.budget, dir
	}
	if res := explore.Explore(x.factory, opts); !res.Ok() {
		return fmt.Errorf("%w: warm-up found violations: %s", errGolden, res.Summary())
	}
	return nil
}

// resultHash identifies a result up to StateBytes, which is a
// process-local footprint and not part of the verdict bytes.
func resultHash(res *explore.Result) string {
	c := *res
	c.StateBytes = 0
	data, err := json.Marshal(&c)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func (x *exploreInst) run(tr *tracer, seconds float64, minRepeats int) (runResult, error) {
	res, err := repeatLoop(seconds, minRepeats, 1, func(rep int) (int, int, error) {
		opts := x.opts
		opts.Stats = &explore.RunStats{}
		if x.budget > 0 {
			// A fresh directory per repeat; removed after the timed region.
			dir, err := x.e.mkdir("spill")
			if err != nil {
				return 0, 0, err
			}
			x.spillDirs = append(x.spillDirs, dir)
			opts.MemBudget, opts.SpillDir = x.budget, dir
		}
		id := tr.begin("explore.Explore", -1, int64(rep))
		if tr != nil {
			last := time.Now()
			opts.Progress = func(explore.Progress) {
				now := time.Now()
				tr.add("explore.chunk", last, now, id, int64(rep))
				last = now
			}
		}
		r := explore.Explore(x.factory, opts)
		tr.end(id)
		x.last, x.lastStats = r, *opts.Stats
		failed := 0
		if x.e.full() {
			if err := x.golden.check(r, opts.Stats); err != nil {
				fmt.Fprintf(os.Stderr, "bench: repeat %d: %v\n", rep, err)
				failed = 1
			}
		} else if !r.Ok() {
			failed = 1
		}
		return r.States, failed, nil
	})
	for _, dir := range x.spillDirs {
		os.RemoveAll(dir)
	}
	x.spillDirs = nil
	x.lastRate = res.unitsPerS
	return res, err
}

func (x *exploreInst) layers(spans []span, res runResult, m metricSet) {
	lt := selfTimes(spans)
	ex := lt["explore.Explore"]
	if r := x.last; r != nil && ex.Total > 0 {
		m["explore.transitions_per_s"] = float64(r.Transitions) * float64(ex.Count) / (float64(ex.Total) / 1e9)
		m["explore.dup_ratio"] = 1 - float64(r.States)/float64(r.Transitions)
		m["explore.bytes_per_state"] = float64(r.StateBytes) / float64(r.States)
	}
	m["explore.chunk_gap_p99_ms"] = float64(quantile(durations(spans, "explore.chunk"), 0.99)) / 1e6
	if x.budget > 0 {
		m["explore.frontier_spill_bytes"] = float64(x.lastStats.FrontierSpilledBytes)
		m["explore.frontier_spill_segments"] = float64(x.lastStats.FrontierSpillSegments)
		m["explore.arena_spill_bytes"] = float64(x.lastStats.ArenaSpilledBytes)
	}
}

// statesPerS times one bounded exploration of the instance's cell.
func (x *exploreInst) statesPerS(maxStates, workers int, scalar bool) float64 {
	opts := x.opts
	opts.MaxStates, opts.Workers, opts.DisableBatch = maxStates, workers, scalar
	t0 := time.Now()
	r := explore.Explore(x.factory, opts)
	return float64(r.States) / time.Since(t0).Seconds()
}

func (x *exploreInst) probes(m metricSet) error {
	dir, err := x.e.mkdir("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	words := x.factory().Codec.Words
	n := x.e.scaled(400_000)
	if x.budget > 0 {
		// The in-memory run of the same cell ÷ the budgeted runs just timed.
		m["explore.spill_tax_ratio"] = x.statesPerS(x.opts.MaxStates, x.opts.Workers, false) / x.lastRate
		return probeStructures(m, words, n, dir)
	}
	// Ratios on the cell bounded to half, so three extra explorations fit.
	reduced := max(x.opts.MaxStates/2, 1)
	w1 := x.statesPerS(reduced, 1, false)
	w2 := x.statesPerS(reduced, 2, false)
	m["explore.scaling_w2"] = w2 / w1
	m["explore.batch_vs_scalar"] = w2 / x.statesPerS(reduced, 2, true)
	return probeStructures(m, words, n, "")
}

// hashWords must match explore.hashWords: Visited re-derives slot
// positions from it when it re-shards, so a different mix would lose
// keys — which the hit pass below would report as a failure.
func hashWords(key []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range key {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
	}
	h ^= h >> 31
	return h
}

// probeStructures calls explore.Visited and explore.Frontier directly:
// n distinct random keys are probed fresh (miss: a pending insert),
// promoted, and probed again (hit). With a spill directory the arena
// is then pushed to disk by Housekeep and probed a third time (cold),
// and the frontier runs under a budget that forces segments.
func probeStructures(m metricSet, words, n int, spillDir string) error {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n*words)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = hashWords(keys[i*words : (i+1)*words])
	}
	v := explore.NewVisited(words)
	defer v.Close()
	v.SetSerial(true)
	if spillDir != "" {
		v.EnableArenaSpill(spillDir, 4<<10) // everything below the watermark goes cold
	}
	pass := func(wantHit bool) (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			id := v.Probe(keys[i*words:(i+1)*words], hashes[i], uint64(i), -1, nil)
			if (id >= 0) != wantHit {
				return 0, fmt.Errorf("visited probe %d: id %d, want hit=%t", i, id, wantHit)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
	}
	miss, err := pass(false)
	if err != nil {
		return err
	}
	for _, f := range v.Drain() {
		v.Promote(f)
	}
	v.Reset()
	hit, err := pass(true)
	if err != nil {
		return err
	}
	ids := make([]int32, 0, 4096)
	pushPop := func(f *explore.Frontier) (float64, error) {
		defer f.Close()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f.Push(int32(i)); err != nil {
				return 0, err
			}
		}
		for popped := 0; popped < n; popped += len(ids) {
			if ids, err = f.PopChunk(ids); err != nil || len(ids) == 0 {
				return 0, fmt.Errorf("frontier drained early at %d of %d: %v", popped, n, err)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
	}
	if spillDir == "" {
		m["visited.probe_miss_ns"] = miss
		m["visited.probe_hit_ns"] = hit
		ns, err := pushPop(explore.NewFrontier(0, "", nil))
		m["frontier.pushpop_ns"] = ns
		return err
	}
	t0 := time.Now()
	if err := v.Housekeep(int32(n)); err != nil {
		return err
	}
	m["visited.housekeep_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	if v.SpilledBytes() == 0 {
		return fmt.Errorf("visited probe: Housekeep spilled nothing")
	}
	cold, err := pass(true)
	if err != nil {
		return err
	}
	m["visited.probe_cold_ns"] = cold
	ns, err := pushPop(explore.NewFrontier(64<<10, spillDir, nil))
	m["frontier.pushpop_spilled_ns"] = ns
	return err
}

func (x *exploreInst) close() {}
