package explore

import (
	"encoding/json"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The differential battery: the binary-codec sharded engine (Explore)
// must reproduce the preserved PR 2 string-codec serial engine
// (Reference) exactly — reachable-state counts, transition counts,
// depths, deadlock counts, verdicts, and counterexample traces — on
// every algorithm × topology × daemon-branching cell. This is the
// proof that the codec rewrite, the concurrent dedup and the
// incremental transition checks changed the performance of the checker
// and nothing else.
//
// CI runs the ring:3 shard of this battery under -race
// (TestDifferentialBattery/.*ring:3.* — see .github/workflows/ci.yml).

// assertSameResult compares everything the two engines must agree on.
// Trace keys are engine-internal (the oracle leaves them nil) and
// excluded; rendered configurations and selections are compared.
func assertSameResult(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Inits != b.Inits || a.States != b.States || a.Transitions != b.Transitions ||
		a.Depth != b.Depth || a.MaxEnabled != b.MaxEnabled || a.Deadlocks != b.Deadlocks ||
		a.Truncated != b.Truncated || a.MaxIncorrectDepth != b.MaxIncorrectDepth {
		t.Fatalf("engines diverged:\n  new: %s (maxEnabled %d, incorrect %d)\n  old: %s (maxEnabled %d, incorrect %d)",
			a.Summary(), a.MaxEnabled, a.MaxIncorrectDepth, b.Summary(), b.MaxEnabled, b.MaxIncorrectDepth)
	}
	if a.Verdict() != b.Verdict() {
		t.Fatalf("verdicts diverged: %s vs %s", a.Verdict(), b.Verdict())
	}
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("violation counts diverged: %d vs %d", len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		va, vb := a.Violations[i], b.Violations[i]
		if va.Kind != vb.Kind || va.Msg != vb.Msg || va.Depth != vb.Depth || len(va.Trace) != len(vb.Trace) {
			t.Fatalf("violation %d diverged:\n  new: %s (%d steps)\n  old: %s (%d steps)",
				i, va, len(va.Trace), vb, len(vb.Trace))
		}
		for j := range va.Trace {
			sa, sb := va.Trace[j], vb.Trace[j]
			if sa.Config != sb.Config || !sameSel(sa.Sel, sb.Sel) {
				t.Fatalf("violation %d trace step %d diverged:\n  new: %v %s\n  old: %v %s",
					i, j, sa.Sel, sa.Config, sb.Sel, sb.Config)
			}
		}
	}
}

func sameSel(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertThreeWay is the widened battery cell: the batch pipeline, the
// scalar engine (DisableBatch) and the frozen PR 2 oracle must agree.
// The oracle comparison is field-by-field (its trace keys are nil);
// batch vs scalar vs every worker count is full marshalled-report
// byte-equality — counterexample traces, truncation flags and all.
// Three workers own stripe ranges that do not divide the 64 stripes
// evenly; ownership is the same code on both paths, so that width runs
// the batch pipeline only. Returns the batch result for cell-specific
// pinned assertions.
func assertThreeWay[S sim.Cloneable[S]](t *testing.T, factory func() *Model[S], opts Options) *Result {
	t.Helper()
	oracle := Reference(factory, opts)
	var batch *Result
	var ref []byte
	for _, workers := range []int{1, 2, 3, 8} {
		for _, scalar := range []bool{false, true} {
			if workers == 3 && scalar {
				continue
			}
			o := opts
			o.Workers = workers
			o.DisableBatch = scalar
			res := Explore(factory, o)
			if workers == 1 && !scalar {
				batch = res
				assertSameResult(t, res, oracle)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = data
			} else if string(data) != string(ref) {
				t.Fatalf("report (workers=%d scalar=%v) differs from batch workers=1:\n%s\nvs\n%s",
					workers, scalar, data, ref)
			}
		}
	}
	return batch
}

// shrinkFilter forces every successor filter built until the test ends
// down to n slots — constant eviction and collision. The capacity is a
// package variable: only for tests that run nothing in parallel.
func shrinkFilter(t *testing.T, n int) {
	old := filterEntries
	filterEntries = n
	t.Cleanup(func() { filterEntries = old })
}

// assertTinyFilter is the cell body of the battery's second pass: the
// report of three workers behind four-slot filters and four-entry
// local-transition caches must be, byte for byte, the report of one
// worker behind the default ones (which the first pass holds to the
// scalar and Reference legs).
func assertTinyFilter[S sim.Cloneable[S]](t *testing.T, factory func() *Model[S], opts Options) {
	t.Helper()
	run := func(workers int) []byte {
		o := opts
		o.Workers = workers
		data, err := json.Marshal(Explore(factory, o))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := run(1)
	shrinkFilter(t, 4)
	shrinkLocal(t, 4)
	if got := run(3); string(got) != string(ref) {
		t.Fatalf("report (workers=3, 4-slot filter, 4-entry cache) differs from workers=1:\n%s\nvs\n%s", got, ref)
	}
}

// assertEngages holds a cell's model to the batch pipeline: every worker
// state built for it runs expandBatch unless DisableBatch asks for the
// scalar reference leg, with and without symmetry reduction.
func assertEngages[S sim.Cloneable[S]](t *testing.T, factory func() *Model[S], opts Options) {
	t.Helper()
	for _, sym := range []bool{false, true} {
		for _, scalar := range []bool{false, true} {
			o := opts
			o.Symmetry, o.DisableBatch = sym, scalar
			if batch := newWorkerState(factory(), &o).bkern != nil; batch == scalar {
				t.Fatalf("symmetry=%v DisableBatch=%v: batch pipeline engaged = %v", sym, scalar, batch)
			}
		}
	}
}

// cellLeg selects what a battery cell's body runs.
type cellLeg int

const (
	legThreeWay   cellLeg = iota // assertThreeWay
	legTinyFilter                // assertTinyFilter
	legEngages                   // assertEngages
)

// runLeg runs leg on a cell's model and returns the batch result of the
// three-way leg (nil for the others).
func runLeg[S sim.Cloneable[S]](t *testing.T, leg cellLeg, factory func() *Model[S], opts Options) *Result {
	t.Helper()
	switch leg {
	case legTinyFilter:
		assertTinyFilter(t, factory, opts)
	case legEngages:
		assertEngages(t, factory, opts)
	default:
		return assertThreeWay(t, factory, opts)
	}
	return nil
}

// batteryCells enumerates the battery: add receives each cell's name,
// whether -short skips it, and its body, which runs the leg it is given.
func batteryCells(add func(name string, heavy bool, run func(t *testing.T, leg cellLeg))) {
	variants := map[string]core.Variant{"cc1": core.CC1, "cc2": core.CC2, "cc3": core.CC3}
	topos := map[string]func() *hypergraph.H{
		"ring:3":    func() *hypergraph.H { return hypergraph.CommitteeRing(3) },
		"star:4":    func() *hypergraph.H { return hypergraph.Star(4) },
		"triples:3": func() *hypergraph.H { return hypergraph.ChainOfTriples(3) },
	}
	modes := map[string]sim.SelectionMode{
		"central":     sim.SelectCentral,
		"synchronous": sim.SelectSynchronous,
		"all-subsets": sim.SelectAllSubsets,
	}

	// CC cells: every variant × topology × mode. ring:3 runs the full
	// cc-full fault family; the larger topologies use the cc family
	// (as PR 2's MC experiment does) and a state budget. triples:3 is
	// tractable in the synchronous mode only — the other modes are run
	// bounded, which is itself a differential test of the truncation
	// path.
	for algName, variant := range variants {
		for topoName, mkH := range topos {
			for modeName, mode := range modes {
				init := InitCCFull
				maxStates := 0
				heavy := false
				switch topoName {
				case "star:4":
					init = InitCC
				case "triples:3":
					init = InitCC
					heavy = true
					if modeName != "synchronous" {
						maxStates = 40_000 // bounded cells: differential truncation
						heavy = false
					}
				}
				if algName != "cc2" && (topoName != "ring:3" || modeName == "all-subsets") {
					// Keep the battery's runtime bounded: the companion
					// variants get the full cross on ring:3 (central,
					// synchronous) and bounded probes elsewhere.
					if topoName == "ring:3" {
						heavy = true
					} else {
						maxStates = 25_000
						heavy = false
					}
				}
				add(algName+"/"+topoName+"/"+modeName, heavy, ccCell(variant, mkH, init, mode, maxStates))
			}
		}
	}
	// Every ring:4 process reads 3 of 4 blocks, as explore-spill's ring:5
	// processes read 3 of 5: the local-transition cache's case.
	add("cc2/ring:4/central", false, ccCell(core.CC2, func() *hypergraph.H { return hypergraph.CommitteeRing(4) }, InitCC, sim.SelectCentral, 40_000))

	// Baseline cells: legit init only. The dining reduction's pinned
	// central-schedule deadlock on ring:3 must be found by both engines
	// with the same trace.
	for _, kind := range []baseline.Kind{baseline.Dining, baseline.TokenRing} {
		for topoName, mkH := range topos {
			for modeName, mode := range modes {
				heavy := topoName == "triples:3" || modeName == "all-subsets"
				add(kind.String()+"/"+topoName+"/"+modeName, heavy, func(t *testing.T, leg cellLeg) {
					factory, err := Baseline(kind, mkH(), 1)
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{
						Mode: mode, MaxStates: 60_000, MaxViolations: 2, CheckDeadlock: true,
					}
					a := runLeg(t, leg, factory, opts)
					if a != nil && kind == baseline.Dining && topoName == "ring:3" && modeName == "central" && a.Deadlocks == 0 {
						t.Fatal("pinned dining deadlock on ring:3 disappeared from both engines")
					}
				})
			}
		}
	}
}

// ccCell is the body of a CC battery cell.
func ccCell(variant core.Variant, mkH func() *hypergraph.H, init InitMode, mode sim.SelectionMode, maxStates int) func(t *testing.T, leg cellLeg) {
	return func(t *testing.T, leg cellLeg) {
		factory := mustCC(t, variant, mkH(), CCOptions{Init: init})
		opts := Options{
			Mode: mode, MaxStates: maxStates,
			CheckDeadlock: true, CheckClosure: true,
		}
		if mode == sim.SelectSynchronous {
			opts.CheckConvergence = true
		}
		runLeg(t, leg, factory, opts)
	}
}

func TestDifferentialBattery(t *testing.T) {
	batteryCells(func(name string, heavy bool, run func(t *testing.T, leg cellLeg)) {
		t.Run(name, func(t *testing.T) {
			if heavy && testing.Short() {
				t.Skip("heavy cell: skipped in -short")
			}
			t.Parallel() // cells share no state; reports are identical at any width
			run(t, legThreeWay)
		})
	})
}

// TestBatchEngagesEveryCell: every model of every battery cell, heavy
// ones included (no cell is explored here), is expanded by the batch
// pipeline unless DisableBatch is set — the size rule left no model
// that a production path would send to the scalar expansion.
func TestBatchEngagesEveryCell(t *testing.T) {
	batteryCells(func(name string, _ bool, run func(t *testing.T, leg cellLeg)) {
		t.Run(name, func(t *testing.T) { run(t, legEngages) })
	})
}

// TestDifferentialBatteryTinyFilter runs the battery's cells once more
// with the successor filter shrunk to four slots and the
// local-transition cache to four entries, where nearly every
// consultation evicts or collides: the filter may only ever skip a probe
// that could not have changed the set, and the cache only ever answer
// with the move its whole key determines, so neither capacity may show
// in a single byte. Serial — the capacities are package variables.
func TestDifferentialBatteryTinyFilter(t *testing.T) {
	batteryCells(func(name string, heavy bool, run func(t *testing.T, leg cellLeg)) {
		t.Run(name, func(t *testing.T) {
			if heavy && testing.Short() {
				t.Skip("heavy cell: skipped in -short")
			}
			run(t, legTinyFilter)
		})
	})
}

// TestDifferentialMutations: seeded guard mutations must yield the
// same violations with the same counterexample traces from both
// engines (the counterexample machinery itself is differentially
// tested, not just the clean path).
func TestDifferentialMutations(t *testing.T) {
	for _, tc := range []struct {
		mutation string
		init     InitMode
		mode     sim.SelectionMode
		closure  bool
		converge bool
	}{
		{MutationLeaveEarly, InitLegit, sim.SelectCentral, false, false},
		{MutationSkipStab, InitCCFull, sim.SelectSynchronous, false, true},
		// The all-subsets stream, whose batch side comes out of the
		// projection pass: essential-discussion and closure violations.
		{MutationLeaveEarly, InitLegit, sim.SelectAllSubsets, true, false},
	} {
		factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: tc.init, Mutation: tc.mutation})
		opts := Options{
			Mode: tc.mode, CheckDeadlock: true, CheckClosure: tc.closure, CheckConvergence: tc.converge, MaxViolations: 3,
		}
		res := assertThreeWay(t, factory, opts)
		if tc.mode == sim.SelectAllSubsets {
			kinds := map[string]bool{}
			for _, v := range res.Violations {
				kinds[v.Kind] = true
			}
			if !kinds[spec.KindEssential] || !kinds[KindClosure] {
				t.Fatalf("all-subsets leave-early stream lost a kind: %v", res.Violations)
			}
		}
	}
}

// plainKernel hides everything but sim.BatchKernel from the kernel it
// wraps, so the batch pipeline adapts it with genericChecker and the
// transition checks run the model's own Correct.
type plainKernel[S sim.Cloneable[S]] struct{ sim.BatchKernel[S] }

// TestClosureNeedsJointMove: a closure violation that no single process
// causes. The model is CC1 on ring:4 from the legitimate configuration,
// where every professor is idle and the three without the token are
// enabled to start looking, with a test-only Correct: p is Correct
// while at most one process of its closed neighbourhood is looking. Any
// one professor starting to look keeps every process Correct; two
// members of one neighbourhood starting together break it. The all-subsets projection pass must therefore
// walk joint submasks of a neighbourhood, not only singletons, or the
// initial state reads as clean and its violations go missing.
func TestClosureNeedsJointMove(t *testing.T) {
	factory := jointMoveCC(t)
	if _, ok := newWorkerState(factory(), &Options{}).bkern.(*genericChecker[core.State]); !ok {
		t.Fatal("the wrapped kernel did not run through genericChecker")
	}
	opts := Options{Mode: sim.SelectAllSubsets, CheckClosure: true, MaxViolations: 6}
	res := assertThreeWay(t, factory, opts)
	if len(res.Violations) == 0 {
		t.Fatal("no closure violation found")
	}
	for _, v := range res.Violations {
		last := v.Trace[len(v.Trace)-1]
		if v.Kind != KindClosure || v.Depth != 1 || len(last.Sel) < 2 {
			t.Fatalf("want only joint-move closure violations out of the initial state, got %s (selection %v)", v, last.Sel)
		}
	}
}

// jointMoveCC is TestClosureNeedsJointMove's model: CC1 on ring:4 from
// the legitimate configuration, with a Correct that no single move
// breaks and two moves in one neighbourhood do.
func jointMoveCC(t *testing.T) func() *Model[core.State] {
	h := hypergraph.CommitteeRing(4)
	cc := mustCC(t, core.CC1, h, CCOptions{Init: InitLegit})
	deps := make([][]int, h.N())
	for p := range deps {
		deps[p] = append(append([]int(nil), h.Neighbors(p)...), p)
	}
	return func() *Model[core.State] {
		m := cc()
		kernel := m.Kernel
		m.Kernel = func() sim.BatchKernel[core.State] { return plainKernel[core.State]{kernel()} }
		m.Deps = func(p int) []int { return deps[p] }
		m.Correct = func(cfg []core.State, p int) bool {
			looking := 0
			for _, q := range deps[p] {
				if cfg[q].S == core.Looking {
					looking++
				}
			}
			return looking <= 1
		}
		return m
	}
}

// TestDifferentialTruncation: the MaxStates bound must cut both
// engines at the same states with the same reports.
func TestDifferentialTruncation(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCCFull})
	for _, maxStates := range []int{500, 46656, 50_000} {
		opts := Options{Mode: sim.SelectCentral, MaxStates: maxStates, CheckDeadlock: true}
		a := assertThreeWay(t, factory, opts)
		if a.States > maxStates {
			t.Fatalf("MaxStates=%d exceeded: %d states", maxStates, a.States)
		}
	}
}

// TestParallelReportsByteIdentical is the -j property: marshalled
// reports at one, two, three and eight workers are byte-identical — from
// both the batch pipeline and the scalar engine, and once more behind
// four-slot successor filters — including counterexample traces from a
// mutated run. The owner commit gets three more rows, compared at the
// same worker counts: a state bound that cuts the seed layer (200 of
// 729 inits) and one that cuts a middle layer (50 of 98 states), both
// mutated so the traces walk the trace links, and a run whose arena
// spills. StateBytes is part of the marshalled report, so the commit's
// per-owner scratch must not show in it.
func TestParallelReportsByteIdentical(t *testing.T) {
	run := func(workers int, scalar bool, mutation string, init InitMode, edit func(*Options)) []byte {
		factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: init, Mutation: mutation})
		opts := Options{
			Mode: sim.SelectAllSubsets, CheckDeadlock: true, CheckClosure: true,
			MaxViolations: 4, Workers: workers, DisableBatch: scalar,
		}
		if edit != nil {
			edit(&opts)
		}
		res := Explore(factory, opts)
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, tc := range []struct {
		name     string
		mutation string
		init     InitMode
	}{
		{"clean", "", InitCC},
		{"mutated", MutationLeaveEarly, InitLegit},
	} {
		ref := run(1, false, tc.mutation, tc.init, nil)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, scalar := range []bool{false, true} {
				if workers == 1 && !scalar {
					continue
				}
				if got := run(workers, scalar, tc.mutation, tc.init, nil); string(got) != string(ref) {
					t.Fatalf("%s: report at -j %d scalar=%v differs from batch -j 1:\n%s\nvs\n%s",
						tc.name, workers, scalar, got, ref)
				}
			}
		}
		t.Run(tc.name+"/filter=4", func(t *testing.T) {
			shrinkFilter(t, 4)
			for _, workers := range []int{1, 3} {
				if got := run(workers, false, tc.mutation, tc.init, nil); string(got) != string(ref) {
					t.Fatalf("report at -j %d behind a 4-slot filter differs from batch -j 1:\n%s\nvs\n%s",
						workers, got, ref)
				}
			}
		})
	}
	for _, tc := range []struct {
		name     string
		mutation string
		init     InitMode
		edit     func(*Options)
	}{
		{"seed-cut", MutationLeaveEarly, InitCC, func(o *Options) { o.MaxStates = 200 }},
		{"mid-cut", MutationLeaveEarly, InitLegit, func(o *Options) { o.MaxStates = 50 }},
		{"spilled", "", InitCC, func(o *Options) {
			o.MemBudget, o.SpillDir, o.Stats = 16<<10, t.TempDir(), &RunStats{}
		}},
	} {
		var ref []byte
		for _, workers := range []int{1, 2, 3, 8} {
			var opts Options
			got := run(workers, false, tc.mutation, tc.init, func(o *Options) { tc.edit(o); opts = *o })
			var res Result
			if err := json.Unmarshal(got, &res); err != nil {
				t.Fatal(err)
			}
			if opts.MaxStates > 0 && (!res.Truncated || res.Ok()) {
				t.Fatalf("%s at -j %d: want a truncated run with violations, got %s", tc.name, workers, res.Summary())
			}
			if st := opts.Stats; st != nil && (st.ArenaSpilledBytes == 0 || st.ExpandSeconds <= 0 || st.CommitSeconds <= 0) {
				t.Fatalf("%s at -j %d: spilled %d arena bytes, expand %gs, commit %gs; want all positive",
					tc.name, workers, st.ArenaSpilledBytes, st.ExpandSeconds, st.CommitSeconds)
			}
			if ref == nil {
				ref = got
			} else if string(got) != string(ref) {
				t.Fatalf("%s: report at -j %d differs from -j 1:\n%s\nvs\n%s", tc.name, workers, got, ref)
			}
		}
	}
}
