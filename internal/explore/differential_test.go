package explore

import (
	"encoding/json"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
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
// report of three workers behind four-slot filters must be, byte for
// byte, the report of one worker behind the default filter.
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
	if got := run(3); string(got) != string(ref) {
		t.Fatalf("report (workers=3, 4-slot filter) differs from workers=1:\n%s\nvs\n%s", got, ref)
	}
}

// batteryCells enumerates the battery: add receives each cell's name,
// whether -short skips it, and its body — assertThreeWay, or
// assertTinyFilter when tiny is set.
func batteryCells(add func(name string, heavy bool, run func(t *testing.T, tiny bool))) {
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
				add(algName+"/"+topoName+"/"+modeName, heavy, func(t *testing.T, tiny bool) {
					factory := mustCC(t, variant, mkH(), CCOptions{Init: init})
					opts := Options{
						Mode: mode, MaxStates: maxStates,
						CheckDeadlock: true, CheckClosure: true,
					}
					if mode == sim.SelectSynchronous {
						opts.CheckConvergence = true
					}
					if tiny {
						assertTinyFilter(t, factory, opts)
						return
					}
					assertThreeWay(t, factory, opts)
				})
			}
		}
	}

	// Baseline cells: legit init only. The dining reduction's pinned
	// central-schedule deadlock on ring:3 must be found by both engines
	// with the same trace.
	for _, kind := range []baseline.Kind{baseline.Dining, baseline.TokenRing} {
		for topoName, mkH := range topos {
			for modeName, mode := range modes {
				heavy := topoName == "triples:3" || modeName == "all-subsets"
				add(kind.String()+"/"+topoName+"/"+modeName, heavy, func(t *testing.T, tiny bool) {
					factory, err := Baseline(kind, mkH(), 1)
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{
						Mode: mode, MaxStates: 60_000, MaxViolations: 2, CheckDeadlock: true,
					}
					if tiny {
						assertTinyFilter(t, factory, opts)
						return
					}
					a := assertThreeWay(t, factory, opts)
					if kind == baseline.Dining && topoName == "ring:3" && modeName == "central" && a.Deadlocks == 0 {
						t.Fatal("pinned dining deadlock on ring:3 disappeared from both engines")
					}
				})
			}
		}
	}
}

func TestDifferentialBattery(t *testing.T) {
	batteryCells(func(name string, heavy bool, run func(t *testing.T, tiny bool)) {
		t.Run(name, func(t *testing.T) {
			if heavy && testing.Short() {
				t.Skip("heavy cell: skipped in -short")
			}
			t.Parallel() // cells share no state; reports are identical at any width
			run(t, false)
		})
	})
}

// TestDifferentialBatteryTinyFilter runs the battery's cells once more
// with the successor filter shrunk to four slots, where nearly every
// consultation evicts or collides: the filter may only ever skip a probe
// that could not have changed the set, so capacity must not show in a
// single byte. Serial — the capacity is a package variable.
func TestDifferentialBatteryTinyFilter(t *testing.T) {
	batteryCells(func(name string, heavy bool, run func(t *testing.T, tiny bool)) {
		t.Run(name, func(t *testing.T) {
			if heavy && testing.Short() {
				t.Skip("heavy cell: skipped in -short")
			}
			run(t, true)
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
		converge bool
	}{
		{MutationLeaveEarly, InitLegit, sim.SelectCentral, false},
		{MutationSkipStab, InitCCFull, sim.SelectSynchronous, true},
	} {
		factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: tc.init, Mutation: tc.mutation})
		opts := Options{
			Mode: tc.mode, CheckDeadlock: true, CheckConvergence: tc.converge, MaxViolations: 3,
		}
		assertThreeWay(t, factory, opts)
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
// mutated run.
func TestParallelReportsByteIdentical(t *testing.T) {
	run := func(workers int, scalar bool, mutation string, init InitMode) []byte {
		factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: init, Mutation: mutation})
		res := Explore(factory, Options{
			Mode: sim.SelectAllSubsets, CheckDeadlock: true, CheckClosure: true,
			MaxViolations: 4, Workers: workers, DisableBatch: scalar,
		})
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
		ref := run(1, false, tc.mutation, tc.init)
		for _, workers := range []int{1, 2, 3, 8} {
			for _, scalar := range []bool{false, true} {
				if workers == 1 && !scalar {
					continue
				}
				if got := run(workers, scalar, tc.mutation, tc.init); string(got) != string(ref) {
					t.Fatalf("%s: report at -j %d scalar=%v differs from batch -j 1:\n%s\nvs\n%s",
						tc.name, workers, scalar, got, ref)
				}
			}
		}
		t.Run(tc.name+"/filter=4", func(t *testing.T) {
			shrinkFilter(t, 4)
			for _, workers := range []int{1, 3} {
				if got := run(workers, false, tc.mutation, tc.init); string(got) != string(ref) {
					t.Fatalf("report at -j %d behind a 4-slot filter differs from batch -j 1:\n%s\nvs\n%s",
						workers, got, ref)
				}
			}
		})
	}
}
