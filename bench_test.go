// Package repro's benchmark suite: one benchmark per reproduction
// experiment (`ccbench -list`; docs/architecture.md) plus engine and
// substrate microbenchmarks.
// Run with:
//
//	go test -bench=. -benchmem
//
// The Benchmark<ID> entries execute the same workloads as
// `ccbench -exp <ID>` at reduced sizes and report the simulation cost;
// the experiment *claims* are asserted by `go test ./internal/...` and
// by ccbench itself.
package repro

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hypergraph"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// --- Experiment benchmarks (one per paper artifact) --------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		res := e.RunFn(experiments.Config{Seed: int64(i + 1), Quick: true})
		if !res.Ok() {
			b.Fatalf("%s failed: %v", id, res.Failures[0])
		}
	}
}

func BenchmarkEXP_F1_Figure1(b *testing.B)             { benchExperiment(b, "F1") }
func BenchmarkEXP_F2_Impossibility(b *testing.B)       { benchExperiment(b, "F2") }
func BenchmarkEXP_F3_ExampleComputation(b *testing.B)  { benchExperiment(b, "F3") }
func BenchmarkEXP_F4_Locks(b *testing.B)               { benchExperiment(b, "F4") }
func BenchmarkEXP_T2_CC1SnapStab(b *testing.B)         { benchExperiment(b, "T2") }
func BenchmarkEXP_T3_CC2Fairness(b *testing.B)         { benchExperiment(b, "T3") }
func BenchmarkEXP_T45_FairConcurrencyCC2(b *testing.B) { benchExperiment(b, "T45") }
func BenchmarkEXP_T6_WaitingTime(b *testing.B)         { benchExperiment(b, "T6") }
func BenchmarkEXP_T78_FairConcurrencyCC3(b *testing.B) { benchExperiment(b, "T78") }
func BenchmarkEXP_SNAP_FaultBursts(b *testing.B)       { benchExperiment(b, "SNAP") }
func BenchmarkEXP_TOKEN_Convergence(b *testing.B)      { benchExperiment(b, "TOKEN") }
func BenchmarkEXP_CONC_Comparison(b *testing.B)        { benchExperiment(b, "CONC") }

// --- Algorithm step-throughput microbenchmarks -------------------------------

func benchSteps(b *testing.B, variant core.Variant, h *hypergraph.H, randomInit bool) {
	b.Helper()
	// Shared with ccbench -bench-json so BENCH_step.json measures the
	// exact configuration these published numbers use.
	r := experiments.NewStepRunner(variant, h, randomInit)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Run(1) == 0 {
			b.Fatal("unexpected quiescence")
		}
	}
	b.ReportMetric(float64(r.TotalConvenes())/float64(b.N), "convenes/step")
}

func BenchmarkStepCC1_Ring8(b *testing.B) {
	benchSteps(b, core.CC1, hypergraph.CommitteeRing(8), false)
}
func BenchmarkStepCC1_Ring32(b *testing.B) {
	benchSteps(b, core.CC1, hypergraph.CommitteeRing(32), false)
}
func BenchmarkStepCC2_Ring8(b *testing.B) {
	benchSteps(b, core.CC2, hypergraph.CommitteeRing(8), false)
}
func BenchmarkStepCC2_Ring32(b *testing.B) {
	benchSteps(b, core.CC2, hypergraph.CommitteeRing(32), false)
}
func BenchmarkStepCC3_Ring8(b *testing.B) {
	benchSteps(b, core.CC3, hypergraph.CommitteeRing(8), false)
}
func BenchmarkStepCC2_Figure3(b *testing.B) { benchSteps(b, core.CC2, hypergraph.Figure3(), false) }
func BenchmarkStepCC1_Grid4x4(b *testing.B) { benchSteps(b, core.CC1, hypergraph.Grid(4, 4), false) }
func BenchmarkStepCC2_RandomInit(b *testing.B) {
	benchSteps(b, core.CC2, hypergraph.CommitteeRing(8), true)
}

func BenchmarkStepDining_Ring8(b *testing.B) {
	a := baseline.New(baseline.Dining, hypergraph.CommitteeRing(8), 2)
	r := baseline.NewRunner(a, &sim.WeaklyFair{MaxAge: 6}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Run(1) == 0 {
			b.Fatal("unexpected quiescence")
		}
	}
}

func BenchmarkStepTokenRing_Ring8(b *testing.B) {
	a := baseline.New(baseline.TokenRing, hypergraph.CommitteeRing(8), 2)
	r := baseline.NewRunner(a, &sim.WeaklyFair{MaxAge: 6}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Run(1) == 0 {
			b.Fatal("unexpected quiescence")
		}
	}
}

func BenchmarkOracle_Ring32(b *testing.B) {
	h := hypergraph.CommitteeRing(32)
	for i := 0; i < b.N; i++ {
		baseline.Oracle(h, 2, 100, int64(i))
	}
}

// --- Substrate microbenchmarks ------------------------------------------------

func BenchmarkTokenConvergence_Ring12(b *testing.B) {
	h := hypergraph.CommitteeRing(12)
	for i := 0; i < b.N; i++ {
		res := metrics.TokenConvergence(h, 1, 50000, int64(i))
		if res.Converged != 1 {
			b.Fatal("TC did not converge")
		}
	}
}

func BenchmarkMinMaximalMatching_Ring12(b *testing.B) {
	h := hypergraph.CommitteeRing(12)
	for i := 0; i < b.N; i++ {
		if s, _ := h.MinMaximalMatching(); s == 0 {
			b.Fatal("no matching")
		}
	}
}

func BenchmarkMinAMM_Figure1(b *testing.B) {
	h := hypergraph.Figure1()
	for i := 0; i < b.N; i++ {
		h.MinAMM()
	}
}

func BenchmarkMaximalMatchingEnumeration_Grid3x3(b *testing.B) {
	h := hypergraph.Grid(3, 3)
	for i := 0; i < b.N; i++ {
		count := 0
		h.EnumerateMaximalMatchings(nil, func(m []int) bool {
			count++
			return true
		})
		if count == 0 {
			b.Fatal("no maximal matchings")
		}
	}
}

func BenchmarkDegreeOfFairConcurrency_Ring8(b *testing.B) {
	h := hypergraph.CommitteeRing(8)
	for i := 0; i < b.N; i++ {
		m := metrics.DegreeOfFairConcurrency(core.CC2, h, 1, 60000, int64(i), false)
		if m.Quiesced != 1 {
			b.Fatal("did not quiesce")
		}
	}
}

func BenchmarkWaitingTime_Ring12(b *testing.B) {
	h := hypergraph.CommitteeRing(12)
	for i := 0; i < b.N; i++ {
		w := metrics.WaitingTime(core.CC2, h, 2, 20000, int64(i))
		if w.Convenes == 0 {
			b.Fatal("no meetings")
		}
	}
}

func BenchmarkEXP_ABL_Ablations(b *testing.B) { benchExperiment(b, "ABL") }
