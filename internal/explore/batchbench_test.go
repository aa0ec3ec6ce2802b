package explore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// Benchmarks over check-heavy CC cells (central and all-subsets
// branching), each measured through the batch pipeline and through the
// forced-scalar path — so
//
//	go test -bench 'BenchmarkCell' -benchtime 1x ./internal/explore/
//
// reproduces the before/after picture of the batch/SoA expansion on
// any machine (docs/benchmarks.md tabulates one such run).
func benchCell(b *testing.B, variant core.Variant, h *hypergraph.H, init InitMode, mode sim.SelectionMode, maxStates int) {
	factory, err := CC(variant, h, CCOptions{Init: init})
	if err != nil {
		b.Fatal(err)
	}
	for _, scalar := range []bool{false, true} {
		name := "batch"
		if scalar {
			name = "scalar"
		}
		b.Run(name, func(b *testing.B) {
			opts := Options{
				Mode: mode, MaxStates: maxStates,
				CheckDeadlock: true, CheckClosure: true,
				DisableBatch: scalar,
			}
			states := 0
			for i := 0; i < b.N; i++ {
				res := Explore(factory, opts)
				if res.States == 0 {
					b.Fatal("no states explored")
				}
				states = res.States
			}
			b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
		})
	}
}

func BenchmarkCellCC2Ring3FullCentral(b *testing.B) {
	benchCell(b, core.CC2, hypergraph.CommitteeRing(3), InitCCFull, sim.SelectCentral, 6_000_000)
}

func BenchmarkCellCC2Ring3FullAllSubsets(b *testing.B) {
	benchCell(b, core.CC2, hypergraph.CommitteeRing(3), InitCCFull, sim.SelectAllSubsets, 6_000_000)
}

func BenchmarkCellCC2Ring4Central(b *testing.B) {
	benchCell(b, core.CC2, hypergraph.CommitteeRing(4), InitCC, sim.SelectCentral, 6_000_000)
}

func BenchmarkCellCC1Triples3AllSubsets(b *testing.B) {
	benchCell(b, core.CC1, hypergraph.ChainOfTriples(3), InitLegit, sim.SelectAllSubsets, 1_000_000)
}

func BenchmarkCellCC3Triples3AllSubsets(b *testing.B) {
	benchCell(b, core.CC3, hypergraph.ChainOfTriples(3), InitLegit, sim.SelectAllSubsets, 1_000_000)
}
