package experiments

import (
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// StepWorkload is one engine-step benchmark workload. The table below
// is what the bench/ module's `sim.step_ns.*` metrics time (its
// paper-suite workload), so those numbers stay comparable to the PR 1
// table in docs/benchmarks.md.
type StepWorkload struct {
	Name    string
	Variant core.Variant
	NewH    func() *hypergraph.H
}

// StepBenchWorkloads returns the engine-step workloads bench/ measures.
func StepBenchWorkloads() []StepWorkload {
	return []StepWorkload{
		{"StepCC1_Ring32", core.CC1, func() *hypergraph.H { return hypergraph.CommitteeRing(32) }},
		{"StepCC2_Ring32", core.CC2, func() *hypergraph.H { return hypergraph.CommitteeRing(32) }},
		{"StepCC2_Figure3", core.CC2, func() *hypergraph.H { return hypergraph.Figure3() }},
		{"StepCC3_Ring8", core.CC3, func() *hypergraph.H { return hypergraph.CommitteeRing(8) }},
	}
}

// NewStepRunner builds the reference runner configuration every
// engine-step benchmark uses: weakly fair daemon (MaxAge 6),
// always-requesting client with a 2-step discussion, seed 1.
func NewStepRunner(variant core.Variant, h *hypergraph.H, randomInit bool) *core.Runner {
	alg := core.New(variant, h, nil)
	env := core.NewAlwaysClient(h.N(), 2)
	return core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, 1, randomInit)
}
