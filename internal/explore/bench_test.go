package explore

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// BenchmarkExpandBatch times whole explorations of the out-of-core cell
// (CC2 on ring:5 from every CC-layer fault, central daemon, a 1 MiB
// arena budget, two workers): 137 narrow layers whose per-state work is
// the batch expansion. It reports states/s and allhit/state, the share
// of expanded states whose every process hit the local-transition cache
// and so skipped the decode.
func BenchmarkExpandBatch(b *testing.B) {
	factory, err := CC(core.CC2, hypergraph.CommitteeRing(5), CCOptions{Init: InitCC})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Mode: sim.SelectCentral, CheckDeadlock: true, CheckClosure: true, Workers: 2, MemBudget: 1 << 20}
	var states, expanded, allHits int64
	b.ResetTimer()
	for range b.N {
		opts.SpillDir = b.TempDir()
		be := newLocalBackend(factory, opts)
		err := be.run.run(context.Background(), be, false)
		be.vs.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res := be.run.res; !res.Ok() || res.States != 828_919 {
			b.Fatalf("unexpected result: %s", res.Summary())
		}
		e, a := expandedAllHit(be.wss)
		states, expanded, allHits = states+int64(be.run.res.States), expanded+e, allHits+a
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
	b.ReportMetric(float64(allHits)/float64(expanded), "allhit/state")
}
