package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/explore"
)

// scheduleHash digests the first requests of the seeded schedules.
func scheduleHash(seed int64) string {
	h := sha256.New()
	perm := rand.New(rand.NewSource(seed)).Perm(1000)
	hot := newHotStream(seed, 1, 0, perm)
	fleet := &fleetStream{rng: rand.New(rand.NewSource(streamSeed(seed, 1, 0)))}
	for i := 0; i < 2000; i++ {
		kind, entry := hot.next()
		cell, peer := fleet.next()
		fmt.Fprintln(h, kind, entry, cell, peer)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameSchedule(t *testing.T) {
	if scheduleHash(7) != scheduleHash(7) {
		t.Fatal("one seed gave two schedules")
	}
	if scheduleHash(7) == scheduleHash(8) {
		t.Fatal("two seeds gave one schedule")
	}
}

func TestFleetScheduleIsBalanced(t *testing.T) {
	s := &fleetStream{rng: rand.New(rand.NewSource(3))}
	counts := make([]int, len(smallCells))
	for i := 0; i < 10*len(smallCells); i++ {
		cell, _ := s.next()
		counts[cell]++
	}
	for c, n := range counts {
		if n != 10 {
			t.Fatalf("cell %d drawn %d times in 10 blocks, want 10", c, n)
		}
	}
}

func TestQuantileIsAnOrderStatistic(t *testing.T) {
	xs := []int64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.1, 10}, {0.01, 10}, {1, 100}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%g) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %g, %g; want 1, 4.5", q1, q3)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "kid", Start: 10, End: 40, Parent: 0},
		{Name: "kid", Start: 30, End: 60, Parent: 0},  // overlaps the first: [10, 60) is covered once
		{Name: "kid", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "grandkid", Start: 15, End: 20, Parent: 1},
		{Name: "orphan", Start: 5, End: 8, Parent: -1}, // no parent: subtracts from nobody
	}
	lt := selfTimes(spans)
	if got := lt["root"]; got.Self != 100-50-10 || got.Total != 100 || got.Count != 1 {
		t.Errorf("root = %+v, want self 40 of total 100", got)
	}
	if got := lt["kid"]; got.Count != 3 || got.Total != 90 || got.Self != 85 {
		t.Errorf("kid = %+v, want 3 spans, total 90, self 85", got)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", -1, 0))
	if spans := tr.snapshot(); spans != nil {
		t.Fatalf("nil tracer recorded %d spans", len(spans))
	}
}

// The Transport and PeerEngine decorators must not change the result:
// traced cluster == plain cluster == single node, byte for byte.
func TestClusterDecoratorsLeaveResultIdentical(t *testing.T) {
	e := &env{seed: 1, scale: 0.02, scratch: t.TempDir()}
	factory, opts, err := wideCell(e)
	if err != nil {
		t.Fatal(err)
	}
	c := &clusterInst{e: e, factory: factory, opts: opts, peers: 3}
	plain, err := c.runCluster(nil, opts, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := c.runCluster(tr, opts, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	single := resultHash(explore.Explore(factory, opts))
	if resultHash(plain) != single || resultHash(traced) != single {
		t.Fatalf("result JSON differs: single %s, plain %s, traced %s", single, resultHash(plain), resultHash(traced))
	}
	lt := selfTimes(tr.snapshot())
	for _, name := range []string{"cluster.Run", "cluster.expand", "cluster.commit", "cluster.frame", "cluster.ingest"} {
		if lt[name].Count == 0 {
			t.Errorf("traced run recorded no %s span", name)
		}
	}
	if c.lastTT.frameBytes == 0 {
		t.Error("traced run counted no frame bytes")
	}
}

// TestSmoke runs every workload at 1/50 scale, plain and traced, and
// asserts the output schema: every declared metric present, the gated
// ones non-zero, no failed operation.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 1, scale: 0.02, scratch: t.TempDir()}
			rep, err := runPlain(w, e, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("plain run: %+v", rep)
			}
			for _, d := range endToEnd {
				if v, ok := rep.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("plain run: %s = %+v (present %t)", d.Name, v, ok)
				}
			}
			e = &env{seed: 1, scale: 0.02, scratch: t.TempDir(), traced: true}
			rep, err = runTraced(w, e, 0.15, e.scratch+"/trace.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || len(rep.Metrics) != len(perLayer) {
				t.Fatalf("traced run: correct %t, %d metrics, want %d", rep.Correct, len(rep.Metrics), len(perLayer))
			}
			if rep.Metrics["bench.trace_overhead_ratio"].Value <= 0 || rep.Metrics["bench.spans"].Value <= 0 {
				t.Errorf("traced run: overhead %v, spans %v", rep.Metrics["bench.trace_overhead_ratio"], rep.Metrics["bench.spans"])
			}
			if fi, err := os.Stat(e.scratch + "/trace.jsonl"); err != nil || fi.Size() == 0 {
				t.Errorf("span log: %v", err)
			}
		})
	}
}

// TestManifest keeps BENCHMARK.json and the tables in this package in
// step: same workloads, same metrics, same units, directions and bounds.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, the package %q (why: %d chars)", i, got.Name, w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the package", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the package %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
	if len(perLayer) > 128 || manifest.RunSeconds < 1 || manifest.RunSeconds > 60 {
		t.Errorf("%d per-layer metrics, run_seconds %d", len(perLayer), manifest.RunSeconds)
	}
}
