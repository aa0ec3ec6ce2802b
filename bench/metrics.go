package main

// metricDef mirrors one metric entry of BENCHMARK.json; the manifest
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, reported by every workload's
// untraced run. The bounds are the widest the contract allows; README.md
// and AA_RESULTS.txt say how far two sets of runs of the same code
// disagree on the box this was calibrated on.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the informational metrics of the traced run. Every
// traced run prints all of them; a metric whose layer the workload
// does not cross reads 0 there (README.md maps metrics to workloads).
var perLayer = []metricDef{
	// sim / experiments / par — paper-suite.
	{Name: "sim.step_ns.cc1_ring32", Unit: "ns", Better: "lower"},
	{Name: "sim.step_ns.cc2_ring32", Unit: "ns", Better: "lower"},
	{Name: "sim.step_ns.cc2_fig3", Unit: "ns", Better: "lower"},
	{Name: "sim.step_ns.cc3_ring8", Unit: "ns", Better: "lower"},
	{Name: "sim.step_allocs", Unit: "count", Better: "lower"},
	{Name: "experiments.sim_share", Unit: "ratio", Better: "lower"},
	{Name: "experiments.mc_share", Unit: "ratio", Better: "lower"},
	{Name: "experiments.slowest_s", Unit: "s", Better: "lower"},
	{Name: "par.speedup_j2", Unit: "ratio", Better: "higher"},

	// explore — explore-wide, explore-spill.
	{Name: "explore.transitions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "explore.dup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "explore.bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "explore.chunk_gap_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "explore.scaling_w2", Unit: "ratio", Better: "higher"},
	{Name: "explore.batch_vs_scalar", Unit: "ratio", Better: "higher"},
	{Name: "explore.spill_tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "explore.frontier_spill_bytes", Unit: "B", Better: "lower"},
	{Name: "explore.frontier_spill_segments", Unit: "count", Better: "lower"},
	{Name: "explore.arena_spill_bytes", Unit: "B", Better: "lower"},
	{Name: "visited.probe_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "visited.probe_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "visited.probe_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "visited.housekeep_ms", Unit: "ms", Better: "lower"},
	{Name: "frontier.pushpop_ns", Unit: "ns", Better: "lower"},
	{Name: "frontier.pushpop_spilled_ns", Unit: "ns", Better: "lower"},

	// cluster — cluster-local3.
	{Name: "cluster.seed_s", Unit: "s", Better: "lower"},
	{Name: "cluster.expand_s", Unit: "s", Better: "lower"},
	{Name: "cluster.pendmeta_s", Unit: "s", Better: "lower"},
	{Name: "cluster.commit_s", Unit: "s", Better: "lower"},
	{Name: "cluster.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "cluster.keys_s", Unit: "s", Better: "lower"},
	{Name: "cluster.finish_s", Unit: "s", Better: "lower"},
	{Name: "cluster.barrier_wait_s", Unit: "s", Better: "lower"},
	{Name: "cluster.coord_self_s", Unit: "s", Better: "lower"},
	{Name: "cluster.frames", Unit: "count", Better: "lower"},
	{Name: "cluster.frame_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.ingest_s", Unit: "s", Better: "lower"},
	{Name: "cluster.overhead_vs_single", Unit: "ratio", Better: "lower"},
	{Name: "cluster.overhead_1peer", Unit: "ratio", Better: "lower"},

	// store — serve-hot (reads) and fleet-cold (writes).
	{Name: "store.put_us.log", Unit: "us", Better: "lower"},
	{Name: "store.put_us.dir", Unit: "us", Better: "lower"},
	{Name: "store.get_us.log", Unit: "us", Better: "lower"},
	{Name: "store.get_us.dir", Unit: "us", Better: "lower"},
	{Name: "store.getbykey_us.log", Unit: "us", Better: "lower"},
	{Name: "store.open_s.log", Unit: "s", Better: "lower"},
	{Name: "store.open_s.dir", Unit: "s", Better: "lower"},
	{Name: "store.scan_s.log", Unit: "s", Better: "lower"},
	{Name: "store.compact_s.log", Unit: "s", Better: "lower"},
	{Name: "store.bytes_per_entry.log", Unit: "B", Better: "lower"},
	{Name: "store.traced_self_s", Unit: "s", Better: "lower"},
	{Name: "store.traced_calls", Unit: "count", Better: "lower"},

	// pubsub / gossip — fleet-cold.
	{Name: "pubsub.publish_ns.sub1", Unit: "ns", Better: "lower"},
	{Name: "pubsub.publish_ns.sub64", Unit: "ns", Better: "lower"},
	{Name: "pubsub.sse_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "pubsub.sse_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "pubsub.evictions", Unit: "count", Better: "lower"},
	{Name: "gossip.hop_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gossip.hop_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "gossip.entry_bytes", Unit: "B", Better: "lower"},
	{Name: "gossip.failures", Unit: "count", Better: "lower"},

	// serve — serve-hot (handlers) and fleet-cold (phase split).
	{Name: "serve.handler_us_p50.submit", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us_p50.get_job", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us_p50.get_result", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us_p50.list_verdicts", Unit: "us", Better: "lower"},
	{Name: "serve.handler_us_p99.get_job", Unit: "us", Better: "lower"},
	{Name: "serve.handler_self_s", Unit: "s", Better: "lower"},
	{Name: "serve.client_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_to_running_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.running_to_terminal_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.terminal_to_fleet_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.execute_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.attributed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fleet.residual_ms", Unit: "ms", Better: "lower"},

	// bench — the driver's own cost, every workload.
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bench.spans", Unit: "count", Better: "lower"},
	{Name: "bench.client_self_us", Unit: "us", Better: "lower"},
	{Name: "bench.sched_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.traced_samples", Unit: "count", Better: "higher"},
}

// metricSet collects the values of one run, keyed by metric name.
type metricSet map[string]float64
