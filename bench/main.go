// Command bench is the repository's one benchmark: six long workloads,
// four gated end-to-end metrics, and a per-layer trace recorded from
// outside the layers. BENCHMARK.json at the repository root names the
// command line, the workloads and the metrics; README.md is the
// glossary. One process runs one workload:
//
//	bash bench/run.sh --workload explore-wide --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing code on
// any path. --trace 1 is a separate run that measures the workload
// untraced and traced back to back (their ratio is the tracing
// overhead), derives the per-layer metrics from the spans, and runs
// the direct-call probes of the layers that workload crosses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/par"
)

// setupPasses is how many times the untraced run sets the workload up
// from scratch; setup_s is the median pass, the last pass is the one
// the timed region runs on.
const setupPasses = 3

// runResult is what one timed region measured.
type runResult struct {
	unitsPerS float64 // work units per second of timed wall
	latencies []int64 // ns, one per repeat (compute) or per operation (serve)
	attempted int
	failed    int
	wall      time.Duration // Σ timed wall
	selfNs    int64         // client time outside the measured calls (serve workloads)
	lagNs     int64         // longest gap between one operation's end and the next one's start
}

// instance is one set-up workload, ready for its timed region.
type instance interface {
	// run executes the timed region: whole repeats or operations until
	// at least `seconds` of timed wall have passed, checking every
	// output; a failed check is a failed operation. Spans go to tr when
	// it is non-nil.
	run(tr *tracer, seconds float64, minRepeats int) (runResult, error)
	// layers derives per-layer metrics from a traced run's spans.
	layers(spans []span, res runResult, m metricSet)
	// probes measures the layers this workload crosses by calling their
	// public functions directly.
	probes(m metricSet) error
	close()
}

// env is what a workload's set-up gets from the driver.
type env struct {
	seed    int64
	scale   float64 // 1 = the sizes BENCHMARK.json is calibrated for; tests run at 1/50
	scratch string  // private directory, removed at exit
	traced  bool    // install the tracing decorators (traced run only)
	n       int     // set-up pass counter, for unique sub-directories
}

// full reports whether the run is at calibrated size, where the golden
// counts apply.
func (e *env) full() bool { return e.scale == 1 }

func (e *env) scaled(n int) int { return max(int(float64(n)*e.scale), 1) }

func (e *env) mkdir(name string) (string, error) {
	e.n++
	dir := filepath.Join(e.scratch, fmt.Sprintf("%s-%d", name, e.n))
	return dir, os.MkdirAll(dir, 0o755)
}

type workload struct {
	name  string
	unit  string // what throughput_per_s counts
	why   string
	setup func(e *env) (instance, error)
}

var workloads = []workload{
	{"paper-suite", "experiments",
		"all 14 paper experiments at full size: the only workload where sim, core, token, hypergraph and par do the work and explore almost none",
		setupPaper},
	{"explore-wide", "states",
		"cc1 on triples:3 under all-subsets, in memory: 27 transitions per state and 96% duplicate probes, so the batch kernel, spec checks and hot visited probes dominate",
		setupWide},
	{"explore-spill", "states",
		"cc2 on ring:5 under a 1 MiB budget: 137 narrow layers, so cold-arena reads, frontier segments and housekeeping dominate and expansion is light",
		setupSpill},
	{"cluster-local3", "states",
		"the explore-wide cell through a three-peer in-process cluster: superstep, frame exchange, merge/commit and barrier wait are the extra work over one node",
		setupCluster},
	{"serve-hot", "requests",
		"closed-loop reads against one server over a populated log store: store get/scan, the server mutex, handlers and HTTP, with zero exploration",
		setupServeHot},
	{"fleet-cold", "jobs",
		"distinct cold jobs submitted to a three-peer gossiping fleet and watched to fleet-wide visibility: queue, small exploration, store put, SSE and gossip",
		setupFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed for the workload's schedule")
	seconds := flag.Float64("seconds", 10, "minimum timed wall of the measured region")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, untraced; 1 = per-layer metrics from a traced run")
	traceOut := flag.String("trace-out", "", "span log of the traced run (default <scratch>/trace-<workload>.jsonl)")
	aa := flag.Int("aa", 0, "run two interleaved sets of n runs per workload and compare their medians")
	scratch := flag.String("scratch", ".bench_build", "directory for scratch files, the lock file and the span log")
	flag.Parse()

	if *aa > 0 {
		os.Exit(runAA(*aa, *seconds, *workloadName, *scratch))
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have:", *workloadName)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	rep, err := runOne(w, *seed, *seconds, *trace != 0, *traceOut, *scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// lockScratch takes the exclusive lock that keeps two bench processes
// on one checkout from overlapping (their timings would be
// meaningless); it blocks until the other one is done.
func lockScratch(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "bench.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func runOne(w workload, seed int64, seconds float64, traced bool, traceOut, scratchRoot string) (*report, error) {
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	par.Workers = procs

	lock, err := lockScratch(scratchRoot)
	if err != nil {
		return nil, fmt.Errorf("lock: %w", err)
	}
	defer lock.Close()
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("# bench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d %s commit=%s\n",
		w.name, seed, seconds, traced, procs, runtime.Version(), commit())
	e := &env{seed: seed, scale: 1, scratch: dir, traced: traced}
	if traced {
		if traceOut == "" {
			traceOut = filepath.Join(scratchRoot, "trace-"+w.name+".jsonl")
		}
		return runTraced(w, e, seconds, traceOut)
	}
	return runPlain(w, e, seconds)
}

// runPlain is the --trace 0 run: set up setupPasses times, measure the
// timed region once on the last set-up, report the end-to-end metrics.
func runPlain(w workload, e *env, seconds float64) (*report, error) {
	var inst instance
	var setups []float64
	for i := 0; i < setupPasses; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	res, err := inst.run(nil, seconds, 2)
	if err != nil {
		return nil, err
	}

	// A handful of repeats takes the even-count median; thousands of
	// operations take the nearest-rank order statistic.
	p50 := medianNs(res.latencies)
	if len(res.latencies) > 16 {
		p50 = float64(quantile(res.latencies, 0.5))
	}
	m := metricSet{
		"setup_s":          median(setups),
		"throughput_per_s": res.unitsPerS,
		"latency_p50_ms":   p50 / 1e6,
		"peak_rss_mb":      peakRSSMB(),
	}
	fmt.Printf("# timed region %.3f s, %d latency samples, throughput in %s/s, set-up passes %.3f s\n",
		res.wall.Seconds(), len(res.latencies), w.unit, setups)
	return buildReport(endToEnd, m, res), nil
}

// runTraced is the --trace 1 run: one set-up with the decorators in
// place, a third of the time untraced, a third traced, then the probes.
func runTraced(w workload, e *env, seconds float64, traceOut string) (*report, error) {
	inst, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	plain, err := inst.run(nil, seconds/3, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	res, err := inst.run(tr, seconds/3, 1)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	m := metricSet{}
	inst.layers(spans, res, m)
	if err := inst.probes(m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	m["bench.trace_overhead_ratio"] = res.unitsPerS / plain.unitsPerS
	m["bench.spans"] = float64(len(spans))
	m["bench.traced_samples"] = float64(len(res.latencies))
	if n := res.attempted; n > 0 {
		m["bench.client_self_us"] = float64(res.selfNs) / float64(n) / 1e3
	}
	m["bench.sched_lag_ms"] = float64(res.lagNs) / 1e6
	if err := tr.writeFile(traceOut); err != nil {
		return nil, fmt.Errorf("span log: %w", err)
	}
	fmt.Printf("# traced region %.3f s, %d spans (%d dropped) written to %s\n",
		res.wall.Seconds(), len(spans), tr.dropped, traceOut)
	res.attempted += plain.attempted
	res.failed += plain.failed
	return buildReport(perLayer, m, res), nil
}

// buildReport prints every metric by name with its unit and assembles
// the final JSON object.
func buildReport(defs []metricDef, m metricSet, res runResult) *report {
	rep := &report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := m[d.Name]
		fmt.Printf("%-40s %16.6g %s\n", d.Name, v, d.Unit)
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	fmt.Printf("# attempted %d, failed %d\n", res.attempted, res.failed)
	return rep
}

// betweenRepeats settles the heap outside the timed regions, so each
// repeat starts from the same footprint and the RSS high-water mark is
// one repeat's need, not garbage carried over.
func betweenRepeats() {
	runtime.GC()
	debug.FreeOSMemory()
}

// repeatLoop times whole repeats of a compute workload until at least
// `seconds` of timed wall have passed, and never fewer than minRepeats.
// Each repeat reports the work units it completed and how many of its
// checks failed; the throughput is the median repeat's.
func repeatLoop(seconds float64, minRepeats, checksPerRepeat int, once func(rep int) (units int, failed int, err error)) (runResult, error) {
	var res runResult
	var rates []float64
	for rep := 0; rep < minRepeats || res.wall.Seconds() < seconds; rep++ {
		betweenRepeats()
		t0 := time.Now()
		units, failed, err := once(rep)
		d := time.Since(t0)
		if err != nil {
			return res, err
		}
		res.wall += d
		res.latencies = append(res.latencies, int64(d))
		res.attempted += checksPerRepeat
		res.failed += failed
		rates = append(rates, float64(units)/d.Seconds())
	}
	res.unitsPerS = median(rates)
	return res, nil
}
