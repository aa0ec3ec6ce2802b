package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
)

// paper-suite: every experiment of the paper regenerated at full size
// through experiments.RunAll. One repeat is one regeneration; the
// seed picks each repeat's experiments.Config.Seed.

// paperSeeds is how many experiments.Config seeds, from 1 up, the
// schedule draws from. Every one of them was checked to regenerate the
// whole suite with all claims holding; not every seed does (T2 fails
// its maximal-matching claim on figure1 when a run's inner seed is
// 1001 or 1019, for one), and a benchmark must not count a paper claim
// that fails for a reason of its own as a failed operation.
const paperSeeds = 48

type paperInst struct {
	e    *env
	exps []experiments.Experiment
	ids  []string
}

func setupPaper(e *env) (instance, error) {
	p := &paperInst{e: e}
	for _, ex := range experiments.All() {
		// The reduced scale keeps the instantaneous experiments only.
		if !e.full() && !slices.Contains([]string{"F1", "F4", "T45", "TOKEN"}, ex.ID) {
			continue
		}
		p.exps = append(p.exps, ex)
		p.ids = append(p.ids, ex.ID)
	}
	if e.full() && len(p.ids) != goldenPaperExperiments {
		return nil, fmt.Errorf("%w: %d experiments registered, want %d", errGolden, len(p.ids), goldenPaperExperiments)
	}
	// Warm-up: the whole suite at its reduced sizes.
	cfg := p.config(0)
	cfg.Quick = true
	results, err := experiments.RunAll(p.ids, cfg, io.Discard)
	if err != nil {
		return nil, err
	}
	if n := countFailed(results); n > 0 {
		return nil, fmt.Errorf("%w: %d experiments failed their claims in the warm-up", errGolden, n)
	}
	return p, nil
}

func countFailed(results []*experiments.Result) int {
	n := 0
	for _, r := range results {
		if r == nil || !r.Ok() {
			n++
		}
	}
	return n
}

func (p *paperInst) config(rep int) experiments.Config {
	n := (p.e.seed*5 + int64(rep)) % paperSeeds
	if n < 0 {
		n += paperSeeds
	}
	return experiments.Config{Seed: 1 + n, Quick: !p.e.full()}
}

func (p *paperInst) run(tr *tracer, seconds float64, minRepeats int) (runResult, error) {
	return repeatLoop(seconds, minRepeats, len(p.ids), func(rep int) (int, int, error) {
		cfg := p.config(rep)
		var results []*experiments.Result
		if tr == nil {
			var err error
			if results, err = experiments.RunAll(p.ids, cfg, io.Discard); err != nil {
				return 0, 0, err
			}
		} else {
			// RunAll's own fan-out, with a span around each experiment.
			results = make([]*experiments.Result, len(p.exps))
			root := tr.begin("bench.repeat", -1, int64(rep))
			par.ForEach(len(p.exps), func(i int) {
				id := tr.begin("experiments."+p.exps[i].ID, root, int64(rep))
				results[i] = p.exps[i].RunFn(cfg)
				tr.end(id)
			})
			tr.end(root)
		}
		return len(p.ids), countFailed(results), nil
	})
}

func (p *paperInst) layers(spans []span, res runResult, m metricSet) {
	lt := selfTimes(spans)
	var total, mc, slowest int64
	for name, t := range lt {
		if !strings.HasPrefix(name, "experiments.") {
			continue
		}
		total += t.Total
		if name == "experiments.MC" {
			mc = t.Total
		}
		slowest = max(slowest, t.Total/int64(t.Count))
	}
	if total > 0 {
		m["experiments.mc_share"] = float64(mc) / float64(total)
		m["experiments.sim_share"] = float64(total-mc) / float64(total)
	}
	m["experiments.slowest_s"] = float64(slowest) / 1e9
}

func (p *paperInst) probes(m metricSet) error {
	steps := p.e.scaled(50_000)
	names := map[string]string{
		"StepCC1_Ring32": "sim.step_ns.cc1_ring32", "StepCC2_Ring32": "sim.step_ns.cc2_ring32",
		"StepCC2_Figure3": "sim.step_ns.cc2_fig3", "StepCC3_Ring8": "sim.step_ns.cc3_ring8",
	}
	var mallocs uint64
	var ms runtime.MemStats
	for _, w := range experiments.StepBenchWorkloads() {
		r := experiments.NewStepRunner(w.Variant, w.NewH(), false)
		r.Run(steps / 10) // warm the scratch buffers
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		if r.Run(steps) < steps {
			return fmt.Errorf("step probe %s went quiescent", w.Name)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		m[names[w.Name]] = float64(d.Nanoseconds()) / float64(steps)
	}
	m["sim.step_allocs"] = float64(mallocs) / float64(4*steps)

	// par.speedup_j2: the reduced suite at one worker ÷ at two.
	walls := make([]float64, 2)
	for j := 1; j <= 2; j++ {
		par.Workers = j
		t0 := time.Now()
		cfg := p.config(0)
		cfg.Quick = true
		_, err := experiments.RunAll(p.ids, cfg, io.Discard)
		walls[j-1] = time.Since(t0).Seconds()
		par.Workers = runtime.GOMAXPROCS(0)
		if err != nil {
			return err
		}
	}
	m["par.speedup_j2"] = walls[0] / walls[1]
	return nil
}

func (p *paperInst) close() {}
