// Package metrics implements the measurement procedures behind the
// paper's complexity notions: the Degree of Fair Concurrency
// (Definition 5, Theorems 4/5/7/8), the Waiting Time in rounds
// (Definition 6, Theorem 6), throughput/concurrency profiles used by the
// algorithm comparison, and the token-circulation convergence time
// (Property 1). The experiment harness and the benchmark suite both
// build their tables from these procedures.
package metrics

import (
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/token"
)

// Concurrency is the result of a Degree-of-Fair-Concurrency experiment.
type Concurrency struct {
	Samples   int     // runs attempted
	Quiesced  int     // runs that reached a quiescent state
	Min       int     // minimum quiescent meeting count (the measured degree)
	Max       int     // maximum quiescent meeting count
	Mean      float64 // mean quiescent meeting count
	MinMM     int     // size of the smallest maximal matching
	Bound     int     // analytic lower bound (Theorem 5 for CC2, 8 for CC3)
	ExactMin  int     // exact min over MM∪AMM (CC2) or MM∪AMM' (CC3)
	HaveExact bool
}

// DegreeOfFairConcurrency measures Definition 5 empirically: run the
// fair algorithm with never-terminating meetings from `samples` random
// arbitrary configurations until quiescence, and record how many
// meetings hold in each quiescent state. exact additionally computes the
// theorem's exact combinatorial minimum (exponential; only for small
// topologies).
func DegreeOfFairConcurrency(variant core.Variant, h *hypergraph.H, samples, maxSteps int, seed int64, exact bool) Concurrency {
	return degreeOfFairConcurrency(variant, h, samples, maxSteps, seed, exact, false)
}

// DegreeOfFairConcurrencyNoMinSize is the §5.1 ablation of
// DegreeOfFairConcurrency: CC2 token holders pick among all incident
// committees instead of a smallest one (core.Alg.NoMinSize).
func DegreeOfFairConcurrencyNoMinSize(variant core.Variant, h *hypergraph.H, samples, maxSteps int, seed int64, exact bool) Concurrency {
	return degreeOfFairConcurrency(variant, h, samples, maxSteps, seed, exact, true)
}

func degreeOfFairConcurrency(variant core.Variant, h *hypergraph.H, samples, maxSteps int, seed int64, exact, noMinSize bool) Concurrency {
	res := Concurrency{Samples: samples, Min: -1}
	res.MinMM, _ = h.MinMaximalMatching()
	if variant == core.CC3 {
		res.Bound = h.Theorem8Bound()
	} else {
		res.Bound = h.Theorem5Bound()
	}
	if exact {
		if variant == core.CC3 {
			res.ExactMin, _ = h.MinAMMPrime()
		} else {
			res.ExactMin, _ = h.MinAMM()
		}
		res.HaveExact = true
	}
	type sample struct {
		quiesced bool
		k        int
	}
	outs := make([]sample, samples)
	par.ForEach(samples, func(i int) {
		alg := core.New(variant, h, nil)
		alg.NoMinSize = noMinSize
		env := core.NewInfiniteMeetings(alg, nil)
		r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, seed+int64(i), true)
		r.Run(maxSteps)
		if !r.Engine.Terminal() {
			return
		}
		outs[i] = sample{quiesced: true, k: len(alg.Meetings(r.Config()))}
	})
	sum := 0
	for _, o := range outs {
		if !o.quiesced {
			continue
		}
		res.Quiesced++
		sum += o.k
		if res.Min == -1 || o.k < res.Min {
			res.Min = o.k
		}
		if o.k > res.Max {
			res.Max = o.k
		}
	}
	if res.Quiesced > 0 {
		res.Mean = float64(sum) / float64(res.Quiesced)
	}
	if res.Min == -1 {
		res.Min = 0
	}
	return res
}

// Waiting is the result of a waiting-time experiment (Definition 6).
type Waiting struct {
	N           int
	MaxDisc     int // voluntary-discussion length in steps
	MaxRounds   int // max rounds any professor waited between meetings
	MeanRounds  float64
	Rounds      int // total rounds executed
	Convenes    int
	NormalizedN float64 // MaxRounds / (maxDisc * n): Theorem 6 predicts O(1)
}

// WaitingTime measures the maximum number of rounds a professor waits
// between successive meeting participations under the fair algorithm,
// from an arbitrary initial configuration (Theorem 6: O(maxDisc · n)).
func WaitingTime(variant core.Variant, h *hypergraph.H, maxDisc, steps int, seed int64) Waiting {
	alg := core.New(variant, h, nil)
	env := core.NewAlwaysClient(h.N(), maxDisc)
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, seed, true)
	r.Run(steps)
	res := Waiting{N: h.N(), MaxDisc: maxDisc, Rounds: r.Engine.Rounds(), Convenes: r.TotalConvenes()}
	sum, cnt := 0, 0
	for p, w := range r.MaxWaitRounds() {
		if len(h.EdgesOf(p)) == 0 {
			continue
		}
		sum += w
		cnt++
		if w > res.MaxRounds {
			res.MaxRounds = w
		}
	}
	if cnt > 0 {
		res.MeanRounds = float64(sum) / float64(cnt)
	}
	if h.N() > 0 && maxDisc > 0 {
		res.NormalizedN = float64(res.MaxRounds) / float64(maxDisc*h.N())
	}
	return res
}

// Throughput is the comparison profile of one algorithm on one topology.
type Throughput struct {
	Steps           int
	Rounds          int
	Convenes        int
	ConvenesPer100R float64
	MeanConcurrency float64
	PeakConcurrency int
	MinProfMeetings int
}

// MeasureThroughput runs a CC variant for the given number of steps and
// collects the comparison profile.
func MeasureThroughput(variant core.Variant, h *hypergraph.H, disc, steps int, seed int64, randomInit bool) Throughput {
	alg := core.New(variant, h, nil)
	env := core.NewAlwaysClient(h.N(), disc)
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, seed, randomInit)
	r.Run(steps)
	return ProfileOf(&r.Counts)
}

// ProfileOf derives the comparison profile from a run's tally; the CC
// runners and the baselines both report through it.
func ProfileOf(c *spec.Counts) Throughput {
	res := Throughput{
		Steps:           c.Steps,
		Rounds:          c.Rounds,
		Convenes:        c.TotalConvenes(),
		MeanConcurrency: c.MeanConcurrency(),
		PeakConcurrency: c.PeakConcurrency,
		MinProfMeetings: c.MinProfMeetings(),
	}
	if res.Rounds > 0 {
		res.ConvenesPer100R = 100 * float64(res.Convenes) / float64(res.Rounds)
	}
	return res
}

// TokenConvergence is the TC stabilization profile.
type Token struct {
	N               int
	Samples         int
	Converged       int
	MaxSteps        int // worst-case steps to a single stabilized token
	MeanSteps       float64
	MaxHoldersStart int // spurious tokens in the initial configurations
}

// TokenConvergence measures, over random initial TC configurations with
// auto-releasing holders, how long the module takes to reach a single
// stabilized token (Property 1).
func TokenConvergence(h *hypergraph.H, samples, maxSteps int, seed int64) Token {
	adj := make([][]int, h.N())
	ids := make([]int, h.N())
	for v := 0; v < h.N(); v++ {
		adj[v] = h.Neighbors(v)
		ids[v] = h.ID(v)
	}
	res := Token{N: h.N(), Samples: samples}
	type sample struct {
		holdersStart int
		converged    bool
		steps        int
	}
	outs := make([]sample, samples)
	par.ForEach(samples, func(i int) {
		// Use CC1 as the release driver: its Token2/Step4 actions release
		// whenever the token is useless, which keeps the tour moving.
		// Each sample builds its own token.Module view: Module carries
		// per-call scratch and must not be shared across workers.
		m := token.New(adj, ids)
		alg := core.New(core.CC1, h, nil)
		env := core.NewAlwaysClient(h.N(), 1)
		r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, seed+int64(i), true)
		outs[i].holdersStart = len(m.Holders(tcLayer(r.Config())))
		converged := r.RunUntil(maxSteps, func(cfg []core.State) bool {
			tc := tcLayer(cfg)
			return m.Stabilized(tc) && len(m.Holders(tc)) <= 1
		})
		if converged {
			outs[i].converged = true
			outs[i].steps = r.Engine.Steps()
		}
	})
	sum := 0
	for _, o := range outs {
		if o.holdersStart > res.MaxHoldersStart {
			res.MaxHoldersStart = o.holdersStart
		}
		if o.converged {
			res.Converged++
			sum += o.steps
			if o.steps > res.MaxSteps {
				res.MaxSteps = o.steps
			}
		}
	}
	if res.Converged > 0 {
		res.MeanSteps = float64(sum) / float64(res.Converged)
	}
	return res
}

func tcLayer(cfg []core.State) []token.State {
	out := make([]token.State, len(cfg))
	for i := range cfg {
		out[i] = cfg[i].TC
	}
	return out
}
