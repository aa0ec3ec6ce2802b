package experiments

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/token"
)

// The measurement procedures behind the paper's complexity notions: the
// Degree of Fair Concurrency (Definition 5, Theorems 4/5/7/8), the
// Waiting Time in rounds (Definition 6, Theorem 6), the throughput and
// concurrency profiles of the algorithm comparison, and the
// token-circulation convergence time (Property 1).

// quiescence is where one run under never-terminating meetings froze.
type quiescence struct {
	quiesced bool  // nothing was enabled, even after the environment advanced
	meetings []int // the committees meeting at the end
}

// quiesce runs alg under never-terminating meetings until nothing is
// enabled, even after the environment advances, or until maxSteps, and
// reads the meetings it froze with. A configuration with Π = ∅ is not
// enough to stop at: professors mid-handshake are not yet waiting, so Π
// can be empty while a committee is still about to convene.
func quiesce(alg *core.Alg, seed int64, randomInit bool, maxSteps int) quiescence {
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, core.NewInfiniteMeetings(alg, nil), seed, randomInit)
	r.Run(maxSteps)
	return quiescence{quiesced: r.Engine.Terminal(), meetings: alg.Meetings(r.Config())}
}

// concurrency is the result of a Degree-of-Fair-Concurrency experiment.
type concurrency struct {
	Samples  int     // runs attempted
	Quiesced int     // runs that reached a quiescent state
	Min      int     // minimum quiescent meeting count (the measured degree)
	Max      int     // maximum quiescent meeting count
	Mean     float64 // mean quiescent meeting count
	MinMM    int     // size of the smallest maximal matching
	Bound    int     // analytic lower bound (Theorem 5 for CC2, 8 for CC3)
	ExactMin int     // with exact: the min over MM∪AMM (CC2) or MM∪AMM' (CC3)
}

// degreeOfFairConcurrency measures Definition 5 empirically: quiesce the
// fair algorithm from `samples` random arbitrary configurations and
// record how many meetings hold in each quiescent state. exact
// additionally computes the theorem's exact combinatorial minimum
// (exponential; only for small topologies). noMinSize is the §5.1
// ablation: CC2 token holders pick among all incident committees instead
// of a smallest one (core.Alg.NoMinSize).
func degreeOfFairConcurrency(variant core.Variant, h *hypergraph.H, samples, maxSteps int, seed int64, exact, noMinSize bool) concurrency {
	res := concurrency{Samples: samples, Min: -1}
	res.MinMM, _ = h.MinMaximalMatching()
	if variant == core.CC3 {
		res.Bound = h.Theorem8BoundOf(res.MinMM)
	} else {
		res.Bound = h.Theorem5BoundOf(res.MinMM)
	}
	if exact {
		if variant == core.CC3 {
			res.ExactMin, _ = h.MinAMMPrime()
		} else {
			res.ExactMin, _ = h.MinAMM()
		}
	}
	outs := par.Map(samples, func(i int) quiescence {
		alg := core.New(variant, h, nil)
		alg.NoMinSize = noMinSize
		return quiesce(alg, seed+int64(i), true, maxSteps)
	})
	sum := 0
	for _, o := range outs {
		if !o.quiesced {
			continue
		}
		k := len(o.meetings)
		res.Quiesced++
		sum += k
		if res.Min == -1 || k < res.Min {
			res.Min = k
		}
		if k > res.Max {
			res.Max = k
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

// waiting is the result of a waiting-time experiment (Definition 6).
type waiting struct {
	N           int
	MaxDisc     int // voluntary-discussion length in steps
	MaxRounds   int // max rounds any professor waited between meetings
	MeanRounds  float64
	Convenes    int
	NormalizedN float64 // MaxRounds / (maxDisc * n): Theorem 6 predicts O(1)
}

// waitingTime measures the maximum number of rounds a professor waits
// between successive meeting participations under the fair algorithm,
// from an arbitrary initial configuration (Theorem 6: O(maxDisc · n)).
func waitingTime(variant core.Variant, h *hypergraph.H, maxDisc, steps int, seed int64) waiting {
	alg := core.New(variant, h, nil)
	env := core.NewAlwaysClient(h.N(), maxDisc)
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, seed, true)
	r.Run(steps)
	res := waiting{N: h.N(), MaxDisc: maxDisc, Convenes: r.TotalConvenes()}
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

// throughput is the comparison profile of one algorithm on one topology.
type throughput struct {
	Convenes        int
	ConvenesPer100R float64
	MeanConcurrency float64
	PeakConcurrency int
	MinProfMeetings int
}

// measureThroughput runs a CC variant for the given number of steps and
// collects the comparison profile.
func measureThroughput(variant core.Variant, h *hypergraph.H, disc, steps int, seed int64, randomInit bool) throughput {
	alg := core.New(variant, h, nil)
	env := core.NewAlwaysClient(h.N(), disc)
	r := core.NewRunner(alg, &sim.WeaklyFair{MaxAge: 6}, env, seed, randomInit)
	r.Run(steps)
	return profileOf(&r.Counts)
}

// baselineProfile runs a related-work baseline from its legitimate
// configuration and collects the same profile as measureThroughput.
func baselineProfile(kind baseline.Kind, h *hypergraph.H, disc, steps int, seed int64) throughput {
	r := baseline.NewRunner(baseline.New(kind, h, disc), &sim.WeaklyFair{MaxAge: 6}, seed)
	r.Run(steps)
	return profileOf(&r.Counts)
}

// profileOf derives the comparison profile from a run's tally; the CC
// runners and the baselines both report through it.
func profileOf(c *spec.Counts) throughput {
	res := throughput{
		Convenes:        c.TotalConvenes(),
		MeanConcurrency: c.MeanConcurrency(),
		PeakConcurrency: c.PeakConcurrency,
		MinProfMeetings: c.MinProfMeetings(),
	}
	if c.Rounds > 0 {
		res.ConvenesPer100R = 100 * float64(res.Convenes) / float64(c.Rounds)
	}
	return res
}

// oracle is the centralized greedy scheduler: global knowledge, zero
// coordination cost. Each round it convenes every committee whose
// members are all free (greedy, in a seeded random order), and meetings
// last exactly disc rounds. It upper-bounds the concurrency any
// distributed algorithm can reach and is reported alongside the
// baselines.
func oracle(h *hypergraph.H, disc, rounds int, seed int64) throughput {
	rng := rand.New(rand.NewSource(seed))
	n, m := h.N(), h.M()
	busyUntil := make([]int, n) // professor busy until round t
	meetingEnd := make([]int, m)
	var res throughput
	var sum int64
	order := rng.Perm(m)
	for t := 0; t < rounds; t++ {
		concurrent := 0
		for _, e := range order {
			if meetingEnd[e] > t {
				concurrent++
				continue
			}
			free := true
			for _, q := range h.Edge(e) {
				if busyUntil[q] > t {
					free = false
					break
				}
			}
			if free {
				meetingEnd[e] = t + disc + 1
				for _, q := range h.Edge(e) {
					busyUntil[q] = t + disc + 1
				}
				res.Convenes++
				concurrent++
			}
		}
		if concurrent > res.PeakConcurrency {
			res.PeakConcurrency = concurrent
		}
		sum += int64(concurrent)
	}
	if rounds > 0 {
		res.MeanConcurrency = float64(sum) / float64(rounds)
		res.ConvenesPer100R = 100 * float64(res.Convenes) / float64(rounds)
	}
	return res
}

// tokenStats is the TC stabilization profile.
type tokenStats struct {
	Samples         int
	Converged       int
	MaxSteps        int // worst-case steps to a single stabilized token
	MeanSteps       float64
	MaxHoldersStart int // spurious tokens in the initial configurations
}

// tokenConvergence measures, over random initial TC configurations with
// auto-releasing holders, how long the module takes to reach a single
// stabilized token (Property 1).
func tokenConvergence(h *hypergraph.H, samples, maxSteps int, seed int64) tokenStats {
	adj := make([][]int, h.N())
	ids := make([]int, h.N())
	for v := 0; v < h.N(); v++ {
		adj[v] = h.Neighbors(v)
		ids[v] = h.ID(v)
	}
	res := tokenStats{Samples: samples}
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
