package baseline

import (
	"math/rand"

	"repro/internal/sim"
	"repro/internal/spec"
)

// Program assembles the baseline guarded-action program (professors +
// committee agents).
func (a *Alg) Program() *sim.Program[BState] {
	actions := a.profActions()
	switch a.Kind {
	case Dining:
		actions = append(actions, a.diningActions()...)
	case TokenRing:
		actions = append(actions, a.tokenRingActions()...)
	default:
		panic("baseline: unknown kind")
	}
	var init func(p int) BState
	if a.Kind == Dining {
		init = a.diningInit
	} else {
		init = a.tokenRingInit
	}
	prog := &sim.Program[BState]{
		NumProcs: a.NumProcs(),
		Actions:  actions,
		Init:     func(p int, _ *rand.Rand) BState { return init(p) },
	}
	if !a.NoLocality {
		loc := a.locality()
		prog.Locality = func(p int) []int { return loc[p] }
	}
	return prog
}

// locality precomputes the guard read sets of the composed baseline
// program. Professors read their G_H neighbors (members of incident
// committees) and the agents of their incident committees; committee
// agents read their members, the agents of conflicting committees, and —
// for the token ring — the ring predecessor/successor agents involved in
// the handover handshake.
func (a *Alg) locality() [][]int {
	n, m := a.H.N(), a.H.M()
	loc := make([][]int, a.NumProcs())
	for p := 0; p < n; p++ {
		l := make([]int, 0, len(a.H.Neighbors(p))+len(a.H.EdgesOf(p)))
		l = append(l, a.H.Neighbors(p)...)
		for _, e := range a.H.EdgesOf(p) {
			l = append(l, a.commNode(e))
		}
		loc[p] = l
	}
	for e := 0; e < m; e++ {
		l := make([]int, 0, len(a.H.Edge(e))+len(a.conflicts[e])+2)
		l = append(l, a.H.Edge(e)...)
		for _, d := range a.conflicts[e] {
			l = append(l, a.commNode(d))
		}
		if a.Kind == TokenRing {
			l = append(l, a.commNode(a.ringPrev(e)), a.commNode(a.ringNext(e)))
		}
		loc[a.commNode(e)] = l
	}
	return loc
}

// Runner couples a baseline Alg with an engine. Its embedded
// spec.Tally is the core Runner's, so the comparison tables are apples
// to apples.
type Runner struct {
	*spec.Tally[BState]
	Alg    *Alg
	Engine *sim.Engine[BState]
}

// NewRunner builds a baseline runner from the legitimate initial
// configuration (the baselines are not self-stabilizing).
func NewRunner(a *Alg, d sim.Daemon, seed int64) *Runner {
	eng := sim.NewEngine(a.Program(), d, seed)
	r := &Runner{Tally: spec.NewTally(a.Probe(), eng), Alg: a, Engine: eng}
	eng.Observe(func(step int, cfg []BState, _ []sim.Exec) { r.Observe(step, cfg) })
	return r
}

// Run executes at most maxSteps steps.
func (r *Runner) Run(maxSteps int) int { return r.Engine.Run(maxSteps) }
