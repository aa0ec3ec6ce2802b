package core

import "repro/internal/spec"

// Probe adapts the algorithm to the spec monitors: the abstract
// predicates of §4.2 mapping the implementation statuses onto the
// original problem's professor states.
func (a *Alg) Probe() spec.Probe[State] {
	return spec.Probe[State]{
		H:     a.H,
		Meets: func(cfg []State, e int) bool { return a.EdgeMeets(cfg, e) },
		Waiting: func(cfg []State, p int) bool {
			return a.WaitingAbstract(cfg, p)
		},
		Done: func(cfg []State, p int) bool { return cfg[p].S == Done },
	}
}
