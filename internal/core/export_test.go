package core

import "repro/internal/sim"

// NewGuardWalkRunner builds a Runner exactly as NewRunner does, except
// that its engine picks every action by walking the guards: the
// reference the kernel-driven runner is tested against.
func NewGuardWalkRunner(alg *Alg, d sim.Daemon, env Env, seed int64, randomInit bool) *Runner {
	alg.Env = env
	return newRunner(alg, alg.Program(randomInit), d, env, seed)
}
