package core

import (
	"repro/internal/sim"
	"repro/internal/spec"
)

// Runner wires an Alg, an Env and a sim.Engine together. Its embedded
// spec.Tally counts the run's meeting events and the statistics behind
// the paper's complexity measures (convenes, participation, waits in
// rounds, concurrency) and carries the spec monitor (Checker).
type Runner struct {
	*spec.Tally[State]
	Alg    *Alg
	Env    Env
	Engine *sim.Engine[State]

	// envTrack is non-nil when the Env can attribute predicate flips to
	// specific processes, letting the incremental engine invalidate only
	// those cache entries instead of the whole enabled set.
	envTrack EnvTracker
}

// NewRunner builds a Runner. randomInit selects an arbitrary initial
// configuration (the snap-stabilization setting) versus the canonical
// fault-free one. The Env is installed into the Alg. The engine picks
// actions through a Kernel the runner owns (its Choose is the program's
// Chooser); Engine.EnabledAction still walks the guards.
func NewRunner(alg *Alg, d sim.Daemon, env Env, seed int64, randomInit bool) *Runner {
	alg.Env = env
	prog := alg.Program(randomInit)
	prog.Chooser = NewKernel(alg, prog).Choose
	return newRunner(alg, prog, d, env, seed)
}

// newRunner wires a Runner around an already built program of alg.
func newRunner(alg *Alg, prog *sim.Program[State], d sim.Daemon, env Env, seed int64) *Runner {
	eng := sim.NewEngine(prog, d, seed)
	r := &Runner{Tally: spec.NewTally(alg.Probe(), eng), Alg: alg, Env: env, Engine: eng}
	r.envTrack = trackerOf(env)
	env.Update(eng.Config(), 0)
	r.noteEnvUpdate()
	eng.Observe(func(step int, cfg []State, _ []sim.Exec) {
		r.Observe(step, cfg)
		r.Env.Update(cfg, step)
		r.noteEnvUpdate()
	})
	return r
}

// SyncEnv runs one Env.Update against the current configuration and
// folds it into the engine's enabled-set cache. Drivers that mutate or
// advance the environment outside the Runner's step loop (scripted
// experiment setups, replay harnesses) must use this instead of calling
// Env.Update directly, or the incremental engine's cache goes stale.
func (r *Runner) SyncEnv() {
	r.Env.Update(r.Engine.Config(), r.Engine.Steps())
	r.noteEnvUpdate()
}

// noteEnvUpdate folds an Env.Update into the engine's enabled-set cache:
// per-process invalidation when the Env tracks its flips, a full rescan
// otherwise.
func (r *Runner) noteEnvUpdate() {
	if r.envTrack != nil {
		for _, p := range r.envTrack.Changed() {
			r.Engine.MarkDirty(p)
		}
		return
	}
	r.Engine.MarkAllDirty()
}

// IdleTicks bounds how many environment "ticks" the runner performs when
// no guarded action is enabled. In the paper's model the application's
// RequestIn/RequestOut inputs evolve with real time, independent of
// algorithm steps; the simulator realizes this by letting the environment
// advance (e.g., discussion timers expiring, request arrivals) while the
// algorithm is blocked on inputs. A configuration that stays terminal
// through IdleTicks environment updates is genuinely quiescent (which is
// exactly the Definition 5 situation under infinite meetings, where the
// environment never re-enables anything).
var IdleTicks = 128

// stepOrTick performs one engine step; if nothing is enabled it lets the
// environment advance until an action enables. It reports false only at
// true quiescence.
func (r *Runner) stepOrTick() bool {
	if r.Engine.Step() != nil {
		return true
	}
	for i := 0; i < IdleTicks; i++ {
		r.Env.Update(r.Engine.Config(), r.Engine.Steps())
		r.noteEnvUpdate()
		if !r.Engine.Terminal() {
			return r.Engine.Step() != nil
		}
	}
	return false
}

// Step executes one engine step (nil means no action was enabled; use
// Run/RunUntil for env-tick-aware execution).
func (r *Runner) Step() []sim.Exec { return r.Engine.Step() }

// Run executes at most maxSteps steps, letting the environment advance
// across input-blocked configurations. Returns the steps executed.
func (r *Runner) Run(maxSteps int) int {
	start := r.Engine.Steps()
	for r.Engine.Steps()-start < maxSteps {
		if !r.stepOrTick() {
			break
		}
	}
	return r.Engine.Steps() - start
}

// RunUntil executes steps (env-tick-aware) until pred holds, quiescence,
// or maxSteps. Reports whether pred held.
func (r *Runner) RunUntil(maxSteps int, pred func(cfg []State) bool) bool {
	start := r.Engine.Steps()
	for {
		if pred(r.Engine.Config()) {
			return true
		}
		if r.Engine.Steps()-start >= maxSteps {
			return false
		}
		if !r.stepOrTick() {
			return pred(r.Engine.Config())
		}
	}
}

// RunRounds executes whole rounds (env-tick-aware), stopping after the
// given number of additional rounds, quiescence, or maxSteps steps.
func (r *Runner) RunRounds(rounds, maxSteps int) int {
	startRound, startStep := r.Engine.Rounds(), r.Engine.Steps()
	for r.Engine.Rounds()-startRound < rounds && r.Engine.Steps()-startStep < maxSteps {
		if !r.stepOrTick() {
			break
		}
	}
	return r.Engine.Rounds() - startRound
}

// Config returns the current configuration.
func (r *Runner) Config() []State { return r.Engine.Config() }
