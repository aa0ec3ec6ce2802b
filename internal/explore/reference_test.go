package explore

import (
	"fmt"
	"math/rand"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Reference is the PR 2 exploration engine, preserved as the
// differential-test oracle for the binary engine: string-keyed
// canonical codecs (refCodec), one serial
// map[string]int32 dedup loop, layer-parallel expansion with
// merge-in-order. Explore must reproduce its states, transitions,
// depths, verdicts and traces exactly (modulo the trace Key field,
// which the oracle leaves nil); the differential battery asserts that
// over every algorithm × topology × daemon-mode cell. It knows nothing
// of symmetry reduction — compare against unreduced runs.
func Reference[S sim.Cloneable[S]](newModel func() *Model[S], opts Options) *Result {
	if opts.MaxBranch == 0 {
		opts.MaxBranch = 1 << 16
	}
	if opts.MaxViolations == 0 {
		opts.MaxViolations = 5
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = par.Workers
	}
	if workers < 1 {
		workers = 1
	}
	models := make([]*Model[S], workers)
	for i := range models {
		models[i] = newModel()
	}
	m0 := models[0]
	ref := refCodec(m0)

	res := &Result{Model: m0.Name, Mode: opts.Mode, MaxIncorrectDepth: -1}

	visited := make(map[string]int32)
	var keys []string
	var parentOf []int32
	var selOf []string

	add := func(key string, parent int32, sel string) (int32, bool) {
		if id, ok := visited[key]; ok {
			return id, false
		}
		if opts.MaxStates > 0 && len(keys) >= opts.MaxStates {
			res.Truncated = true
			return -1, false
		}
		id := int32(len(keys))
		visited[key] = id
		keys = append(keys, key)
		parentOf = append(parentOf, parent)
		selOf = append(selOf, sel)
		return id, true
	}

	// Seed the initial layer.
	var layer []int32
	var encBuf []byte
	m0.Inits(func(cfg []S) bool {
		encBuf = ref.Encode(encBuf[:0], cfg)
		if id, fresh := add(string(encBuf), -1, ""); fresh {
			layer = append(layer, id)
			res.Inits++
		}
		return !res.Truncated
	})
	res.States = len(keys)

	// trace reconstructs the path from an initial configuration to state
	// id, then appends the offending transition if any.
	trace := func(id int32, v refViol) []TraceStep {
		var path []int32
		for x := id; x >= 0; x = parentOf[x] {
			path = append(path, x)
		}
		out := make([]TraceStep, 0, len(path)+1)
		for i := len(path) - 1; i >= 0; i-- {
			out = append(out, TraceStep{Sel: decodeSel(selOf[path[i]]), Config: m0.render(ref.Decode(keys[path[i]]))})
		}
		if v.nextKey != "" {
			out = append(out, TraceStep{Sel: decodeSel(v.sel), Config: m0.render(ref.Decode(v.nextKey))})
		}
		return out
	}

	depth := 0
	for len(layer) > 0 && len(res.Violations) < opts.MaxViolations {
		if opts.MaxDepth > 0 && depth >= opts.MaxDepth {
			res.Truncated = true
			break
		}
		// Expand the layer: contiguous chunks, one worker (and one model
		// instance) per chunk; merge back in layer order for determinism.
		exps := make([]refExpansion, len(layer))
		par.Chunks(len(layer), workers, func(w, lo, hi int) {
			model := models[w]
			rng := rand.New(rand.NewSource(1))
			for i := lo; i < hi; i++ {
				exps[i] = refExpandOne(model, ref, keys[layer[i]], depth, opts, rng)
			}
		})
		var next []int32
		for i, ex := range exps {
			prev := layer[i]
			if ex.terminal {
				res.Deadlocks++
			}
			if ex.truncated {
				res.Truncated = true
			}
			if ex.incorrect && depth > res.MaxIncorrectDepth {
				res.MaxIncorrectDepth = depth
			}
			if ex.enabled > res.MaxEnabled {
				res.MaxEnabled = ex.enabled
			}
			res.Transitions += int64(len(ex.succs))
			for _, s := range ex.succs {
				if id, fresh := add(s.key, prev, s.sel); fresh {
					next = append(next, id)
				}
			}
			for _, v := range ex.viols {
				if len(res.Violations) >= opts.MaxViolations {
					break
				}
				d := depth
				if v.nextKey != "" {
					d++
				}
				res.Violations = append(res.Violations, Violation{
					Kind: v.kind, Msg: v.msg, Depth: d, Trace: trace(prev, v),
				})
			}
		}
		res.States = len(keys)
		depth++
		res.Depth = depth
		layer = next
	}
	if len(res.Violations) >= opts.MaxViolations {
		res.Truncated = true
	}
	for _, k := range keys {
		// String-codec footprint: key bytes + string header + map value.
		// (The map bucket overhead is real but unaccounted, so the
		// baseline is, if anything, understated.)
		res.StateBytes += int64(len(k)) + 16 + 4
	}
	return res
}

type refViol struct {
	kind, msg string
	sel       string
	nextKey   string
}

type refSucc struct {
	key string
	sel string
}

type refExpansion struct {
	terminal  bool
	truncated bool
	incorrect bool
	enabled   int
	succs     []refSucc
	viols     []refViol
}

func refExpandOne[S sim.Cloneable[S]](model *Model[S], ref stringCodec[S], key string, depth int, opts Options, rng *rand.Rand) refExpansion {
	cfg := ref.Decode(key)
	var ex refExpansion

	wasMeets := spec.MeetsVector(model.Probe, cfg, nil)
	for _, v := range spec.ExclusionViolationsMeets(model.Probe, wasMeets, depth, nil) {
		ex.viols = append(ex.viols, refViol{kind: v.Kind, msg: v.Msg})
	}
	var correctPrev []bool
	if model.Correct != nil {
		correctPrev = make([]bool, model.Prog.NumProcs)
		allCorrect := true
		for p := range correctPrev {
			correctPrev[p] = model.Correct(cfg, p)
			allCorrect = allCorrect && correctPrev[p]
		}
		ex.incorrect = !allCorrect
	}

	var encBuf []byte
	var isMeets []bool
	enabled, branches := refSuccessors(model.Prog, cfg, opts.Mode, rng, opts.MaxBranch, func(sel []int, nxt []S) bool {
		encBuf = ref.Encode(encBuf[:0], nxt)
		s := refSucc{key: string(encBuf), sel: string(appendSel(nil, sel))}
		ex.succs = append(ex.succs, s)
		isMeets = spec.MeetsVector(model.Probe, nxt, isMeets)
		for _, v := range spec.EventViolationsMeets(model.Probe, cfg, wasMeets, isMeets, depth+1, nil) {
			ex.viols = append(ex.viols, refViol{kind: v.Kind, msg: v.Msg, sel: s.sel, nextKey: s.key})
		}
		if correctPrev != nil && (opts.CheckClosure || opts.CheckConvergence) {
			for p := range correctPrev {
				correctNow := model.Correct(nxt, p)
				if opts.CheckClosure && correctPrev[p] && !correctNow {
					ex.viols = append(ex.viols, refViol{
						kind: KindClosure,
						msg:  fmt.Sprintf("process %d was Correct but is not after selection %v", p, sel),
						sel:  s.sel, nextKey: s.key,
					})
				}
				if opts.CheckConvergence && !correctNow {
					ex.viols = append(ex.viols, refViol{
						kind: KindConvergence,
						msg:  fmt.Sprintf("process %d is still incorrect after a full round (selection %v)", p, sel),
						sel:  s.sel, nextKey: s.key,
					})
				}
			}
		}
		return true
	})
	ex.enabled = enabled
	ex.terminal = enabled == 0
	if ex.terminal && opts.CheckDeadlock {
		ex.viols = append(ex.viols, refViol{kind: KindDeadlock, msg: "no process is enabled"})
	}
	if opts.Mode == sim.SelectAllSubsets && enabled > 0 {
		if enabled > 62 {
			ex.truncated = true
		} else if want := (int64(1) << enabled) - 1; int64(branches) < want {
			ex.truncated = true
		}
	}
	return ex
}

// refSuccessors is the PR 2 successor enumeration, frozen: per-branch
// allocation of the selection and next buffers through sim.Apply, which
// re-resolves each selected process's enabled action. The live
// sim.SuccessorsBuf caches those resolutions and reuses scratch; the
// oracle deliberately does not, so the bench baseline measures the
// engine it claims to.
func refSuccessors[S sim.Cloneable[S]](prog *sim.Program[S], cfg []S, mode sim.SelectionMode, rng *rand.Rand, maxBranches int, visit func(sel []int, next []S) bool) (enabled, branches int) {
	en := sim.EnabledOf(prog, cfg, make([]int, 0, prog.NumProcs))
	if len(en) == 0 {
		return 0, 0
	}
	next := make([]S, len(cfg))
	emit := func(sel []int) bool {
		if maxBranches > 0 && branches >= maxBranches {
			return false
		}
		sim.Apply(prog, cfg, next, sel, rng)
		branches++
		return visit(sel, next)
	}
	switch mode {
	case sim.SelectCentral:
		sel := make([]int, 1)
		for _, p := range en {
			sel[0] = p
			if !emit(sel) {
				return len(en), branches
			}
		}
	case sim.SelectSynchronous:
		emit(en)
	case sim.SelectAllSubsets:
		k := len(en)
		if maxBranches <= 0 && k > 30 {
			panic(fmt.Sprintf("sim: unbounded SelectAllSubsets over %d enabled processes", k))
		}
		last := ^uint64(0)
		if k < 64 {
			last = uint64(1)<<k - 1
		}
		sel := make([]int, 0, k)
		for mask := uint64(1); ; mask++ {
			sel = sel[:0]
			for i := 0; i < k && i < 64; i++ {
				if mask&(uint64(1)<<i) != 0 {
					sel = append(sel, en[i])
				}
			}
			if !emit(sel) {
				return len(en), branches
			}
			if mask == last {
				break
			}
		}
	default:
		panic(fmt.Sprintf("sim: unknown SelectionMode %d", int(mode)))
	}
	return len(en), branches
}
