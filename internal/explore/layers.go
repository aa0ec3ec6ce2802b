package explore

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/sim"
)

// This file is the layer driver: the one layer-synchronous BFS loop
// behind both ExploreCtx and cluster.Run. The driver owns everything
// that decides the verdict — the MaxDepth / MaxStates / MaxViolations
// bounds, the fold of a layer's aggregate into the Result, the report
// order of violations and their traces, the depth bookkeeping — and a
// LayerBackend says only where the states live: in this process's
// visited set (localBackend, explore.go) or partitioned across cluster
// peers (internal/cluster).

// LayerViol is one violation detected while expanding a layer, tagged
// with the layer item index so the driver can restore the deterministic
// report order (a stable sort by Item; one item is expanded by exactly
// one worker on exactly one peer). Item i of a layer is the state with
// id first+i. Sel and Key are the offending transition's selection and
// successor encoding (nil for a state property).
type LayerViol struct {
	Item int      `json:"item"`
	Kind string   `json:"kind"`
	Msg  string   `json:"msg"`
	Sel  []int    `json:"sel,omitempty"`
	Key  []uint64 `json:"key,omitempty"`
}

// LayerReport is the aggregate of one layer's expansion, and the only
// one: each worker fills its own, workers fold into a chunk or a peer
// with Merge, chunks and peers into the layer with Merge, and the
// driver folds the layer into the Result. Everything in it is either
// order-insensitive (sums, maxima, flags) or tagged with the item index
// (violations, sorted back into item order), so the merged outcome is
// identical at any worker or peer count and nothing per-item is
// allocated on the hot path.
type LayerReport struct {
	Deadlocks    int         `json:"deadlocks"`
	Transitions  int64       `json:"transitions"`
	MaxEnabled   int         `json:"maxEnabled"`
	Truncated    bool        `json:"truncated"`
	Incorrect    bool        `json:"incorrect"`
	Viols        []LayerViol `json:"viols,omitempty"`
	SendFailures int         `json:"sendFailures,omitempty"`
}

// Merge folds o into r. Sums, maxima and ORs commute and violations
// stay item-tagged for the layer-end sort, so the merge order cannot
// show in the result.
func (r *LayerReport) Merge(o *LayerReport) {
	r.Deadlocks += o.Deadlocks
	r.Transitions += o.Transitions
	r.MaxEnabled = max(r.MaxEnabled, o.MaxEnabled)
	r.Truncated = r.Truncated || o.Truncated
	r.Incorrect = r.Incorrect || o.Incorrect
	r.Viols = append(r.Viols, o.Viols...)
	r.SendFailures += o.SendFailures
}

// LayerBackend is where the states of a layer-synchronous exploration
// live. The driver calls it from one goroutine, one method at a time;
// states are named by dense ids in promotion order.
type LayerBackend interface {
	// Seed promotes the model's initial configurations as the first
	// layer, in init-stream order under ids 0, 1, … — at most room of
	// them (room < 0: all), dropping the rest — with trace links of
	// parent −1, extending links once by the kept count. It returns the
	// kept count and whether anything was dropped.
	Seed(room int, links *TraceLinks) (kept int, dropped bool, err error)
	// Expand expands the current layer — the states promoted by the
	// last Commit, ids first, first+1, … — merging its aggregate into
	// rep (item i is state first+i) and probing every successor into
	// the pending set. It honours ctx by returning an error wrapping
	// ErrInterrupted.
	Expand(ctx context.Context, depth int, first int32, rep *LayerReport) error
	// Commit promotes the pending states in discovery order under the
	// next dense ids — at most room of them (room < 0: all), dropping
	// the rest — and sets their trace links, extending links once by
	// the kept count, then runs the between-layer maintenance. It
	// returns the kept count and whether anything was dropped.
	Commit(room int, links *TraceLinks) (kept int, dropped bool, err error)
	// Keys returns the encodings of the given promoted states.
	Keys(ids []int32) ([][]uint64, error)
}

// TraceLinks is the driver's trace-link table: for promoted state id,
// the state it was discovered from, one layer shallower (−1 for an
// initial configuration). The selection that led there is not stored;
// a trace re-derives it (layerDriver.trace). It grows in fixed blocks,
// so a layer's growth never copies the links already held, and
// distinct ids may be set from different goroutines. Ids below base
// are a seed layer linked to −1 without storage (Implicit).
type TraceLinks struct {
	base   int
	n      int
	parent [][]int32
}

// linkBlock is the entries per TraceLinks block.
const linkBlock = 1 << 12

// Len returns the number of states linked.
func (t *TraceLinks) Len() int { return t.n }

// Implicit starts an empty table with a seed layer of n initial
// configurations whose links (−1) take no storage.
func (t *TraceLinks) Implicit(n int) {
	if t.n != 0 {
		panic("explore: an implicit seed layer on a non-empty link table")
	}
	t.base, t.n = n, n
}

// Extend grows the table by n states, once per layer, and returns the
// first new id; the backend then sets ids first … first+n−1.
func (t *TraceLinks) Extend(n int) (first int) {
	first = t.n
	t.n += n
	for len(t.parent)*linkBlock < t.n-t.base {
		t.parent = append(t.parent, make([]int32, linkBlock))
	}
	return first
}

// Set records state id's parent (id at or above the implicit seed).
func (t *TraceLinks) Set(id int, parent int32) {
	id -= t.base
	t.parent[id/linkBlock][id%linkBlock] = parent
}

// At returns state id's parent.
func (t *TraceLinks) At(id int) (parent int32) {
	if id < t.base {
		return -1
	}
	id -= t.base
	return t.parent[id/linkBlock][id%linkBlock]
}

// layerState is the driver's resumable state: together with the
// backend's own (arena, pending set) it is exactly what a checkpoint
// captures. The layer's open remainder needs no state of its own: it
// is the id range [res.States−width+done, res.States).
type layerState struct {
	res   *Result
	depth int // the layer being expanded
	width int // states in that layer
	// done counts the layer's items already expanded and merged into
	// layer; only the local backend, which expands a layer in
	// checkpointable chunks, ever leaves it non-zero between calls.
	done  int
	layer LayerReport
	links TraceLinks
}

type layerDriver struct {
	layerState
	opts   *Options // defaulted
	render func(key []uint64) string
	// step re-derives the selection from one trace key to the next
	// (workerState.selectionTo on a scalar worker of its own, built at
	// the first trace).
	step func(from, to []uint64) []int
}

func newLayerDriver[S sim.Cloneable[S]](m *Model[S], opts *Options) *layerDriver {
	var ws *workerState[S]
	return &layerDriver{
		layerState: layerState{res: &Result{
			Model: m.Name, Mode: opts.Mode, MaxIncorrectDepth: -1,
			Symmetry: opts.Symmetry && len(m.Syms) > 0,
		}},
		opts:   opts,
		render: m.renderKey,
		step: func(from, to []uint64) []int {
			if ws == nil {
				o := *opts
				o.DisableBatch = true
				ws = newWorkerState(m, &o)
			}
			return ws.selectionTo(from, to)
		},
	}
}

// RunLayers runs the bounded exhaustive exploration of m over the
// states b holds and returns its Result (StateBytes zero: the footprint
// is the backend's to report). On error the partial Result comes back
// with it.
func RunLayers[S sim.Cloneable[S]](ctx context.Context, m *Model[S], opts Options, b LayerBackend) (*Result, error) {
	opts = opts.Defaulted()
	d := newLayerDriver(m, &opts)
	return d.res, d.run(ctx, b, false)
}

// run is the layer loop. resumed skips the seeding: the state was
// restored from a checkpoint taken mid-layer. Every backend call is
// charged to one of RunStats' phase clocks: seed (the seed layer,
// promotion included), expand (the layer's expansion and its violation
// traces) or commit (promotion and housekeeping).
func (d *layerDriver) run(ctx context.Context, b LayerBackend, resumed bool) error {
	res, opts := d.res, d.opts
	st := opts.Stats
	if st == nil {
		st = new(RunStats) // the clocks run either way
	}
	timed := func(phase *float64, step func() error) error {
		t0 := time.Now()
		err := step()
		*phase += time.Since(t0).Seconds()
		return err
	}
	// room is what is left of the state bound for the next layer.
	room := func() int {
		if opts.MaxStates <= 0 {
			return -1
		}
		return max(opts.MaxStates-res.States, 0)
	}
	// promoted counts a promoted layer; fresh states past the state
	// bound were dropped, which is a truncation.
	promoted := func(kept int, dropped bool, err error) error {
		if err != nil {
			return err
		}
		if dropped {
			res.Truncated = true
		}
		res.States += kept
		d.width = kept
		return nil
	}
	if !resumed {
		if err := timed(&st.SeedSeconds, func() error { return promoted(b.Seed(room(), &d.links)) }); err != nil {
			return err
		}
		res.Inits = d.width
	}
	for d.width > 0 && len(res.Violations) < opts.MaxViolations {
		if opts.MaxDepth > 0 && d.depth >= opts.MaxDepth {
			res.Truncated = true
			break
		}
		first := int32(res.States - d.width)
		if err := timed(&st.ExpandSeconds, func() error {
			if err := b.Expand(ctx, d.depth, first, &d.layer); err != nil {
				return err
			}
			return d.fold(b, first)
		}); err != nil {
			return err
		}
		if err := timed(&st.CommitSeconds, func() error { return promoted(b.Commit(room(), &d.links)) }); err != nil {
			return err
		}
		d.depth++
		res.Depth = d.depth
		d.layer, d.done = LayerReport{}, 0
	}
	if len(res.Violations) >= opts.MaxViolations {
		res.Truncated = true
	}
	return nil
}

// fold folds the completed layer's aggregate into the result: the
// counters, then the violations in deterministic item order, each with
// its counterexample trace, up to the violation bound.
func (d *layerDriver) fold(b LayerBackend, first int32) error {
	res, l := d.res, &d.layer
	res.Deadlocks += l.Deadlocks
	res.Transitions += l.Transitions
	if l.Truncated {
		res.Truncated = true
	}
	if l.Incorrect && d.depth > res.MaxIncorrectDepth {
		res.MaxIncorrectDepth = d.depth
	}
	res.MaxEnabled = max(res.MaxEnabled, l.MaxEnabled)
	// Stable: one item is expanded by one worker, which appends its
	// violations in detection order.
	slices.SortStableFunc(l.Viols, func(a, b LayerViol) int { return cmp.Compare(a.Item, b.Item) })
	for _, v := range l.Viols {
		if len(res.Violations) >= d.opts.MaxViolations {
			break
		}
		depth := d.depth
		if v.Key != nil {
			depth++
		}
		trace, err := d.trace(b, first+int32(v.Item), v)
		if err != nil {
			return err
		}
		res.Violations = append(res.Violations, Violation{Kind: v.Kind, Msg: v.Msg, Depth: depth, Trace: trace})
	}
	return nil
}

// trace reconstructs the path from an initial configuration to state
// id of the layer in flight — one parent link per layer — re-deriving
// each step's selection from its parent, then appends the offending
// transition if any. A link that breaks either rule is an internal
// error, never a trace.
func (d *layerDriver) trace(b LayerBackend, id int32, v LayerViol) ([]TraceStep, error) {
	path := make([]int32, d.depth+1)
	x := id
	for i := d.depth; i >= 0; i-- {
		if x < 0 {
			return nil, fmt.Errorf("explore: internal error: the trace links of state %d (layer %d) reach an initial configuration at layer %d", id, d.depth, i+1)
		}
		path[i], x = x, d.links.At(int(x))
	}
	if x >= 0 {
		return nil, fmt.Errorf("explore: internal error: the trace links of state %d (layer %d) run past layer 0", id, d.depth)
	}
	keys, err := b.Keys(path)
	if err != nil {
		return nil, err
	}
	out := make([]TraceStep, 0, len(path)+1)
	for i, x := range path {
		var sel []int
		if i > 0 {
			if sel = d.step(keys[i-1], keys[i]); sel == nil {
				return nil, fmt.Errorf("explore: internal error: no selection leads from state %d to state %d, its trace link", path[i-1], x)
			}
		}
		out = append(out, TraceStep{Sel: sel, Config: d.render(keys[i]), Key: keys[i]})
	}
	if v.Key != nil {
		out = append(out, TraceStep{Sel: v.Sel, Config: d.render(v.Key), Key: v.Key})
	}
	return out, nil
}
