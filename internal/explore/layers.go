package explore

import (
	"cmp"
	"context"
	"slices"

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
	// Seed probes the model's initial configurations into the pending
	// set (pos = init-stream position, parent −1).
	Seed() error
	// Expand expands the current layer — the states promoted by the
	// last Commit, ids first, first+1, … — merging its aggregate into
	// rep (item i is state first+i) and probing every successor into
	// the pending set. It honours ctx by returning an error wrapping
	// ErrInterrupted.
	Expand(ctx context.Context, depth int, first int32, rep *LayerReport) error
	// Commit promotes the pending states in discovery order under the
	// next dense ids — at most room of them (room < 0: all), dropping
	// the rest — reporting each kept state's trace link to keep, then
	// (housekeep) runs the between-layer maintenance. It returns the
	// kept count and whether anything was dropped.
	Commit(room int, housekeep bool, keep func(parent int32, sel string)) (kept int, dropped bool, err error)
	// Keys returns the encodings of the given promoted states.
	Keys(ids []int32) ([][]uint64, error)
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
	done     int
	layer    LayerReport
	parentOf []int32
	selOf    []string
}

type layerDriver struct {
	layerState
	opts   *Options // defaulted
	render func(key []uint64) string
}

func newLayerDriver[S sim.Cloneable[S]](m *Model[S], opts *Options) *layerDriver {
	return &layerDriver{
		layerState: layerState{res: &Result{
			Model: m.Name, Mode: opts.Mode, MaxIncorrectDepth: -1,
			Symmetry: opts.Symmetry && len(m.Syms) > 0,
		}},
		opts:   opts,
		render: m.renderKey,
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
// restored from a checkpoint taken mid-layer.
func (d *layerDriver) run(ctx context.Context, b LayerBackend, resumed bool) error {
	res, opts := d.res, d.opts
	// commit promotes the pending layer under the state bound; fresh
	// states past it are dropped, which is a truncation.
	commit := func(housekeep bool) error {
		room := -1
		if opts.MaxStates > 0 {
			room = max(opts.MaxStates-res.States, 0)
		}
		kept, dropped, err := b.Commit(room, housekeep, func(parent int32, sel string) {
			d.parentOf = append(d.parentOf, parent)
			d.selOf = append(d.selOf, sel)
		})
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
		if err := b.Seed(); err != nil {
			return err
		}
		if err := commit(false); err != nil {
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
		if err := b.Expand(ctx, d.depth, first, &d.layer); err != nil {
			return err
		}
		if err := d.fold(b, first); err != nil {
			return err
		}
		if err := commit(true); err != nil {
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
// id, then appends the offending transition if any.
func (d *layerDriver) trace(b LayerBackend, id int32, v LayerViol) ([]TraceStep, error) {
	var path []int32
	for x := id; x >= 0; x = d.parentOf[x] {
		path = append(path, x)
	}
	slices.Reverse(path)
	keys, err := b.Keys(path)
	if err != nil {
		return nil, err
	}
	out := make([]TraceStep, 0, len(path)+1)
	for i, x := range path {
		out = append(out, TraceStep{Sel: decodeSel(d.selOf[x]), Config: d.render(keys[i]), Key: keys[i]})
	}
	if v.Key != nil {
		out = append(out, TraceStep{Sel: v.Sel, Config: d.render(v.Key), Key: v.Key})
	}
	return out, nil
}
