// Package experiments regenerates every figure and analytic result of
// the paper as a runnable experiment (`cccheck -mode paper -exp list` is
// the index; docs/paper-map.md maps each to its claim). Each experiment
// produces one or more Tables; `cccheck -mode paper` renders them. It
// also owns the measurement procedures behind the tables (measures.go).
// Because the paper is proof-driven (no empirical tables), the "paper vs
// measured" comparison is: does the measured behaviour satisfy the
// theorem / exhibit the figure's scenario?
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/par"
	"repro/internal/store"
)

// Table is one result table of an experiment.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as GitHub-flavored markdown.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "### %s\n\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	pad := func(s string, w int) string { return s + strings.Repeat(" ", w-len(s)) }
	fmt.Fprint(w, "|")
	for i, h := range t.Header {
		fmt.Fprintf(w, " %s |", pad(h, widths[i]))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "|")
	for i := range t.Header {
		fmt.Fprintf(w, "%s|", strings.Repeat("-", widths[i]+2))
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprint(w, "|")
		for i, c := range r {
			w2 := 0
			if i < len(widths) {
				w2 = widths[i]
			}
			if len(c) > w2 {
				w2 = len(c)
			}
			fmt.Fprintf(w, " %s |", pad(c, w2))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Config parameterizes an experiment run.
type Config struct {
	Seed  int64
	Quick bool // reduced sizes for tests and smoke runs
	// Store, if non-nil, routes the exhaustive-exploration cells (the MC
	// experiment) through the content-addressed verdict store shared with
	// cccheck -cache and ccserve: cached cells are served instead of
	// re-explored, fresh ones are persisted. The caller opens and closes
	// it.
	Store store.Interface
}

// Result is the outcome of one experiment.
type Result struct {
	ID     string
	Tables []*Table
	// Failures lists assertion failures: paper claims the run violated.
	// Empty means the reproduction confirms the paper's claim.
	Failures []string
}

func (r *Result) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Ok reports whether every claim checked by the experiment held.
func (r *Result) Ok() bool { return len(r.Failures) == 0 }

// Experiment is one registered reproduction experiment.
type Experiment struct {
	ID    string
	What  string // the paper artifact it regenerates
	RunFn func(cfg Config) *Result
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Run renders an experiment's tables and failures to w.
func Run(id string, cfg Config, w io.Writer) (*Result, error) {
	e, ok := Get(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	res := e.RunFn(cfg)
	render(e, res, w)
	return res, nil
}

func render(e Experiment, res *Result, w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.What)
	for _, t := range res.Tables {
		t.Render(w)
	}
	if len(res.Failures) > 0 {
		fmt.Fprintln(w, "**FAILED CLAIMS:**")
		for _, f := range res.Failures {
			fmt.Fprintf(w, "- %s\n", f)
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintln(w, "All checked claims hold.")
		fmt.Fprintln(w)
	}
}

// RunAll fans the named experiments across the worker pool (each one
// additionally fans its own cells) and renders reports to w in the
// input order, streaming each one as soon as it and its predecessors
// finish — a long suite shows progress instead of barriering on the
// slowest experiment. It fails fast on an unknown id, before any work
// runs.
func RunAll(ids []string, cfg Config, w io.Writer) ([]*Result, error) {
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		e, ok := Get(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		exps[i] = e
	}
	results := make([]*Result, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range done {
		done[i] = make(chan struct{})
	}
	go par.ForEach(len(exps), func(i int) {
		results[i] = exps[i].RunFn(cfg)
		close(done[i])
	})
	for i := range exps {
		<-done[i]
		render(exps[i], results[i], w)
	}
	return results, nil
}
