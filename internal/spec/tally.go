package spec

import "repro/internal/hypergraph"

// Source is the run a Tally watches; *sim.Engine satisfies it.
type Source[S any] interface {
	Config() []S
	Rounds() int
}

// Counts is what a Tally has seen of a run: the paper's run measures,
// independent of the algorithm's state type.
type Counts struct {
	Convenes        []int // per committee: convene events
	Terminates      []int // per committee: terminate events
	ProfMeetings    []int // per professor: meetings participated in
	PeakConcurrency int   // most committees meeting in one configuration
	Steps           int   // steps observed
	Rounds          int   // completed rounds at the last observed step

	h              *hypergraph.H
	sumConcurrency int64 // sum over steps of |meetings| (for the mean)
	maxWait        []int // per professor: longest closed wait, in rounds
	lastMeet       []int // per professor: round of the last participation
}

// TotalConvenes returns the total number of convene events.
func (c *Counts) TotalConvenes() int {
	t := 0
	for _, n := range c.Convenes {
		t += n
	}
	return t
}

// MeanConcurrency returns the average number of simultaneously meeting
// committees per step.
func (c *Counts) MeanConcurrency() float64 {
	if c.Steps == 0 {
		return 0
	}
	return float64(c.sumConcurrency) / float64(c.Steps)
}

// MinProfMeetings returns the minimum per-professor participation count —
// the Professor Fairness witness (Definition 3). Professors incident to
// no committee are skipped.
func (c *Counts) MinProfMeetings() int {
	lo := -1
	for p, n := range c.ProfMeetings {
		if len(c.h.EdgesOf(p)) > 0 && (lo == -1 || n < lo) {
			lo = n
		}
	}
	return max(lo, 0)
}

// MinCommitteeConvenes returns the minimum per-committee convene count —
// the Committee Fairness witness (Definition 4).
func (c *Counts) MinCommitteeConvenes() int {
	lo := -1
	for _, n := range c.Convenes {
		if lo == -1 || n < lo {
			lo = n
		}
	}
	return max(lo, 0)
}

// MaxWaitRounds returns, per professor, the most rounds it went without
// joining a meeting (Definition 6): the longest gap between two
// participations, the first one counted from the start of the run, and
// the gap still open now. A professor who never met has waited the
// whole run.
func (c *Counts) MaxWaitRounds() []int {
	out := make([]int, len(c.maxWait))
	for p, w := range c.maxWait {
		out[p] = max(w, c.Rounds-c.lastMeet[p])
	}
	return out
}

// Tally watches a run one step at a time. Each step it evaluates the
// meets vector once, counts the convene and terminate events in it into
// Counts, fires the OnConvene/OnTerminate hooks, and hands the same
// vector to its Checker, if one is attached. Feed it every step with
// Observe.
type Tally[S any] struct {
	Counts
	Probe Probe[S]

	src         Source[S]
	prev, cur   []bool // meets vectors of the last observed configuration and scratch
	check       *Checker[S]
	onConvene   []func(step, e int)
	onTerminate []func(step, e int)
}

// NewTally starts a tally of src from its current configuration.
func NewTally[S any](probe Probe[S], src Source[S]) *Tally[S] {
	h := probe.H
	return &Tally[S]{
		Counts: Counts{
			Convenes:     make([]int, h.M()),
			Terminates:   make([]int, h.M()),
			ProfMeetings: make([]int, h.N()),
			h:            h,
			maxWait:      make([]int, h.N()),
			lastMeet:     make([]int, h.N()),
		},
		Probe: probe,
		src:   src,
		prev:  MeetsVector(probe, src.Config(), nil),
		cur:   make([]bool, h.M()),
	}
}

// OnConvene registers a callback fired when a committee meeting convenes
// (it meets in the new configuration but did not in the previous one).
func (t *Tally[S]) OnConvene(fn func(step, e int)) { t.onConvene = append(t.onConvene, fn) }

// OnTerminate registers a callback fired when a meeting terminates.
func (t *Tally[S]) OnTerminate(fn func(step, e int)) { t.onTerminate = append(t.onTerminate, fn) }

// Checker attaches a fresh spec monitor, replacing any earlier one, and
// returns it. It judges the current configuration at once and every
// step after; meetings that hold now are pre-existing, not convened.
func (t *Tally[S]) Checker(progressWindow int) *Checker[S] {
	cfg := t.src.Config()
	c := &Checker[S]{Probe: t.Probe, ProgressWindow: progressWindow,
		allWaitFor: make([]int, t.h.M()), attached: MeetsVector(t.Probe, cfg, nil)}
	c.Violations = ExclusionViolationsMeets(t.Probe, c.attached, t.Steps, nil)
	c.prevCfg = append(c.prevCfg, cfg...)
	t.check = c
	return c
}

// Observe records cfg, the configuration reached by step.
func (t *Tally[S]) Observe(step int, cfg []S) {
	round := t.src.Rounds()
	is := MeetsVector(t.Probe, cfg, t.cur)
	concurrent := 0
	for e, meets := range is {
		if meets {
			concurrent++
		}
		switch {
		case meets && !t.prev[e]:
			t.Convenes[e]++
			for _, p := range t.h.Edge(e) {
				t.ProfMeetings[p]++
				t.maxWait[p] = max(t.maxWait[p], round-t.lastMeet[p])
				t.lastMeet[p] = round
			}
			for _, fn := range t.onConvene {
				fn(step, e)
			}
		case !meets && t.prev[e]:
			t.Terminates[e]++
			for _, fn := range t.onTerminate {
				fn(step, e)
			}
		}
	}
	t.PeakConcurrency = max(t.PeakConcurrency, concurrent)
	t.sumConcurrency += int64(concurrent)
	t.Steps++
	t.Rounds = round
	if t.check != nil {
		t.check.judge(step, cfg, t.prev, is)
	}
	t.prev, t.cur = is, t.prev
}
