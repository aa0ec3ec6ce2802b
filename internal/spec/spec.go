// Package spec implements runtime monitors for the committee
// coordination specification (paper §2.3, §2.4, §3.1):
//
//   - Exclusion: no two conflicting committees meet simultaneously;
//   - Synchronization: a meeting convenes only if all members were
//     waiting;
//   - Essential Discussion (2-phase, phase 1): a meeting terminates only
//     after every participant completed its essential discussion;
//   - Progress (bounded form): an all-waiting committee neighborhood
//     does not sit idle past a configurable window.
//
// A Tally watches a live run and counts what the paper measures on it:
// convenes per committee, participations per professor (Professor and
// Committee Fairness, Definitions 3–4), concurrency (Definition 5) and
// waits in rounds (Definition 6). The Checker it carries judges each
// step from the same meets vector.
//
// Everything is generic over the algorithm's state type via a Probe of
// abstract predicates, so the same code counts and validates
// CC1/CC2/CC3 and the baseline algorithms. Because the checker inspects
// only convene events occurring *during* the monitored run, running it
// from an arbitrary initial configuration checks exactly the
// snap-stabilization contract (§2.5): every meeting convened after the
// faults satisfies the specification; pre-existing (corrupted) meetings
// are only required not to interfere.
package spec

import (
	"fmt"

	"repro/internal/hypergraph"
)

// Probe abstracts an algorithm for monitoring.
type Probe[S any] struct {
	H *hypergraph.H
	// Meets reports whether committee e meets in cfg.
	Meets func(cfg []S, e int) bool
	// Waiting reports whether professor p is waiting in the original
	// problem's sense (for CC: S_p ∈ {looking, waiting}).
	Waiting func(cfg []S, p int) bool
	// Done reports whether professor p has completed its essential
	// discussion (for CC: S_p = done).
	Done func(cfg []S, p int) bool
}

// Violation is one detected specification violation.
type Violation struct {
	Step int
	Kind string
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("step %d: %s: %s", v.Step, v.Kind, v.Msg)
}

const (
	KindExclusion = "exclusion"
	KindSync      = "synchronization"
	KindEssential = "essential-discussion"
	KindProgress  = "progress"
)

// MeetsVector evaluates probe.Meets for every committee into dst
// (grown/resliced as needed) and returns it. Callers on hot paths — the
// Tally, the exhaustive explorer — compute each
// configuration's vector once and feed the *Meets variants below, so no
// committee predicate is evaluated twice for the same configuration.
func MeetsVector[S any](probe Probe[S], cfg []S, dst []bool) []bool {
	m := probe.H.M()
	if cap(dst) < m {
		dst = make([]bool, m)
	}
	dst = dst[:m]
	for e := 0; e < m; e++ {
		dst[e] = probe.Meets(cfg, e)
	}
	return dst
}

// ExclusionViolationsMeets appends to dst a violation for every pair of
// conflicting committees meeting simultaneously (per the configuration's
// precomputed MeetsVector), and returns the result. Exclusion is a state
// property: it is checked on every configuration, including initial
// (possibly corrupted) ones. Both the runtime Checker and the exhaustive
// explorer (internal/explore) use this predicate, so a sampled run and a
// model-checked state space judge configurations identically.
func ExclusionViolationsMeets[S any](probe Probe[S], meets []bool, step int, dst []Violation) []Violation {
	h := probe.H
	for i, mi := range meets {
		if !mi {
			continue
		}
		for j := i + 1; j < len(meets); j++ {
			if meets[j] && h.Edge(i).Conflicts(h.Edge(j)) {
				dst = append(dst, Violation{Step: step, Kind: KindExclusion,
					Msg: fmt.Sprintf("conflicting committees %s and %s meet simultaneously",
						h.Edge(i), h.Edge(j))})
			}
		}
	}
	return dst
}

// EventViolationsMeets appends to dst the Synchronization and
// Essential-Discussion violations of one transition prev→next — given
// the precomputed MeetsVectors of the previous (was) and current (is)
// configurations — and returns the result:
//
//   - a committee that convenes (meets in next but not in prev) must have
//     had every member waiting in prev (§2.3 Synchronization);
//   - a committee whose meeting terminates (meets in prev but not in
//     next) must have had every participant done in prev (§2.4
//     Essential Discussion, phase 1).
//
// Only prev's member states are read (the judged predicates are
// pre-transition). Because only events *during* the transition are
// judged, checking every transition from an arbitrary initial
// configuration checks exactly the snap-stabilization contract (§2.5).
func EventViolationsMeets[S any](probe Probe[S], prev []S, was, is []bool, step int, dst []Violation) []Violation {
	h := probe.H
	for e := 0; e < h.M(); e++ {
		switch {
		case is[e] && !was[e]:
			for _, q := range h.Edge(e) {
				if !probe.Waiting(prev, q) {
					dst = append(dst, Violation{Step: step, Kind: KindSync,
						Msg: fmt.Sprintf("committee %s convened but professor %d was not waiting", h.Edge(e), q)})
				}
			}
		case !is[e] && was[e]:
			for _, q := range h.Edge(e) {
				if !probe.Done(prev, q) {
					dst = append(dst, Violation{Step: step, Kind: KindEssential,
						Msg: fmt.Sprintf("committee %s terminated but professor %d had not finished its essential discussion", h.Edge(e), q)})
				}
			}
		}
	}
	return dst
}

// Checker is a Tally's spec monitor (build it with Tally.Checker). From
// the configuration it is attached at, it judges every configuration
// the run reaches (Exclusion) and every step between two of them
// (Synchronization, Essential Discussion, and optionally Progress),
// reading the meets vectors the Tally evaluates anyway.
type Checker[S any] struct {
	Probe Probe[S]
	// ProgressWindow, if > 0, flags an edge whose members are all
	// continuously waiting for that many steps while the edge never
	// meets and no member ever joins any meeting. Use only with weakly
	// fair daemons and a generous window.
	ProgressWindow int

	Violations []Violation

	prevCfg    []S   // the configuration judged last
	allWaitFor []int // per edge: consecutive steps with all members waiting and not meeting
	// attached is the meets vector of the configuration the checker was
	// attached at, until the first step is judged. A fault injected
	// before the attach can make it differ from the vector the tally
	// last observed, which the tally keeps counting events from.
	attached []bool
}

// judge checks cfg, the configuration reached by step, whose meets
// vector is is; was is the tally's meets vector of the configuration
// it observed before.
func (c *Checker[S]) judge(step int, cfg []S, was, is []bool) {
	if c.attached != nil {
		was, c.attached = c.attached, nil
	}
	c.Violations = ExclusionViolationsMeets(c.Probe, is, step, c.Violations)
	c.Violations = EventViolationsMeets(c.Probe, c.prevCfg, was, is, step, c.Violations)
	if c.ProgressWindow > 0 {
		c.progress(step, cfg, is)
	}
	c.prevCfg = append(c.prevCfg[:0], cfg...) // states are value types; shallow copy suffices for reads
}

func (c *Checker[S]) progress(step int, cfg []S, meets []bool) {
	h := c.Probe.H
	for e := 0; e < h.M(); e++ {
		allWaiting := true
		for _, q := range h.Edge(e) {
			if !c.Probe.Waiting(cfg, q) {
				allWaiting = false
				break
			}
		}
		if !allWaiting || meets[e] {
			c.allWaitFor[e] = 0
			continue
		}
		c.allWaitFor[e]++
		if c.allWaitFor[e] == c.ProgressWindow {
			c.Violations = append(c.Violations, Violation{Step: step, Kind: KindProgress,
				Msg: fmt.Sprintf("committee %s: all members waiting for %d steps with no meeting involving them",
					h.Edge(e), c.ProgressWindow)})
		}
	}
}

// Ok reports whether no violations were recorded.
func (c *Checker[S]) Ok() bool { return len(c.Violations) == 0 }

// ByKind returns the violations of a given kind.
func (c *Checker[S]) ByKind(kind string) []Violation {
	var out []Violation
	for _, v := range c.Violations {
		if v.Kind == kind {
			out = append(out, v)
		}
	}
	return out
}
