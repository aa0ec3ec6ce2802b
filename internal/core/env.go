package core

import (
	"math/rand"
)

// Env supplies the paper's input predicates RequestIn(p) and
// RequestOut(p) (§4.1). The predicates must be stable within a step; the
// Runner calls Update after every engine step (and once initially) so an
// Env may evolve its answers between steps based on the configuration.
//
// Required semantics (§4.2):
//   - RequestIn(p) holds when professor p requests to participate;
//   - once p is in a meeting (or stuck in a terminated one),
//     RequestOut(p) eventually holds, and once true it remains true
//     until p leaves.
type Env interface {
	RequestIn(p int) bool
	RequestOut(p int) bool
	Update(cfg []State, step int)
}

// EnvTracker is an optional Env refinement for the incremental engine:
// Changed reports the processes whose RequestIn/RequestOut answers may
// have flipped during the last Update call (the slice is valid until the
// next Update). The algorithms read Env predicates of p only from p's own
// guards, so the Runner marks exactly those processes dirty. Envs that
// cannot track changes simply omit the interface and the Runner falls
// back to invalidating the whole enabled-set cache after each update —
// always correct, just slower.
type EnvTracker interface {
	Env
	Changed() []int
}

// Client is the standard professor behaviour: each professor requests a
// meeting with probability ProbIn per step while idle (1 = the
// always-requesting assumption of §5), and requests out after spending a
// per-meeting voluntary-discussion time drawn from [MinDisc, MaxDisc]
// steps in the done status.
type Client struct {
	N       int
	ProbIn  float64
	MinDisc int // >= 0 extra done-steps before RequestOut
	MaxDisc int // >= MinDisc

	rng     *rand.Rand
	in      []bool
	out     []bool
	doneAge []int
	quota   []int // current meeting's drawn discussion duration
	changed []int // processes whose predicates flipped in the last Update
}

// NewClient builds a Client. Seed controls the private randomness
// (discussion durations, request arrivals), independent of the engine's.
func NewClient(n int, probIn float64, minDisc, maxDisc int, seed int64) *Client {
	if maxDisc < minDisc {
		maxDisc = minDisc
	}
	c := &Client{
		N: n, ProbIn: probIn, MinDisc: minDisc, MaxDisc: maxDisc,
		rng:     rand.New(rand.NewSource(seed)),
		in:      make([]bool, n),
		out:     make([]bool, n),
		doneAge: make([]int, n),
		quota:   make([]int, n),
	}
	for p := 0; p < n; p++ {
		c.quota[p] = c.draw()
		c.in[p] = probIn >= 1
	}
	return c
}

// NewAlwaysClient is the §5 environment: professors wait for meetings
// infinitely often and discuss for exactly disc steps.
func NewAlwaysClient(n, disc int) *Client {
	return NewClient(n, 1, disc, disc, 1)
}

func (c *Client) draw() int {
	if c.MaxDisc == c.MinDisc {
		return c.MinDisc
	}
	return c.MinDisc + c.rng.Intn(c.MaxDisc-c.MinDisc+1)
}

// RequestIn implements Env.
func (c *Client) RequestIn(p int) bool { return c.in[p] }

// RequestOut implements Env.
func (c *Client) RequestOut(p int) bool { return c.out[p] }

// Update implements Env.
func (c *Client) Update(cfg []State, _ int) {
	c.changed = c.changed[:0]
	for p := 0; p < c.N; p++ {
		oldIn, oldOut := c.in[p], c.out[p]
		if cfg[p].S == Done {
			c.doneAge[p]++
			if c.doneAge[p] > c.quota[p] {
				c.out[p] = true // latched while in the done status
			}
		} else {
			if c.doneAge[p] > 0 { // left a meeting: draw the next duration
				c.quota[p] = c.draw()
			}
			c.doneAge[p] = 0
			c.out[p] = false
		}
		if cfg[p].S == Idle {
			if !c.in[p] && c.rng.Float64() < c.ProbIn {
				c.in[p] = true
			}
		} else {
			c.in[p] = c.ProbIn >= 1 // re-arm immediately for always-requesting
		}
		if c.in[p] != oldIn || c.out[p] != oldOut {
			c.changed = append(c.changed, p)
		}
	}
}

// Changed implements EnvTracker.
func (c *Client) Changed() []int { return c.changed }

// InfiniteMeetings is the adversarial environment used to *define*
// Maximal Concurrency (Definition 2) and the Degree of Fair Concurrency
// (Definition 5): once a meeting convenes it never ends — RequestOut(p)
// holds only when p is stuck done in an already-terminated meeting
// (§4.2's formalization). Professors in Only (or all, if Only is nil)
// request meetings.
type InfiniteMeetings struct {
	Alg  *Alg
	Only []int // professors allowed to request in; nil = all

	in      []bool
	out     []bool
	changed []int
}

// NewInfiniteMeetings builds the environment for alg.
func NewInfiniteMeetings(alg *Alg, only []int) *InfiniteMeetings {
	n := alg.H.N()
	e := &InfiniteMeetings{Alg: alg, Only: only, in: make([]bool, n), out: make([]bool, n)}
	for p := 0; p < n; p++ {
		e.in[p] = only == nil
	}
	for _, p := range only {
		e.in[p] = true
	}
	return e
}

// RequestIn implements Env.
func (e *InfiniteMeetings) RequestIn(p int) bool { return e.in[p] }

// RequestOut implements Env.
func (e *InfiniteMeetings) RequestOut(p int) bool { return e.out[p] }

// Update implements Env.
func (e *InfiniteMeetings) Update(cfg []State, _ int) {
	e.changed = e.changed[:0]
	for p := range e.out {
		// §4.2: if S_p = done but ¬Meeting(p), the meeting is already
		// terminated, so RequestOut(p) eventually holds; if p is involved
		// in a (live) meeting, it never ends.
		out := cfg[p].S == Done && !e.Alg.Meeting(cfg, p)
		if out != e.out[p] {
			e.out[p] = out
			e.changed = append(e.changed, p)
		}
	}
}

// Changed implements EnvTracker.
func (e *InfiniteMeetings) Changed() []int { return e.changed }

// trackerOf returns env's change tracking, or nil when its predicate
// flips cannot be attributed to processes. A Masked env tracks exactly
// when the Env it wraps does.
func trackerOf(env Env) EnvTracker {
	if m, ok := env.(*Masked); ok {
		if _, ok := m.Env.(EnvTracker); !ok {
			return nil
		}
	}
	t, _ := env.(EnvTracker)
	return t
}

// Masked wraps an Env so that the professors marked Idle never request
// in (Figure 3's professor 4). Idle is static, so the wrapper's answers
// flip only where the wrapped Env's do: it forwards the wrapped Env's
// change tracking when that Env has one, and the Runner re-evaluates
// every guard after each update when it does not.
type Masked struct {
	Env
	Idle []bool
}

// RequestIn implements Env.
func (m *Masked) RequestIn(p int) bool { return !m.Idle[p] && m.Env.RequestIn(p) }

// Changed implements EnvTracker by forwarding to the wrapped Env; it
// reports nothing when that Env does not track (the Runner then
// invalidates the whole enabled set instead).
func (m *Masked) Changed() []int {
	if t, ok := m.Env.(EnvTracker); ok {
		return t.Changed()
	}
	return nil
}

// Scripted is a fully scripted environment for trace replays (Figure 3):
// the test driver sets In/Out directly between steps.
type Scripted struct {
	In  []bool
	Out []bool
}

// NewScripted builds an all-false scripted environment for n professors.
func NewScripted(n int) *Scripted {
	return &Scripted{In: make([]bool, n), Out: make([]bool, n)}
}

// RequestIn implements Env.
func (s *Scripted) RequestIn(p int) bool { return s.In[p] }

// RequestOut implements Env.
func (s *Scripted) RequestOut(p int) bool { return s.Out[p] }

// Update implements Env (no-op; the driver mutates In/Out directly).
func (s *Scripted) Update([]State, int) {}
