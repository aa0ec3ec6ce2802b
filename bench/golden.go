package main

import (
	"errors"
	"fmt"

	"repro/internal/explore"
)

// Golden counts for the compute workloads at calibrated size. An
// exhaustive cell is a pure function of its model and options, so any
// drift here is a changed verdict, not noise: the run reports the
// repeat as a failed operation and exits non-zero.

var errGolden = errors.New("golden check failed")

// goldenPaperExperiments is the size of the experiment registry the
// paper-suite workload regenerates.
const goldenPaperExperiments = 14

type goldenCounts struct {
	States       int
	Transitions  int64
	Verdict      string
	ArenaSpilled int64  // RunStats.ArenaSpilledBytes; 0 = in memory
	ResultSHA    string // SHA-256 of the result JSON with StateBytes zeroed; "" = not pinned
}

// goldenWide is cc1 / triples:3 / legit / all-subsets bounded to 250,000
// states; cluster-local3 must reproduce it byte for byte.
var goldenWide = goldenCounts{
	States: 250_000, Transitions: 6_708_836, Verdict: "bounded",
	ResultSHA: "e749b1aa54687927135fc3ae4ee863adb0437311594b5d22a8f83484ec16397a",
}

// goldenSpill is cc2 / ring:5 / cc / central, the full space, under a
// 1 MiB budget.
var goldenSpill = goldenCounts{
	States: 828_919, Transitions: 3_143_416, Verdict: "verified",
	ArenaSpilled: 13_114_192,
}

func (g goldenCounts) check(r *explore.Result, st *explore.RunStats) error {
	if r.States != g.States || r.Transitions != g.Transitions || r.Verdict() != g.Verdict {
		return fmt.Errorf("%w: %d states, %d transitions, %s; want %d, %d, %s",
			errGolden, r.States, r.Transitions, r.Verdict(), g.States, g.Transitions, g.Verdict)
	}
	if st != nil && st.ArenaSpilledBytes != g.ArenaSpilled {
		return fmt.Errorf("%w: %d arena bytes spilled, want %d", errGolden, st.ArenaSpilledBytes, g.ArenaSpilled)
	}
	if g.ResultSHA != "" {
		if sum := resultHash(r); sum != g.ResultSHA {
			return fmt.Errorf("%w: result JSON hashes to %s, want %s", errGolden, sum, g.ResultSHA)
		}
	}
	return nil
}
