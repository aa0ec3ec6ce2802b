package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cmdtest"
)

func TestCCSimGoldenRun(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 2*time.Minute,
		"-alg", "cc2", "-topo", "ring:6", "-steps", "2000", "-seed", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"topology: H(n=6, m=6)",
		"CC2 after",
		"total convenes:",
		"mean concurrency:",
		"violations:        none",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCCSimLargeRing: past 64 processes the run goes through the
// kernel-driven runner, and the header's minMM enumeration stops at its
// budget instead of running for hours before the first step.
func TestCCSimLargeRing(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, time.Minute,
		"-alg", "cc2", "-topo", "ring:70", "-steps", "2000")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"minMM=skipped (over ",
		"Theorem5Bound=skipped  Theorem8Bound=skipped",
		"CC2 after 2000 steps",
		"violations:        none",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCCSimRandomInitSnapStabilization(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 2*time.Minute,
		"-alg", "cc1", "-topo", "fig1", "-steps", "2000", "-random-init")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "violations:        none") {
		t.Fatalf("random-init run reported violations:\n%s", out)
	}
}

func TestCCSimBaseline(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 2*time.Minute,
		"-alg", "dining", "-topo", "triples:3", "-steps", "1500")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	// The baselines report through the same tally and report as CC.
	for _, want := range []string{"dining after", "max wait (rounds):", "meetings now:", "violations:        none"} {
		if !strings.Contains(out, want) {
			t.Fatalf("baseline report missing %q:\n%s", want, out)
		}
	}
}

func TestCCSimReplicas(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 2*time.Minute,
		"-alg", "cc2", "-topo", "ring:5", "-steps", "800", "-runs", "4", "-j", "2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"cc2 × 4 replicas", "convenes:", "violations:        none"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCCSimRandomHarness: the randomized scenario harness — random
// initial configurations on a topology drawn per replica seed, every
// run monitored by the runtime spec checkers — finds no violation.
func TestCCSimRandomHarness(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 3*time.Minute,
		"-alg", "cc2", "-topo", "scenario:14", "-random-init", "-runs", "6", "-steps", "800")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	var distinct int
	for _, line := range strings.Split(out, "\n") {
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "topologies: %d distinct", &distinct); err == nil {
			break
		}
	}
	if distinct < 2 {
		t.Fatalf("replicas did not draw distinct topologies:\n%s", out)
	}
	for _, want := range []string{"cc2 × 6 replicas", "violations:        none"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// usageError is one bad command line and the message it must exit 2 with.
type usageError struct {
	args []string
	want string
}

// checkUsageErrors runs each bad command line and requires exit 2 and
// the expected message.
func checkUsageErrors(t *testing.T, bin string, rows []usageError) {
	t.Helper()
	for _, tc := range rows {
		out, code := cmdtest.Run(t, bin, time.Minute, tc.args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2:\n%s", tc.args, code, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("%v: missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestCCSimFlagErrors(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	checkUsageErrors(t, bin, []usageError{
		{[]string{"-alg", "nope"}, "unknown algorithm"},
		{[]string{"-daemon", "nope"}, "unknown daemon"},
		{[]string{"-topo", "nope:3"}, "unknown topology"},
		{[]string{"-alg", "dining", "-topo", "triples:3", "-random-init"}, "not self-stabilizing"},
	})
}

// TestCCSimFramesFlagErrors: the trace flags (-frames, -every, -idle)
// reject the combinations they cannot honour.
func TestCCSimFramesFlagErrors(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	checkUsageErrors(t, bin, []usageError{
		{[]string{"-alg", "dining", "-frames", "3"}, "-frames renders CC configurations"},
		{[]string{"-alg", "cc1", "-every", "5"}, "-every needs -frames"},
		{[]string{"-alg", "cc1", "-frames", "3", "-runs", "2"}, "apply to a single run"},
		{[]string{"-alg", "cc1", "-idle", "4", "-runs", "2"}, "apply to a single run"},
		{[]string{"-alg", "cc2", "-idle", "3"}, "-idle only applies to cc1"},
		{[]string{"-alg", "cc1", "-idle", "x"}, "bad -idle entry"},
		{[]string{"-alg", "cc1", "-topo", "fig3", "-idle", "99"}, "topology fig3 has no professor with id 99"},
		{[]string{"-alg", "cc1", "-topo", "nope", "-frames", "3"}, "unknown topology"},
	})
}

// frames returns the frame blocks of a ccsim report: everything from the
// first frame up to the blank line before the run summary.
func frames(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "--- frame 1 ")
	j := strings.Index(out, "\n\nCC")
	if i < 0 || j < i {
		t.Fatalf("no frames in output:\n%s", out)
	}
	return out[i : j+1]
}

// TestCCSimFramesGolden: the Figure 3 frames of cc1 on fig3 are
// byte-identical to testdata/frames_cc1_fig3.txt, and after the last
// frame the run goes on to -steps and reports.
func TestCCSimFramesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/frames_cc1_fig3.txt")
	if err != nil {
		t.Fatal(err)
	}
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 2*time.Minute,
		"-alg", "cc1", "-topo", "fig3", "-seed", "1", "-steps", "20000", "-frames", "12")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if got := frames(t, out); got != string(want) {
		t.Fatalf("frames differ from the golden:\n%s", got)
	}
	for _, want := range []string{"--- frame 1 (step 0, initial) ---", "prof 10", "CC1 after 20000 steps", "violations:        none"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCCSimFramesEveryKSteps(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 2*time.Minute,
		"-topo", "ring:6", "-alg", "cc2", "-frames", "4", "-every", "5")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "--- frame 4 (step 15) ---") || strings.Contains(out, "--- frame 5") {
		t.Fatalf("fixed-stride frames missing:\n%s", out)
	}
}

// TestCCSimIdleMask: a masked professor never requests, so every frame
// shows it idle; the mask applies to a run without frames too.
func TestCCSimIdleMask(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 2*time.Minute,
		"-topo", "fig3", "-alg", "cc1", "-frames", "6", "-idle", "4")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "--- frame 6") {
		t.Fatalf("masked run produced too few frames:\n%s", out)
	}
	for _, line := range strings.Split(frames(t, out), "\n") {
		if strings.HasPrefix(line, "  prof 4 ") && !strings.Contains(line, " idle ") {
			t.Fatalf("masked professor 4 left idle: %q", line)
		}
	}
	plain, code := cmdtest.Run(t, bin, 2*time.Minute, "-topo", "fig3", "-alg", "cc1", "-idle", "4")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, plain)
	}
	// Professor 4 is vertex 3 of fig3: it never meets.
	var per [10]int
	i := strings.Index(plain, "per professor:")
	if i < 0 {
		t.Fatalf("no per-professor counts:\n%s", plain)
	}
	if _, err := fmt.Sscanf(plain[i:], "per professor: [%d %d %d %d", &per[0], &per[1], &per[2], &per[3]); err != nil {
		t.Fatalf("per-professor counts: %v\n%s", err, plain)
	}
	if per[3] != 0 || per[0] == 0 {
		t.Fatalf("masked professor 4 met %d times (professor 1: %d):\n%s", per[3], per[0], plain)
	}
}
