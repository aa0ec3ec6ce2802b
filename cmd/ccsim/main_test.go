package main

import (
	"fmt"
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

func TestCCSimFlagErrors(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-alg", "nope"}, "unknown algorithm"},
		{[]string{"-daemon", "nope"}, "unknown daemon"},
		{[]string{"-topo", "nope:3"}, "unknown topology"},
		{[]string{"-alg", "dining", "-topo", "triples:3", "-random-init"}, "not self-stabilizing"},
	} {
		out, code := cmdtest.Run(t, bin, time.Minute, tc.args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2:\n%s", tc.args, code, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Fatalf("%v: missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}
