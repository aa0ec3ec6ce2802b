package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cmdtest"
)

func TestCCBenchList(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, time.Minute, "-list")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, id := range []string{"T2", "T3", "T45", "SNAP", "F3", "ABL"} {
		if !strings.Contains(out, id) {
			t.Fatalf("experiment %s missing from -list:\n%s", id, out)
		}
	}
}

func TestCCBenchSingleExperimentQuick(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 3*time.Minute, "-exp", "F3", "-quick")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "All checked claims hold.") {
		t.Fatalf("F3 did not confirm its claims:\n%s", out)
	}
}

func TestCCBenchUnknownExperiment(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, time.Minute, "-exp", "NOPE")
	if code != 2 {
		t.Fatalf("exit %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown experiment") {
		t.Fatalf("missing error message:\n%s", out)
	}
}

// TestCCBenchMCCache: -cache routes the MC experiment's exhaustive
// cells through the shared verdict store — the second run serves every
// cell from cache (and must reach the same conclusions).
func TestCCBenchMCCache(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	dir := t.TempDir()
	out1, code := cmdtest.Run(t, bin, 5*time.Minute, "-exp", "MC", "-quick", "-cache", dir)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out1)
	}
	if !strings.Contains(out1, "All checked claims hold.") {
		t.Fatalf("MC did not confirm its claims:\n%s", out1)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no verdicts persisted in %s (%v)", dir, err)
	}
	out2, code := cmdtest.Run(t, bin, 2*time.Minute, "-exp", "MC", "-quick", "-cache", dir)
	if code != 0 {
		t.Fatalf("cached rerun: exit %d:\n%s", code, out2)
	}
	if out1 != out2 {
		t.Fatalf("cached MC output differs:\n%s\nvs\n%s", out1, out2)
	}
}
