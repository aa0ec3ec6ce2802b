package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cmdtest"
	"repro/internal/store"
)

// TestCCCheckExhaustiveClean is the CLI-level acceptance run: CC2 on a
// 3-committee ring, the full CC-layer fault space, all three daemon
// branching modes — zero violations, exit 0.
func TestCCCheckExhaustiveClean(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 5*time.Minute,
		"-alg", "cc2", "-topo", "ring:3", "-init", "cc-full")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"46656 inits",
		"/central:",
		"/synchronous:",
		"/all-subsets:",
		"0 violations",
		"RESULT: all checks passed",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "TRUNCATED") {
		t.Fatalf("acceptance run truncated:\n%s", out)
	}
}

// TestCCCheckMutationCaught: a deliberately broken guard must be caught
// and exit non-zero with a counterexample trace.
func TestCCCheckMutationCaught(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 2*time.Minute,
		"-alg", "cc2", "-topo", "ring:3", "-init", "legit", "-daemon", "central",
		"-mutate", "leave-early", "-traces", "1")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	for _, want := range []string{"essential-discussion", "init:", "exec", "RESULT: VIOLATIONS FOUND"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// The same cell beside its unmutated twin in one campaign grid: the
	// violated cell fails the campaign (exit 1), the clean one verifies.
	out, code = cmdtest.Run(t, bin, 2*time.Minute, "-mode", "campaign",
		"-alg", "cc2", "-topo", "ring:3", "-init", "legit", "-daemon", "central", "-mutate", "none,leave-early")
	if code != 1 {
		t.Fatalf("campaign: exit %d, want 1:\n%s", code, out)
	}
	for _, want := range []string{"campaign: 2 cells", "1 verified", "1 violated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("campaign output missing %q:\n%s", want, out)
		}
	}
}

// TestCCCheckSymmetry: the token-ring baseline on a ring explores
// modulo rotation; the reduced run must reach the same verdict as the
// unreduced one with fewer states (the differential battery proves the
// counts orbit-consistent; here the CLI surface is exercised).
func TestCCCheckSymmetry(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 2*time.Minute,
		"-alg", "token-ring", "-topo", "ring:4", "-daemon", "central", "-symmetry")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "(mod symmetry)") {
		t.Fatalf("symmetry did not engage:\n%s", out)
	}
}

// TestCCCheckBoundedNeverSaysVerified: a truncated run reports
// "bounded" and must not claim a verification.
func TestCCCheckBoundedNeverSaysVerified(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 2*time.Minute,
		"-alg", "cc2", "-topo", "ring:3", "-init", "cc", "-daemon", "central", "-max-states", "500")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "bounded") {
		t.Fatalf("truncated run does not say bounded:\n%s", out)
	}
	if strings.Contains(out, "verified") {
		t.Fatalf("truncated run claims verification:\n%s", out)
	}
}

// usageError is one bad command line and the message it must exit 2 with.
type usageError struct {
	args []string
	want string
}

// checkUsageErrors runs each bad command line and requires exit 2, the
// expected message and a pointer to the usage text.
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
		if !strings.Contains(out, "usage") {
			t.Fatalf("%v: no usage pointer:\n%s", tc.args, out)
		}
	}
}

func TestCCCheckFlagErrors(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	checkUsageErrors(t, bin, []usageError{
		{[]string{"-alg", "nope"}, "unknown algorithm"},
		{[]string{"-mode", "nope"}, "unknown mode"},
		{[]string{"-init", "nope"}, "unknown init mode"},
		{[]string{"-daemon", "nope"}, "unknown daemon mode"},
		{[]string{"-daemon", "centrall"}, "unknown daemon mode"},
		{[]string{"-mutate", "nope"}, "unknown mutation"},
		{[]string{"-mode", "random"}, "unknown mode"},
		{[]string{"-alg", "dining", "-mutate", "leave-early"}, "-mutate applies to the CC algorithms"},
		{[]string{"-alg", "cc2", "-topo", "ring:3", "-symmetry"}, "declares no automorphisms"},
		{[]string{"-alg", "dining", "-topo", "ring:3", "-symmetry"}, "declares no automorphisms"},
		// Flag-grammar values that used to crash or could silently
		// default must be clean usage errors.
		{[]string{"-topo", "ring:"}, "bad int"},
		{[]string{"-topo", "ring:0"}, "needs n >= 3"},
		{[]string{"-topo", "disjoint:0,1"}, "invalid topology"},
		{[]string{"-topo", "blob:4"}, "unknown topology"},
		{[]string{"-topo", "ring:65"}, "65 processes (at most 64 processes, 64 committees and 64 bits per process"},
		{[]string{"-alg", "dining", "-init", "cc"}, "only -init legit"},
		{[]string{"positional"}, "unexpected arguments"},
		{[]string{"-daemon", "central,"}, "empty element"},
		{[]string{"-mode", "campaign", "-alg", "cc1,,cc2"}, "empty element"},
		{[]string{"-mode", "campaign", "-alg", "cc1,cc9"}, "unknown algorithm"},
		{[]string{"-mode", "campaign", "-daemon", "centrall"}, "unknown daemon mode"},
		{[]string{"-mode", "campaign", "-topo", "ring:3,ring:"}, "bad int"},
	})
}

// TestCCCheckPaperUnknownExperiment: -mode paper rejects an experiment
// name it does not know, and -exp/-quick outside -mode paper are usage
// errors rather than silently ignored.
func TestCCCheckPaperUnknownExperiment(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	checkUsageErrors(t, bin, []usageError{
		{[]string{"-mode", "paper", "-exp", "NOPE"}, "unknown experiment"},
		{[]string{"-mode", "paper", "-exp", "T2,"}, "unknown experiment"},
		{[]string{"-exp", "T2"}, "-exp and -quick apply to -mode paper only"},
		{[]string{"-mode", "campaign", "-quick"}, "-exp and -quick apply to -mode paper only"},
	})
}

// TestCCCheckCacheRoundTrip: -cache persists the verdict; the second
// run serves it (marked) with the same summary line.
func TestCCCheckCacheRoundTrip(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	dir := t.TempDir()
	args := []string{"-alg", "cc2", "-topo", "ring:3", "-init", "legit", "-daemon", "central", "-cache", dir}
	out1, code := cmdtest.Run(t, bin, 2*time.Minute, args...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out1)
	}
	if strings.Contains(out1, "[cache hit]") {
		t.Fatalf("first run claims a cache hit:\n%s", out1)
	}
	out2, code := cmdtest.Run(t, bin, 2*time.Minute, args...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out2)
	}
	if !strings.Contains(out2, "[cache hit]") {
		t.Fatalf("second run not served from the cache:\n%s", out2)
	}
	if strings.ReplaceAll(out2, "  [cache hit]", "") != out1 {
		t.Fatalf("cached output differs beyond the marker:\nfirst:\n%s\nsecond:\n%s", out1, out2)
	}
}

// TestCCCheckCampaignMode: the comma-list grammar fans a grid, streams
// per-cell progress, and a repeated run is 100%% cache hits.
func TestCCCheckCampaignMode(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	dir := t.TempDir()
	args := []string{"-mode", "campaign", "-alg", "cc1,cc2", "-topo", "ring:3",
		"-daemon", "central,sync", "-init", "legit", "-cache", dir, "-j", "4"}
	out, code := cmdtest.Run(t, bin, 3*time.Minute, args...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"campaign: 4 cells", "[4/4]", "4 verified", "(0 cache hits, 4 explored)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	out2, code := cmdtest.Run(t, bin, 2*time.Minute, args...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out2)
	}
	if !strings.Contains(out2, "(4 cache hits, 0 explored)") {
		t.Fatalf("repeat run not fully cached:\n%s", out2)
	}
}

// TestCCCheckExhaustiveCampaignParity: exhaustive mode and a one-row
// campaign run the same cell lifecycle, so they leave byte-identical
// store entries — and each serves the other's from the cache.
func TestCCCheckExhaustiveCampaignParity(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	cell := []string{"-alg", "cc2", "-topo", "ring:3", "-init", "legit", "-daemon", "central"}
	entry := func(mode, dir string) (name, data string) {
		t.Helper()
		args := append([]string{"-mode", mode, "-cache", dir}, cell...)
		if out, code := cmdtest.Run(t, bin, 2*time.Minute, args...); code != 0 {
			t.Fatalf("-mode %s: exit %d:\n%s", mode, code, out)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
		if err != nil || len(paths) != 1 {
			t.Fatalf("-mode %s left %d entries (%v), want 1", mode, len(paths), err)
		}
		raw, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		return filepath.Base(paths[0]), string(raw)
	}
	exhDir, campDir := t.TempDir(), t.TempDir()
	exhName, exhData := entry("exhaustive", exhDir)
	campName, campData := entry("campaign", campDir)
	if exhName != campName || exhData != campData {
		t.Fatalf("entries differ between the modes:\nexhaustive %s: %s\ncampaign   %s: %s", exhName, exhData, campName, campData)
	}
	out, code := cmdtest.Run(t, bin, 2*time.Minute, append([]string{"-mode", "campaign", "-cache", exhDir}, cell...)...)
	if code != 0 || !strings.Contains(out, "(1 cache hits, 0 explored)") {
		t.Fatalf("campaign did not hit the exhaustive run's entry (exit %d):\n%s", code, out)
	}
	out, code = cmdtest.Run(t, bin, 2*time.Minute, append([]string{"-cache", campDir}, cell...)...)
	if code != 0 || !strings.Contains(out, "[cache hit]") {
		t.Fatalf("exhaustive did not hit the campaign's entry (exit %d):\n%s", code, out)
	}
}

// TestCCCheckPaperList: -exp list prints the experiment registry.
func TestCCCheckPaperList(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, time.Minute, "-mode", "paper", "-exp", "list")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, id := range []string{"T2", "T3", "T45", "SNAP", "F3", "ABL"} {
		if !strings.Contains(out, id) {
			t.Fatalf("experiment %s missing from -exp list:\n%s", id, out)
		}
	}
}

func TestCCCheckPaperSingleExperimentQuick(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 3*time.Minute, "-mode", "paper", "-exp", "F3", "-quick")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "## F3") || !strings.Contains(out, "All checked claims hold.") {
		t.Fatalf("F3 did not confirm its claims:\n%s", out)
	}
}

// TestCCCheckPaperMCCache: -cache routes the MC experiment's exhaustive
// cells through the shared verdict store — the second run serves every
// cell from cache (and must reach the same conclusions).
func TestCCCheckPaperMCCache(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	dir := t.TempDir()
	args := []string{"-mode", "paper", "-exp", "MC", "-quick", "-cache", dir}
	out1, code := cmdtest.Run(t, bin, 5*time.Minute, args...)
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
	out2, code := cmdtest.Run(t, bin, 2*time.Minute, args...)
	if code != 0 {
		t.Fatalf("cached rerun: exit %d:\n%s", code, out2)
	}
	if out1 != out2 {
		t.Fatalf("cached MC output differs:\n%s\nvs\n%s", out1, out2)
	}
}

// TestCCCheckPaperHeldLogCache: a paper-suite cache that cannot be
// opened is a classified I/O failure (exit 4 naming the lock), not a
// refuted paper claim.
func TestCCCheckPaperHeldLogCache(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	dir := t.TempDir()
	held, err := store.OpenLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	out, code := cmdtest.Run(t, bin, time.Minute, "-mode", "paper", "-exp", "MC", "-quick", "-cache", dir)
	lock := filepath.Join(dir, "LOCK")
	if code != 4 || !strings.Contains(out, lock) || !strings.Contains(out, "another process holds this log cache") {
		t.Fatalf("paper mode on a held log cache: exit %d, want 4 naming %s:\n%s", code, lock, out)
	}
	if strings.Contains(out, "FAILED CLAIMS") {
		t.Fatalf("an unopenable cache read as a failed claim:\n%s", out)
	}
}
