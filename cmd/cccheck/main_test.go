package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cmdtest"
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

func TestCCCheckRandomHarness(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	out, code := cmdtest.Run(t, bin, 3*time.Minute,
		"-mode", "random", "-alg", "cc2", "-runs", "6", "-steps", "800")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "6 random scenarios") || !strings.Contains(out, "0 violations") {
		t.Fatalf("unexpected harness output:\n%s", out)
	}
}

func TestCCCheckFlagErrors(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-alg", "nope"}, "unknown algorithm"},
		{[]string{"-mode", "nope"}, "unknown mode"},
		{[]string{"-init", "nope"}, "unknown init mode"},
		{[]string{"-daemon", "nope"}, "unknown daemon mode"},
		{[]string{"-daemon", "centrall"}, "unknown daemon mode"},
		{[]string{"-mutate", "nope"}, "unknown mutation"},
		{[]string{"-mode", "random", "-alg", "dining"}, "random mode supports the CC algorithms"},
		{[]string{"-alg", "dining", "-mutate", "leave-early"}, "-mutate applies to the CC algorithms"},
		{[]string{"-alg", "cc2", "-topo", "ring:3", "-symmetry"}, "declares no automorphisms"},
		{[]string{"-alg", "dining", "-topo", "ring:3", "-symmetry"}, "declares no automorphisms"},
		// Flag-grammar values that used to crash or could silently
		// default must be clean usage errors.
		{[]string{"-topo", "ring:"}, "bad int"},
		{[]string{"-topo", "ring:0"}, "needs n >= 3"},
		{[]string{"-topo", "disjoint:0,1"}, "invalid topology"},
		{[]string{"-topo", "blob:4"}, "unknown topology"},
		{[]string{"-alg", "dining", "-init", "cc"}, "only -init legit"},
		{[]string{"positional"}, "unexpected arguments"},
		{[]string{"-daemon", "central,"}, "empty element"},
		{[]string{"-mode", "campaign", "-alg", "cc1,,cc2"}, "empty element"},
		{[]string{"-mode", "campaign", "-alg", "cc1,cc9"}, "unknown algorithm"},
		{[]string{"-mode", "campaign", "-daemon", "centrall"}, "unknown daemon mode"},
		{[]string{"-mode", "campaign", "-topo", "ring:3,ring:"}, "bad int"},
		{[]string{"-campaign-json", "/nonexistent/spec.json", "-mode", "campaign"}, "no such file"},
		{[]string{"-mode", "campaign", "-campaign-json", "x.json", "-alg", "cc1"}, "drop -alg"},
		{[]string{"-mode", "campaign", "-campaign-json", "x.json", "-max-states", "5"}, "drop -max-states"},
		{[]string{"-campaign-json", "x.json"}, "-mode campaign only"},
	} {
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

// TestCCCheckCampaignJSON: the grid round-trips through a JSON spec
// file, and a violated cell exits 1.
func TestCCCheckCampaignJSON(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	spec := `{"algs":["cc2"],"topos":["ring:3"],"daemons":["central"],"inits":["legit"],"mutations":["none","leave-early"]}`
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := cmdtest.Run(t, bin, 3*time.Minute, "-mode", "campaign", "-campaign-json", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (mutated cell must violate):\n%s", code, out)
	}
	for _, want := range []string{"campaign: 2 cells", "1 verified", "1 violated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// A malformed spec file is a usage error.
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"algs": ["cc2"], "nope": 1}`), 0o644)
	out, code = cmdtest.Run(t, bin, time.Minute, "-mode", "campaign", "-campaign-json", bad)
	if code != 2 || !strings.Contains(out, "unknown field") {
		t.Fatalf("bad spec file: exit %d:\n%s", code, out)
	}
}
