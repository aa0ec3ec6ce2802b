package cmdtest_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cmdtest"
)

// The worker-count contract, table-tested across the module: the two
// CLIs with a worker pool spell it -j, and ccserve's per-job width is
// -job-workers only (-jobs is its other axis).
func TestWorkerFlagAliases(t *testing.T) {
	for _, tc := range []struct {
		cmd      string
		args     []string
		wantExit int
		wantOut  string // substring of combined output
	}{
		// -j parses where it means something: each invocation reaches
		// the command's own validation (or succeeds).
		{"cccheck", []string{"-j", "2", "-mode", "paper", "-exp", "list"}, 0, "MC"},
		{"cccheck", []string{"-j", "2", "-mode", "query"}, 2, "-mode query needs -cache"},
		{"ccsim", []string{"-j", "2", "-topo", "bogus"}, 2, "bogus"},
		{"ccserve", []string{"-job-workers", "4"}, 2, "-cache DIR is required"},

		// Everywhere else a worker spelling fails loudly.
		{"ccserve", []string{"-j", "2"}, 2, "flag provided but not defined"},
		{"cccheck", []string{"-jobs-wide", "2"}, 2, "flag provided but not defined"},

		// Removed with the thing they configured: the -cache layout is
		// detected from the directory (only ccserve, which may own a
		// single-writer log cache, can still name one for a fresh
		// directory), and no command runs a distributed check.
		{"cccheck", []string{"-store-engine", "log"}, 2, "flag provided but not defined"},
		{"ccserve", []string{"-peers", "http://127.0.0.1:1"}, 2, "flag provided but not defined"},
		{"cccheck", []string{"-peers", "http://127.0.0.1:1"}, 2, "flag provided but not defined"},

		// Removed because nothing reached them: the random-scenario
		// harness is ccsim's (-runs, -steps, and scenario:N for -max-n),
		// a campaign grid's JSON form is POST /v1/campaigns, and the
		// check toggles had no workload, walkthrough or test.
		{"cccheck", []string{"-runs", "4"}, 2, "flag provided but not defined"},
		{"cccheck", []string{"-steps", "100"}, 2, "flag provided but not defined"},
		{"cccheck", []string{"-max-n", "8"}, 2, "flag provided but not defined"},
		{"cccheck", []string{"-campaign-json", "grid.json"}, 2, "flag provided but not defined"},
		{"cccheck", []string{"-no-closure"}, 2, "flag provided but not defined"},
		{"cccheck", []string{"-no-converge"}, 2, "flag provided but not defined"},
		{"cccheck", []string{"-no-deadlock"}, 2, "flag provided but not defined"},
	} {
		name := tc.cmd + " " + strings.Join(tc.args, " ")
		t.Run(name, func(t *testing.T) {
			bin := cmdtest.Build(t, "../../cmd/"+tc.cmd)
			out, code := cmdtest.Run(t, bin, time.Minute, tc.args...)
			if code != tc.wantExit {
				t.Fatalf("exit %d, want %d\noutput:\n%s", code, tc.wantExit, out)
			}
			if !strings.Contains(out, tc.wantOut) {
				t.Fatalf("output missing %q:\n%s", tc.wantOut, out)
			}
		})
	}
}
