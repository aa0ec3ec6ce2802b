package cmdtest_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cmdtest"
)

// The -j contract, table-tested across every CLI in the module: each
// binary accepts -j as the worker-count spelling, ccserve additionally
// keeps its historical -job-workers name, and giving both spellings
// different values is a usage error rather than a silent coin flip.
func TestWorkerFlagAliases(t *testing.T) {
	for _, tc := range []struct {
		cmd      string
		args     []string
		wantExit int
		wantOut  string // substring of combined output
	}{
		// -j parses on every CLI: each invocation reaches the command's
		// own validation (or succeeds), never "flag provided but not
		// defined".
		{"ccbench", []string{"-j", "2", "-list"}, 0, "MC"},
		{"cccheck", []string{"-j", "2", "-mode", "query"}, 2, "-mode query needs -cache"},
		{"ccserve", []string{"-j", "2"}, 2, "-cache DIR is required"},
		{"ccsim", []string{"-j", "2", "-topo", "bogus"}, 2, "bogus"},
		{"cctrace", []string{"-j", "2", "-topo", "bogus"}, 2, "bogus"},

		// ccserve: conflicting spellings are a usage error; agreeing
		// duplicates are accepted and parsing proceeds.
		{"ccserve", []string{"-job-workers", "2", "-j", "3"}, 2, "conflicting"},
		{"ccserve", []string{"-job-workers", "2", "-j", "2"}, 2, "-cache DIR is required"},
		{"ccserve", []string{"-job-workers", "4"}, 2, "-cache DIR is required"},

		// An unknown worker spelling still fails loudly everywhere.
		{"cccheck", []string{"-jobs-wide", "2"}, 2, "flag provided but not defined"},
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
