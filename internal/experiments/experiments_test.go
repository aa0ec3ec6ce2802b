package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"ABL", "CONC", "F1", "F2", "F3", "F4", "MC", "SNAP", "T2", "T3", "T45", "T6", "T78", "TOKEN"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.What == "" {
			t.Fatalf("%s has no description", e.ID)
		}
	}
	if _, ok := Get("F1"); !ok {
		t.Fatal("Get(F1) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("Get(nope) should fail")
	}
}

// Every experiment must pass all its claims in quick mode: these are the
// actual reproduction assertions.
func TestAllExperimentsClaimsHold(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			res := e.RunFn(Config{Seed: 1, Quick: true})
			for _, f := range res.Failures {
				t.Errorf("claim failed: %s", f)
			}
			if len(res.Tables) == 0 {
				t.Error("experiment produced no tables")
			}
		})
	}
}

// TestMaximalConcurrencySeeds: T2 and CONC judge Definition 2 on the
// configuration a run freezes in. At these seeds a run passes through a
// transient Π = ∅ with a non-maximal set of meetings, and a check that
// stopped there failed the claim: figure 1 at inner seed 1001 holds
// meetings [3] at step 10, then committee 2 convenes and the run
// quiesces with [2 3]; ring 8 at inner seed 305 holds [3 6].
func TestMaximalConcurrencySeeds(t *testing.T) {
	for _, id := range []string{"T2", "CONC"} {
		e, _ := Get(id)
		for _, seed := range []int64{305, 1001, 1019} {
			res := e.RunFn(Config{Seed: seed, Quick: true})
			for _, f := range res.Failures {
				t.Errorf("%s seed %d: claim failed: %s", id, seed, f)
			}
		}
	}
}

// TestStarvedProfessorWaitsTheWholeRun: under Theorem 1's schedule CC1
// never lets professor 5 meet, so its waiting time (Definition 6) is
// the whole run, not 0 rounds.
func TestStarvedProfessorWaitsTheWholeRun(t *testing.T) {
	r := figure2Run(core.CC1, 1, 8000)
	if r.ProfMeetings[4] != 0 {
		t.Fatalf("professor 5 met %d times under the starvation schedule", r.ProfMeetings[4])
	}
	if w, rounds := r.MaxWaitRounds()[4], r.Engine.Rounds(); w < rounds || rounds == 0 {
		t.Fatalf("starved professor 5 waited %d rounds of %d", w, rounds)
	}
}

// TestQuickSuiteGolden: the rendered quick suite at seed 1, every
// experiment, is byte-identical to the output recorded in
// testdata/quick_seed1.md. Refactors of the runners and the tally must
// leave every table byte unchanged; a deliberate change to a table
// regenerates the file with
//
//	go run ./cmd/cccheck -mode paper -quick -seed 1 > internal/experiments/testdata/quick_seed1.md
func TestQuickSuiteGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_seed1.md")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	var got bytes.Buffer
	if _, err := RunAll(ids, Config{Seed: 1, Quick: true}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
	}
}

func TestRunRenders(t *testing.T) {
	var buf bytes.Buffer
	res, err := Run("F1", Config{Seed: 1, Quick: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("F1 failed: %v", res.Failures)
	}
	out := buf.String()
	for _, want := range []string{"## F1", "Hypergraph H", "Underlying network", "| {1,2}", "All checked claims hold."} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if _, err := Run("nope", Config{}, &buf); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "x", Note: "n", Header: []string{"a", "bb"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("longer", "v")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"### x", "| a ", "| 2.50 |", "| longer |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
