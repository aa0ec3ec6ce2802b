package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is the spread measure the benchmark's acceptance is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// runAA runs, for each workload, two interleaved sets of n runs of the
// same binary — every run its own process and its own seed — and
// prints per (metric, workload) both medians, their gap and the spread
// of all 2n values against the metric's bound. The exit status is
// non-zero when any gap or spread exceeds its bound: the bounds in
// BENCHMARK.json are only worth gating on if the code agrees with
// itself inside them.
func runAA(n int, seconds float64, only, scratch string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	status := 0
	fmt.Printf("%-15s %-17s %12s %12s %7s %7s %6s\n", "workload", "metric", "median A", "median B", "gap", "spread", "bound")
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", strconv.Itoa(i+1),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-scratch", scratch)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil || !rep.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: bad result line %q: %v\n", w.name, i, lines[len(lines)-1], err)
				return 1
			}
			for name, v := range rep.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			gap := (b - a) / a
			if gap < 0 {
				gap = -gap
			}
			all := append(slices.Clone(sets[0][d.Name]), sets[1][d.Name]...)
			q1, q3 := quartiles(all)
			spread := (q3 - q1) / median(all)
			verdict := ""
			// The set-up time's spread is reported, not gated; its medians are.
			if gap > d.Bound || d.Name != "setup_s" && spread > d.Bound {
				verdict = "  EXCEEDS BOUND"
				status = 1
			}
			fmt.Printf("%-15s %-17s %12.6g %12.6g %6.2f%% %6.2f%% %5.0f%%%s\n",
				w.name, d.Name, a, b, 100*gap, 100*spread, 100*d.Bound, verdict)
		}
	}
	return status
}
