package explore

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// FuzzCheckpointDecode: readSnapshot over arbitrary bytes — seeded
// with a real engine-written snapshot plus truncations and bit flips —
// must either reject with an error or return a snapshot whose every
// invariant holds. Never a panic, and never a silent acceptance of an
// inconsistent resume state: a checkpoint that decodes wrong would
// make the engine resume into a different (possibly wrong) verdict,
// which is the one failure mode the whole durable-I/O layer promises
// away (corrupt artifacts classify as "no checkpoint", the run
// restarts fresh).
func FuzzCheckpointDecode(f *testing.F) {
	factory, err := Baseline(baseline.TokenRing, hypergraph.CommitteeRing(3), 1)
	if err != nil {
		f.Fatal(err)
	}
	// MaxBranch and MaxViolations are pinned to their defaulted values:
	// optionsHash sees post-default options, and this hash is computed
	// outside the engine. The state bound is kept small on purpose —
	// the fuzz engine mutates whole inputs, and a multi-KB seed blob is
	// the difference between thousands of execs per second and single
	// digits.
	opts := Options{
		Mode: sim.SelectCentral, MaxStates: 120, MaxBranch: 1 << 16,
		MaxViolations: 5, Workers: 1, CheckpointEvery: 25,
	}
	ck := &memCheckpointer{}
	opts.Checkpoint = ck
	if _, err := ExploreCtx(context.Background(), factory, opts); err != nil {
		f.Fatal(err)
	}
	blob := ck.data
	if len(blob) == 0 {
		f.Fatal("the exploration wrote no periodic checkpoint to seed from")
	}
	m0 := factory()
	words := m0.Codec.Words
	// The identity the engine would demand on resume: decode succeeds
	// only for blobs claiming this exact (model, options) tuple.
	wantHash := optionsHash(m0.Name, words, m0.Prog.NumProcs, &opts)

	f.Add(blob)
	for _, cut := range []int{0, 1, 7, 8, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:cut])
	}
	for _, at := range []int{8, 40, len(blob) / 3, len(blob) - 9} {
		mut := append([]byte(nil), blob...)
		mut[at] ^= 0x40
		f.Add(mut)
	}
	f.Add(append(append([]byte(nil), blob...), blob...)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		vs := NewVisited(words)
		defer vs.Close()
		snap, err := readSnapshot(bytes.NewReader(data), wantHash, words, vs)
		if err != nil {
			return // rejected = restart fresh: always a safe outcome
		}
		// Accepted: the snapshot must be a state the engine can resume
		// from without reading out of bounds or diverging.
		if snap.hash != wantHash {
			t.Fatal("accepted a snapshot for a different (model, options) identity")
		}
		if snap.words != words {
			t.Fatalf("accepted word width %d, want %d", snap.words, words)
		}
		nstates := snap.res.States
		if nstates != vs.States() {
			t.Fatalf("snapshot claims %d states but restored %d into the visited set", nstates, vs.States())
		}
		if len(snap.parentOf) != nstates || len(snap.selOf) != nstates {
			t.Fatalf("trace arrays (%d parents, %d selections) do not cover %d states",
				len(snap.parentOf), len(snap.selOf), nstates)
		}
		for _, id := range snap.frontier {
			if id < 0 || int(id) >= nstates {
				t.Fatalf("frontier id %d outside [0,%d)", id, nstates)
			}
		}
		for i, p := range snap.parentOf {
			if p < -1 || int(p) >= nstates {
				t.Fatalf("parentOf[%d] = %d outside [-1,%d)", i, p, nstates)
			}
		}
		if snap.res.Inits < 0 || snap.res.Inits > nstates {
			t.Fatalf("inits %d outside [0,%d]", snap.res.Inits, nstates)
		}
		if snap.depth < 0 || snap.res.Depth < 0 || snap.res.Transitions < 0 {
			t.Fatalf("negative counters: depth %d/%d transitions %d", snap.depth, snap.res.Depth, snap.res.Transitions)
		}
	})
}
