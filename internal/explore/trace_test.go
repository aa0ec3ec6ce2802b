package explore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// coldKeys is the local backend with a Keys that counts the trace ids
// it reads back from the spilled arena tail.
type coldKeys[S sim.Cloneable[S]] struct {
	*localBackend[S]
	cold int
}

func (c *coldKeys[S]) Keys(ids []int32) ([][]uint64, error) {
	for _, id := range ids {
		if id < c.vs.baseID {
			c.cold++
		}
	}
	return c.localBackend.Keys(ids)
}

// exploreCountingCold is ExploreCtx without a checkpoint, reporting
// how many trace keys came off the spilled arena.
func exploreCountingCold[S sim.Cloneable[S]](t *testing.T, factory func() *Model[S], opts Options) (*Result, int) {
	t.Helper()
	b := newLocalBackend(factory, opts)
	defer b.vs.Close()
	c := &coldKeys[S]{localBackend: b}
	if err := b.run.run(context.Background(), c, false); err != nil {
		t.Fatal(err)
	}
	return b.run.res, c.cold
}

// traceGoldenCells are violating cells whose counterexamples exercise
// every way a trace step is found: multi-process selections, symmetry
// representatives, a branch cap and a spilled arena. Each returns its
// Result and the trace keys read from the spilled arena.
var traceGoldenCells = []struct {
	name string
	run  func(t *testing.T) (*Result, int)
}{
	{"cc2-ring3-legit-all-subsets-leave-early", func(t *testing.T) (*Result, int) {
		f := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitLegit, Mutation: MutationLeaveEarly})
		return exploreCountingCold(t, f, Options{Mode: sim.SelectAllSubsets, CheckDeadlock: true, CheckClosure: true, Workers: 2})
	}},
	{"token-ring-ring3-all-subsets-symmetry", func(t *testing.T) (*Result, int) {
		f, err := Baseline(baseline.TokenRing, hypergraph.CommitteeRing(3), 1)
		if err != nil {
			t.Fatal(err)
		}
		return exploreCountingCold(t, f, Options{Mode: sim.SelectAllSubsets, CheckDeadlock: true, Symmetry: true, Workers: 2})
	}},
	{"cc1-star4-legit-all-subsets-maxbranch5-leave-early", func(t *testing.T) (*Result, int) {
		f := mustCC(t, core.CC1, hypergraph.Star(4), CCOptions{Init: InitLegit, Mutation: MutationLeaveEarly})
		return exploreCountingCold(t, f, Options{Mode: sim.SelectAllSubsets, MaxBranch: 5, CheckDeadlock: true, CheckClosure: true})
	}},
	{"dining-ring4-central-64k", func(t *testing.T) (*Result, int) {
		f, err := Baseline(baseline.Dining, hypergraph.CommitteeRing(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		return exploreCountingCold(t, f, Options{Mode: sim.SelectCentral, CheckDeadlock: true, MaxViolations: 2,
			Workers: 3, MemBudget: 64 << 10, SpillDir: t.TempDir()})
	}},
}

// TestTraceGolden pins the Result JSON (StateBytes zeroed) of the
// violating cells byte for byte, counterexample traces and their
// selections included. UPDATE_TRACE_GOLDEN=1 rewrites the pins.
func TestTraceGolden(t *testing.T) {
	for _, c := range traceGoldenCells {
		t.Run(c.name, func(t *testing.T) {
			res, cold := c.run(t)
			if res.Ok() {
				t.Fatalf("cell found no violation: %s", res.Summary())
			}
			if c.name == "dining-ring4-central-64k" && cold == 0 {
				t.Fatal("no trace key was read from the spilled arena")
			}
			got := append(normJSON(t, res), '\n')
			path := filepath.Join("testdata", "trace_"+c.name+".json")
			if os.Getenv("UPDATE_TRACE_GOLDEN") == "1" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_TRACE_GOLDEN=1 to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("result drifted from %s:\n got %s\nwant %s", path, got, want)
			}
		})
	}
}

// TestDoctoredTraceLinkFailsLoudly: a trace link is only a parent id, so
// a wrong one shows only when the step's selection is re-derived. Taken
// through a restored snapshot (checksum recomputed, so the file is
// accepted), a link to a state of the right layer that has no
// transition to the child, and a link to the state itself, must each
// fail the run with an internal error naming the ids — never print a
// trace, never hang.
func TestDoctoredTraceLinkFailsLoudly(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitLegit, Mutation: MutationLeaveEarly})
	opts := Options{Mode: sim.SelectAllSubsets, CheckDeadlock: true, CheckClosure: true, Workers: 1}
	clean := Explore(factory, opts)
	if clean.Ok() {
		t.Fatal("the mutated cell found no violation")
	}
	viol := clean.Violations[0]
	layer := viol.Depth - 1 // the violation is a transition out of this layer

	// The snapshot taken just before the violating layer is expanded.
	ck := &memCheckpointer{record: true}
	opts.CheckpointEvery = 1
	if _, err := ExploreCtx(context.Background(), factory, withCheckpoint(opts, ck)); err != nil {
		t.Fatal(err)
	}
	m := factory()
	words := m.Codec.Words
	def := opts.Defaulted()
	hash := optionsHash(m.Name, words, m.Prog.NumProcs, &def)
	var blob []byte
	for _, b := range ck.history {
		vs := NewVisited(words)
		snap, err := readSnapshot(bytes.NewReader(b), hash, words, vs)
		vs.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.depth == layer && snap.done == 0 {
			blob = b
		}
	}
	if blob == nil {
		t.Fatalf("no snapshot at the start of layer %d", layer)
	}

	for _, tc := range []struct {
		name   string
		parent func(vs *Visited, snap *snapshot, id int32) int32
		want   string
	}{
		{"not-a-predecessor", func(vs *Visited, snap *snapshot, id int32) int32 {
			ws := newWorkerState(factory(), &def)
			for q := range int32(snap.res.States) {
				if q != snap.links.At(int(id)) && linkDepth(&snap.links, q) == layer-1 && ws.selectionTo(vs.Key(q), vs.Key(id)) == nil {
					return q
				}
			}
			t.Fatal("every state of the parent layer leads to the violating state")
			return 0
		}, "no selection leads from state %[2]d to state %[1]d"},
		{"self", func(_ *Visited, _ *snapshot, id int32) int32 { return id }, "trace links of state %[1]d (layer %[3]d) run past layer 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs := NewVisited(words)
			defer vs.Close()
			snap, err := readSnapshot(bytes.NewReader(blob), hash, words, vs)
			if err != nil {
				t.Fatal(err)
			}
			// The violating state: the next-to-last step of the trace.
			key := viol.Trace[len(viol.Trace)-2].Key
			id := vs.Probe(key, hashWords(key), ^uint64(0), -1, nil)
			if id < 0 {
				t.Fatal("the violating state is not in the snapshot")
			}
			parent := tc.parent(vs, snap, id)
			snap.links.Set(int(id), parent)
			var buf bytes.Buffer
			if err := writeSnapshot(&buf, snap, vs); err != nil {
				t.Fatal(err)
			}
			var stats RunStats
			o := withCheckpoint(opts, &memCheckpointer{data: buf.Bytes()})
			o.CheckpointEvery, o.Stats = 0, &stats
			res, err := ExploreCtx(context.Background(), factory, o)
			if stats.ResumedStates == 0 {
				t.Fatal("the doctored snapshot was not resumed")
			}
			want := fmt.Sprintf(tc.want, id, parent, layer)
			if err == nil || !strings.Contains(err.Error(), "internal error") || !strings.Contains(err.Error(), want) {
				t.Fatalf("resumed run returned %v (%d violations), want an internal error containing %q", err, len(res.Violations), want)
			}
		})
	}
}

// linkDepth is the layer of state id: its number of parent links.
func linkDepth(l *TraceLinks, id int32) int {
	d := 0
	for x := l.At(int(id)); x >= 0; x = l.At(int(x)) {
		d++
	}
	return d
}

// TestFrameVersionDrift: a frame from a build whose probe record still
// carried a selection (frame version 1) is refused as corrupt rather
// than mis-parsed, and probes nothing; the same record in the current
// layout is accepted.
func TestFrameVersionDrift(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitLegit})
	e, err := NewPeer(factory, Options{Mode: sim.SelectCentral}, PeerConfig{NShards: 1, Hosted: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	words := factory().Codec.Words
	frame := func(version byte, sel []byte) []byte {
		b := append(frameMagic[:], version, 0)
		b = binary.LittleEndian.AppendUint16(b, uint16(words))
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = append(b, recProbe)
		b = binary.LittleEndian.AppendUint32(b, 0)          // shard
		b = binary.LittleEndian.AppendUint64(b, 7)          // pos
		b = binary.LittleEndian.AppendUint32(b, ^uint32(0)) // parent −1
		if version == 1 {
			b = append(append(b, byte(len(sel))), sel...)
		}
		for w := range words {
			b = binary.LittleEndian.AppendUint64(b, uint64(w+1))
		}
		return b
	}
	err = e.Ingest(frame(1, []byte{0, 2}))
	if err == nil || chaos.Classify(err) != chaos.Corrupt || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version-1 frame: got %v (class %v), want a corrupt-frame error naming version 1", err, chaos.Classify(err))
	}
	if meta, err := e.PendMeta(0); err != nil || len(meta) != 0 {
		t.Fatalf("the refused frame left %d pending entries (%v)", len(meta), err)
	}
	if err := e.Ingest(frame(frameVersion, nil)); err != nil {
		t.Fatalf("current frame refused: %v", err)
	}
	if meta, err := e.PendMeta(0); err != nil || len(meta) != 1 || meta[0] != (PendMeta{Pos: 7, Parent: -1}) {
		t.Fatalf("current frame probed %v (%v), want one entry at pos 7", meta, err)
	}
}

// TestSelectionToCanonicalises pins trace re-derivation under symmetry
// reduction: a trace holds orbit representatives, so the selection to a
// step is the first whose successor reduces to the step's key, not one
// whose raw successor equals it. On disjoint:2,2 every init successor
// that is not its own representative is looked up by its representative.
func TestSelectionToCanonicalises(t *testing.T) {
	m := mustCC(t, core.CC2, hypergraph.DisjointCommittees(2, 2), CCOptions{Init: InitCC})()
	ws := newWorkerState(m, &Options{Mode: sim.SelectCentral, Symmetry: true})
	var sc sim.SuccScratch[core.State]
	from := make([]uint64, m.Codec.Words)
	raw := make([]uint64, m.Codec.Words)
	canonOf := func(cfg []core.State) []uint64 {
		m.Codec.Encode(raw, cfg)
		return copyWords(ws.canon(raw))
	}
	// firstTo is the selection selectionTo must return: the first, in
	// expansion order, whose successor reduces to to.
	firstTo := func(cfg []core.State, to []uint64) (first []int) {
		sim.SuccessorsBuf(m.Prog, cfg, sim.SelectCentral, nil, 0, &sc, func(sel []int, nxt []core.State) bool {
			if wordsEqual(canonOf(nxt), to) {
				first = copySel(sel)
			}
			return first == nil
		})
		return first
	}
	checked := 0
	m.Inits(func(cfg []core.State) bool {
		m.Codec.Encode(from, cfg)
		var tos [][]uint64
		sim.SuccessorsBuf(m.Prog, cfg, sim.SelectCentral, nil, 0, &sc, func(sel []int, nxt []core.State) bool {
			m.Codec.Encode(raw, nxt)
			if to := copyWords(ws.canon(raw)); !wordsEqual(raw, to) {
				tos = append(tos, to)
			}
			return true
		})
		for _, to := range tos {
			want := firstTo(cfg, to)
			if got := ws.selectionTo(from, to); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("selectionTo found %v, want %v: the first selection to the representative", got, want)
			}
			checked++
		}
		return checked < 200
	})
	if checked == 0 {
		t.Fatal("no init successor differs from its representative; the check is vacuous")
	}
}
