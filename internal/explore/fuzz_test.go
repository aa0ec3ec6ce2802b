package explore

import (
	"cmp"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// fuzzTopo derives a small fixed topology from a fuzz byte.
func fuzzTopo(b byte) *hypergraph.H {
	switch b % 5 {
	case 0:
		return hypergraph.CommitteeRing(3 + int(b/5)%3)
	case 1:
		return hypergraph.Star(3 + int(b/5)%3)
	case 2:
		return hypergraph.ChainOfTriples(2 + int(b/5)%2)
	case 3:
		return hypergraph.Figure1()
	default:
		return hypergraph.DisjointCommittees(2+int(b/5)%2, 2+int(b/5)%2)
	}
}

// FuzzCodecRoundTrip: the binary codecs must be exact inverses over
// random valid composed states — for the CC codec across all three
// variants (core.Alg.RandomState draws every field from its full
// domain, token layer included) and for the baseline codec across
// engine-reachable dining/token-ring states. State identity in the
// explorer is encoding equality, so any round-trip defect is a
// soundness bug, not a cosmetic one.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(1), byte(0), byte(1))
	f.Add(int64(42), byte(7), byte(2))
	f.Add(int64(-3), byte(11), byte(3))
	f.Fuzz(func(t *testing.T, seed int64, topoByte, variantByte byte) {
		h := fuzzTopo(topoByte)
		rng := rand.New(rand.NewSource(seed))

		// CC codec over fully random states.
		variant := []core.Variant{core.CC1, core.CC2, core.CC3}[variantByte%3]
		alg := core.New(variant, h, core.NewScripted(h.N()))
		layout := newCCLayout(alg)
		cfg := make([]core.State, h.N())
		for p := range cfg {
			cfg[p] = alg.RandomState(p, rng)
		}
		enc := make([]uint64, layout.words)
		layout.encode(enc, cfg)
		back := make([]core.State, h.N())
		layout.decode(back, enc)
		for p := range cfg {
			if cfg[p] != back[p] {
				t.Fatalf("CC round trip: process %d: %+v != %+v", p, cfg[p], back[p])
			}
		}
		enc2 := make([]uint64, layout.words)
		layout.encode(enc2, back)
		if !wordsEqual(enc, enc2) {
			t.Fatal("CC re-encoding differs")
		}
		// Patch-encoding a process into its own slot is the identity.
		for p := range cfg {
			patchWords(enc2, layout.procOff[p], layout.procBits[p], layout.encodeProc(cfg, p))
		}
		if !wordsEqual(enc, enc2) {
			t.Fatal("CC patch encoding diverges from full encoding")
		}

		// Baseline codec over engine-reachable states (BState's
		// per-neighbor vectors have no uniform random generator; a short
		// run under a random daemon covers the fork machinery).
		kind := baseline.Dining
		if variantByte%2 == 1 {
			kind = baseline.TokenRing
		}
		a := baseline.New(kind, h, 1+int(variantByte%3))
		bl := newBaseLayout(h, a.Disc, kind == baseline.Dining)
		eng := sim.NewEngine(a.Program(), sim.RandomSubset{P: 0.5}, seed)
		bEnc := make([]uint64, bl.words)
		bEnc2 := make([]uint64, bl.words)
		bBack := make([]baseline.BState, a.NumProcs())
		for i := 0; i < 24; i++ {
			bcfg := eng.Config()
			bl.encode(bEnc, bcfg)
			bl.decode(bBack, bEnc)
			if !reflect.DeepEqual(normalizeB(bcfg), normalizeB(bBack)) {
				t.Fatalf("baseline round trip diverged at step %d", i)
			}
			bl.encode(bEnc2, bBack)
			if !wordsEqual(bEnc, bEnc2) {
				t.Fatalf("baseline re-encoding differs at step %d", i)
			}
			for p := range bcfg {
				patchWords(bEnc2, bl.procOff[p], bl.procBits[p], bl.encodeProc(bcfg, p))
			}
			if !wordsEqual(bEnc, bEnc2) {
				t.Fatal("baseline patch encoding diverges from full encoding")
			}
			if eng.Step() == nil {
				break
			}
		}
	})
}

// FuzzBatchGuards: the columnar kernel's word-parallel guard
// evaluation must agree bit-for-bit with the per-state scalar walk
// (sim.EnabledOf over the same program) — on fully random
// configurations (every field from its whole domain, token layer
// included) and along a short reachable walk driven by the kernel's
// own Apply. A single wrong bit silently reshapes the explored graph,
// so this is a soundness target, not a robustness one. The simulator's
// entry, Kernel.Choose, is judged on the same configurations by a
// second kernel whose token-layer memo stays warm from call to call:
// first for a random subset of the processes, then for all of them, it
// must pick the guard walk's action. Between walk steps fault corrupts
// one TC field of a random process (fault%9: Lid, Dist, Parent, A, H,
// Vis, Des, C, or none), the change the memo must notice.
func FuzzBatchGuards(f *testing.F) {
	f.Add(int64(1), byte(0), byte(1), byte(8))
	f.Add(int64(99), byte(8), byte(2), byte(4))
	f.Add(int64(-7), byte(13), byte(0), byte(6))
	f.Add(int64(3), byte(3), byte(1), byte(0)) // leader ids on Figure 1 under CC2
	f.Fuzz(func(t *testing.T, seed int64, topoByte, variantByte, fault byte) {
		h := fuzzTopo(topoByte)
		variant := []core.Variant{core.CC1, core.CC2, core.CC3}[variantByte%3]
		alg, prog := newCCProg(variant, h)
		k := core.NewKernel(alg, prog)
		sk := core.NewKernel(alg, prog)
		// The generic kernel's cached actions are the guard walk's, -1
		// for disabled processes included.
		gk := sim.NewProgramKernel(prog)
		rng := rand.New(rand.NewSource(seed))

		n := h.N()
		cfg := make([]core.State, n)
		all := make([]int, n)
		for p := range all {
			all[p] = p
		}
		act := make([]int, n)
		var enabled, subset []int
		check := func(what string) uint64 {
			mask := k.Eval(cfg)
			enabled = sim.EnabledOf(prog, cfg, enabled[:0])
			var want uint64
			for _, p := range enabled {
				want |= 1 << uint(p)
			}
			if mask != want {
				t.Fatalf("%s: kernel mask %064b != scalar %064b (cfg %v)", what, mask, want, cfg)
			}
			gk.Eval(cfg)
			subset = subset[:0]
			for p := range all {
				if rng.Intn(2) == 0 {
					subset = append(subset, p)
				}
			}
			for _, procs := range [][]int{subset, all} {
				sk.Choose(cfg, procs, act)
				for _, p := range procs {
					if act[p] != gk.Action(p) {
						t.Fatalf("%s: Choose picks %d for process %d, guard walk %d (cfg %v)", what, act[p], p, gk.Action(p), cfg)
					}
				}
			}
			return mask
		}
		corrupt := func() {
			tc := &cfg[rng.Intn(n)].TC
			switch fault % 9 {
			case 0:
				tc.Lid = rng.Intn(2*n+2) - n
			case 1:
				tc.Dist = rng.Intn(n+2) - 1
			case 2:
				tc.Parent = rng.Intn(n+1) - 1
			case 3:
				tc.A = !tc.A
			case 4:
				tc.H ^= 1
			case 5:
				tc.Vis = rng.Intn(4) - 1
			case 6:
				tc.Des = rng.Intn(n+1) - 1
			case 7:
				tc.C ^= 1
			}
		}

		for round := 0; round < 8; round++ {
			for p := range cfg {
				cfg[p] = alg.RandomState(p, rng)
			}
			mask := check("random")
			// Reachable walk: apply one enabled process at a time with the
			// kernel's own Apply, re-judging the full guard vector after
			// every step, then once more after a TC fault.
			for step := 0; step < 6 && mask != 0; step++ {
				// Pick the (step mod popcount)-th enabled process.
				idx := step % bits.OnesCount64(mask)
				m := mask
				for ; idx > 0; idx-- {
					m &= m - 1
				}
				p := bits.TrailingZeros64(m)
				next := cfg[p].Clone()
				k.Apply(cfg, p, &next)
				cfg[p] = next
				mask = check("walk")
				corrupt()
				mask = check("fault")
			}
		}
	})
}

// FuzzBatchDecode: successor keys assembled the batch way — decode the
// parent key, apply each selected process once, patch its pre-encoded
// block payload into the parent words — must equal the scalar codec's
// full encoding of the merged successor configuration, and decode back
// to it, for every selection mask. Key equality IS state identity in
// the explorer, so a single divergent bit forks or merges states.
func FuzzBatchDecode(f *testing.F) {
	f.Add(int64(1), byte(0), byte(1))
	f.Add(int64(5), byte(6), byte(2))
	f.Add(int64(-11), byte(19), byte(0))
	f.Fuzz(func(t *testing.T, seed int64, topoByte, variantByte byte) {
		h := fuzzTopo(topoByte)
		variant := []core.Variant{core.CC1, core.CC2, core.CC3}[variantByte%3]
		alg, prog := newCCProg(variant, h)
		k := core.NewKernel(alg, prog)
		// Independent program instance for the scalar comparison: the
		// generic kernel applies guard/action closures one process at a
		// time, sharing nothing with the columnar kernel.
		_, prog2 := newCCProg(variant, h)
		gk := sim.NewProgramKernel(prog2)
		layout := newCCLayout(alg)
		rng := rand.New(rand.NewSource(seed))

		n := h.N()
		cfg := make([]core.State, n)
		cfg2 := make([]core.State, n)
		post := make([]core.State, n)
		merged := make([]core.State, n)
		parent := make([]uint64, layout.words)
		patched := make([]uint64, layout.words)
		full := make([]uint64, layout.words)
		payload := make([]uint64, n)
		back := make([]core.State, n)

		for round := 0; round < 8; round++ {
			for p := range cfg {
				cfg[p] = alg.RandomState(p, rng)
			}
			layout.encode(parent, cfg)
			layout.decode(cfg2, parent) // the batch path expands decoded keys

			enabledMask := k.Eval(cfg2)
			if gm := gk.Eval(cfg2); gm != enabledMask {
				t.Fatalf("kernel masks diverge: columnar %064b vs generic %064b", enabledMask, gm)
			}
			for rest := enabledMask; rest != 0; rest &= rest - 1 {
				p := bits.TrailingZeros64(rest)
				post[p] = cfg2[p].Clone()
				k.Apply(cfg2, p, &post[p])
				// The generic kernel must produce the identical post state.
				gp := cfg2[p].Clone()
				gk.Apply(cfg2, p, &gp)
				if post[p] != gp {
					t.Fatalf("Apply diverges at p=%d: columnar %+v vs generic %+v", p, post[p], gp)
				}
				payload[p] = layout.encodeProc(post, p)
			}

			// Every selection mask on small enabled sets, random masks on
			// large ones.
			en := bits.OnesCount64(enabledMask)
			masks := make([]uint64, 0, 16)
			if en <= 4 {
				// all subsets of the enabled mask
				sub := uint64(0)
				for {
					masks = append(masks, sub)
					sub = (sub - enabledMask) & enabledMask
					if sub == 0 {
						break
					}
				}
			} else {
				for i := 0; i < 12; i++ {
					masks = append(masks, rng.Uint64()&enabledMask)
				}
			}
			for _, selMask := range masks {
				copy(patched, parent)
				copy(merged, cfg2)
				for sm := selMask; sm != 0; sm &= sm - 1 {
					p := bits.TrailingZeros64(sm)
					patchWords(patched, layout.procOff[p], layout.procBits[p], payload[p])
					merged[p] = post[p]
				}
				layout.encode(full, merged)
				if !wordsEqual(patched, full) {
					t.Fatalf("sel %064b: patched key %x != full encoding %x", selMask, patched, full)
				}
				layout.decode(back, patched)
				for p := range merged {
					if back[p] != merged[p] {
						t.Fatalf("sel %064b: decode(patched) diverges at p=%d: %+v vs %+v",
							selMask, p, back[p], merged[p])
					}
				}
			}
		}
	})
}

// normalizeB maps empty fork vectors to nil so DeepEqual compares
// decoded states by value (the codec may materialize zero-length
// slices where the engine holds nil).
func normalizeB(cfg []baseline.BState) []baseline.BState {
	out := append([]baseline.BState(nil), cfg...)
	for i := range out {
		if len(out[i].Fork) == 0 {
			out[i].Fork, out[i].Dirty, out[i].Asked = nil, nil, nil
		}
	}
	return out
}

// FuzzVisitedSet: the concurrent sharded set must be linearizable
// against a map oracle under the explorer's phase discipline —
// concurrent probes, each by its stripe's owner (the rest buffered for
// the owner and drained after a barrier, as emit does), then the owner
// commit. The oracle resolves
// duplicate proposals by minimum position, sorts each layer's pending
// entries by it, promotes the first room and drops the rest, exactly
// the determinism contract the BFS relies on; the commit splits the
// stripes over a fuzz-chosen owner count (1–8) and must match it in
// ids, arena bytes, trace links and tombstones. room is the layer's
// share of a fuzz-chosen state bound (64 per unit, 0 = none), as the
// layer driver computes it. Each input byte proposes fan keys, so a few
// distinct bytes overfill the 64-slot stripes and force them to grow;
// odd probing goroutines walk their items backwards, so a byte repeated
// in their share re-proposes its keys from a smaller position after
// the stripes grew. A second set runs the same layers with its arena
// spilling and Housekeep re-sharding after every layer, so stripes grow
// and re-shard over cold slots too. Both answer to the same oracle.
func FuzzVisitedSet(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(3), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 1, 1, 2, 255, 254, 3, 3, 3, 9}, uint8(7), uint8(2), uint8(0))
	f.Add([]byte{16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 1, 3, 5, 16}, uint8(2), uint8(1), uint8(0))
	// A min-merge after a stripe grew: goroutine 1 proposes byte 99 at
	// item 29, then six more bytes' keys (48 per stripe: every stripe
	// grows), then byte 99 again at item 1.
	f.Add([]byte{
		0, 99, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
		16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 99, 30, 31,
	}, uint8(0), uint8(3), uint8(0))
	// A bound that falls between two owners' entries: one layer of
	// 1,536 fresh keys, a 960-state bound and three owners; rank 959,
	// key {41, 447}, lives in owner 1's stripes and rank 960, key
	// {41, 448}, in owner 0's.
	f.Add([]byte{40, 41, 42}, uint8(0), uint8(2), uint8(1000/64))
	// Past 64·64 promoted states the spilled set re-shards (the first
	// and last seeds get there; the first two grow stripes over cold
	// slots on the way).
	old := reshardPerShard
	reshardPerShard = 64
	defer func() { reshardPerShard = old }()
	f.Fuzz(func(t *testing.T, data []byte, layersByte, ownersByte, boundByte uint8) {
		const words, fan = 2, 512
		data = data[:min(len(data), 64)] // at most 64·fan probes per layer
		owners := 1 + int(ownersByte%8)
		maxStates := 64 * int(boundByte)

		keyOf := func(b byte, j int) [words]uint64 { return [words]uint64{uint64(b), uint64(j)} }
		spilled := NewVisited(words)
		spilled.EnableArenaSpill(t.TempDir(), 1<<10)
		defer spilled.Close()
		sets := []*Visited{NewVisited(words), spilled}
		links := make([]TraceLinks, len(sets))
		type oracleEntry struct {
			pos    uint64
			parent int32
			id     int32 // -1 while pending
		}
		oracle := map[[words]uint64]*oracleEntry{}
		nextID := int32(0)

		layers := 1 + int(layersByte%4)
		chunk := len(data)/layers + 1
		for layer := 0; layer < layers; layer++ {
			lo := layer * chunk
			if lo >= len(data) {
				break
			}
			hi := min(lo+chunk, len(data))
			ops := data[lo:hi]
			parentOf := func(b byte) int32 { return int32(int(b)%int(nextID+1)) - 1 }
			posOf := func(i, j int) uint64 { return uint64(layer)<<32 | uint64(i*fan+j) }

			// Oracle (serial, min-pos merge over this layer's proposals).
			var fresh [][words]uint64
			for i, b := range ops {
				for j := 0; j < fan; j++ {
					key, pos := keyOf(b, j), posOf(i, j)
					if e, ok := oracle[key]; ok {
						if e.id < 0 && pos < e.pos {
							e.pos, e.parent = pos, parentOf(b)
						}
						continue
					}
					oracle[key] = &oracleEntry{pos: pos, parent: parentOf(b), id: -1}
					fresh = append(fresh, key)
				}
			}
			slices.SortFunc(fresh, func(a, b [words]uint64) int { return cmp.Compare(oracle[a].pos, oracle[b].pos) })
			room := -1
			if maxStates > 0 {
				room = max(maxStates-int(nextID), 0)
			}
			kept := len(fresh)
			if room >= 0 {
				kept = min(kept, room)
			}

			// Concurrent probes under emit's discipline: 4 goroutines per
			// set each own a range of stripes, probe the keys of their own
			// and buffer the rest for their owners, who drain them after
			// the barrier; odd goroutines walk their items backwards.
			const probers = 4
			for _, vs := range sets {
				bufs := make([][probers]routeBuf, probers) // [writer][owner]
				each := func(body func(g int)) {
					var wg sync.WaitGroup
					for g := 0; g < probers; g++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							body(g)
						}()
					}
					wg.Wait()
				}
				each(func(g int) {
					var items []int
					for i := g; i < len(ops); i += probers {
						items = append(items, i)
					}
					if g%2 == 1 {
						slices.Reverse(items)
					}
					for _, i := range items {
						b := ops[i]
						for j := 0; j < fan; j++ {
							key := keyOf(b, j)
							hash := hashWords(key[:])
							if o := vs.owner(hash, probers); o != g {
								bufs[g][o].add(key[:], hash, posOf(i, j), parentOf(b))
								continue
							}
							vs.probeStripe(&vs.shards[hash&vs.smask], key[:], hash, posOf(i, j), parentOf(b), deferCold)
						}
					}
				})
				each(func(o int) {
					for g := range bufs {
						bufs[g][o].drainInto(vs)
					}
				})
				// A proposal deferred on a spilled tag match is settled
				// before the census, as the commit settles it first.
				if err := vs.settle(); err != nil {
					t.Fatal(err)
				}
			}

			// The owner commit: every pending entry's slot must end up
			// holding its oracle id, or a tombstone past the bound.
			layerFrom := nextID
			for si, vs := range sets {
				type slotAt struct{ shard, slot int32 }
				slotOf := map[[words]uint64]slotAt{}
				for s := range vs.shards {
					for _, e := range vs.shards[s].pend {
						slotOf[[words]uint64{e.key[0], e.key[1]}] = slotAt{int32(s), e.slot}
					}
				}
				if len(slotOf) != len(fresh) {
					t.Fatalf("layer %d: %d pending vs %d expected", layer, len(slotOf), len(fresh))
				}
				gotKept, pending, err := vs.commit(owners, room, &links[si])
				if err != nil {
					t.Fatal(err)
				}
				if gotKept != kept || pending != len(fresh) {
					t.Fatalf("layer %d, %d owners: commit kept %d of %d, want %d of %d",
						layer, owners, gotKept, pending, kept, len(fresh))
				}
				for rank, key := range fresh {
					at := slotOf[key]
					s := vs.shards[at.shard].slots[at.slot]
					if rank >= kept {
						if s.ref != slotTomb {
							t.Fatalf("layer %d: dropped entry %d left slot ref %d, want a tombstone", layer, rank, s.ref)
						}
						continue
					}
					id := layerFrom + int32(rank)
					e := oracle[key]
					if s.ref != id || s.pidx != int32(hashWords(key[:])) {
						t.Fatalf("layer %d: entry %d holds slot (%d, tag %d), want id %d", layer, rank, s.ref, s.pidx, id)
					}
					if parent := links[si].At(int(id)); parent != e.parent {
						t.Fatalf("layer %d: id %d links parent %d, oracle %d", layer, id, parent, e.parent)
					}
					if got := vs.Key(id); !wordsEqual(got, key[:]) {
						t.Fatalf("layer %d: arena row %d holds %v, want %v", layer, id, got, key)
					}
				}
			}
			for rank, key := range fresh {
				if rank < kept {
					oracle[key].id = layerFrom + int32(rank)
				} else {
					delete(oracle, key)
				}
			}
			nextID = layerFrom + int32(kept)
			// Everything older than this layer goes cold.
			if err := spilled.Housekeep(layerFrom); err != nil {
				t.Fatal(err)
			}

			// Every promoted key must now answer with its id, and no
			// dropped one may be found.
			for _, vs := range sets {
				for key, e := range oracle {
					if got := vs.Probe(key[:], hashWords(key[:]), ^uint64(0), -1, nil); got != e.id {
						t.Fatalf("layer %d: lookup of promoted key returned %d, want %d", layer, got, e.id)
					}
				}
				for _, key := range fresh[kept:] {
					if vs.Contains(key[:], hashWords(key[:])) {
						t.Fatalf("layer %d: dropped key %v still found", layer, key)
					}
				}
				vs.Reset()
			}
		}
		for i, vs := range sets {
			if vs.States() != int(nextID) || links[i].Len() != int(nextID) {
				t.Fatalf("state count %d (%d links), want %d", vs.States(), links[i].Len(), nextID)
			}
		}
	})
}
