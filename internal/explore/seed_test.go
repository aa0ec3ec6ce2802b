package explore

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// streamed returns factory with InitDomains cleared, which sends the
// seed down the probe-and-commit path with the same init stream.
func streamed[S sim.Cloneable[S]](factory func() *Model[S]) func() *Model[S] {
	return func() *Model[S] {
		m := factory()
		m.InitDomains = nil
		return m
	}
}

// TestSeedProductMatchesProbe: a product family's seed layer written
// straight into the visited set and registered there as a family —
// members found by arithmetic, holding no slot and no trace link — must
// give what probing its stream and committing it gives: the same Result
// bytes, the same Inits and the same arena key under every id, at any
// worker count, whole or cut by the state bound inside the seed layer
// (the last three cells). At the end, Contains must agree between the
// two sets on every promoted key, on the product's configurations past
// the cut and on keys one bit off them, and the family set must hold
// exactly States − Inits slots. The direct path must also never create
// a pending entry while it seeds.
func TestSeedProductMatchesProbe(t *testing.T) {
	for _, tc := range []struct {
		v    core.Variant
		topo string
		init InitMode
		mode sim.SelectionMode
		opts Options
	}{
		{core.CC2, "ring:3", InitCC, sim.SelectCentral, Options{MaxDepth: 3}},
		{core.CC2, "ring:3", InitCCFull, sim.SelectCentral, Options{MaxDepth: 1}},
		{core.CC1, "ring:4", InitCC, sim.SelectCentral, Options{MaxDepth: 3}},
		{core.CC3, "star:4", InitCC, sim.SelectCentral, Options{MaxDepth: 3}},
		{core.CC2, "ring:4", InitCCFull, sim.SelectCentral, Options{MaxStates: 20_000}},
		{core.CC2, "star:4", InitCCFull, sim.SelectCentral, Options{MaxStates: 20_000}},
		{core.CC2, "triples:3", InitCC, sim.SelectSynchronous, Options{MaxStates: 20_000}},
	} {
		name := fmt.Sprintf("%s/%s/%s", tc.v, tc.topo, tc.init)
		t.Run(name, func(t *testing.T) {
			h, err := hypergraph.ParseSeeded(tc.topo, 1)
			if err != nil {
				t.Fatal(err)
			}
			factory := mustCC(t, tc.v, h, CCOptions{Init: tc.init})
			if factory().InitDomains == nil {
				t.Fatal("the CC factory declares no init domains for a product family")
			}
			for _, workers := range []int{1, 2, 3, 8} {
				opts := tc.opts
				opts.Mode, opts.Workers = tc.mode, workers
				opts.CheckDeadlock, opts.CheckClosure = true, true
				direct, dres := runBackend(t, factory, opts)
				probe, pres := runBackend(t, streamed(factory), opts)
				if got, want := normJSON(t, dres), normJSON(t, pres); string(got) != string(want) {
					t.Fatalf("-j %d: direct seed report differs from the probed one:\n%s\nvs\n%s", workers, got, want)
				}
				if tc.opts.MaxStates > 0 && (!dres.Truncated || dres.Inits != tc.opts.MaxStates) {
					t.Fatalf("-j %d: the bound did not cut the seed layer: %s", workers, dres.Summary())
				}
				if direct.vs.fam.len() != dres.Inits || probe.vs.fam != nil {
					t.Fatalf("-j %d: family of %d registered for %d inits (streamed: %v)", workers, direct.vs.fam.len(), dres.Inits, probe.vs.fam)
				}
				for id := int32(0); int(id) < dres.States; id++ {
					if !wordsEqual(direct.vs.Key(id), probe.vs.Key(id)) {
						t.Fatalf("-j %d: state %d is %x seeded directly, %x probed", workers, id, direct.vs.Key(id), probe.vs.Key(id))
					}
				}
				if got, want := promotedSlots(direct.vs), dres.States-dres.Inits; got != want {
					t.Fatalf("-j %d: the family set holds %d slots for %d states past %d inits", workers, got, dres.States, dres.Inits)
				}
				if got := promotedSlots(probe.vs); got != pres.States {
					t.Fatalf("-j %d: the streamed set holds %d slots for %d states", workers, got, pres.States)
				}
				if workers == 1 {
					containsAgrees(t, direct.vs, probe.vs, factory(), dres)
				}
			}

			// The seed itself: links of parent −1 that take no storage,
			// and not one pending entry ever allocated.
			opts := tc.opts
			opts.Mode = tc.mode
			b := newLocalBackend(factory, opts)
			var links TraceLinks
			room := -1
			if opts.MaxStates > 0 {
				room = opts.MaxStates
			}
			kept, _, err := b.Seed(room, &links)
			if err != nil {
				t.Fatal(err)
			}
			if kept == 0 || links.Len() != kept || b.vs.States() != kept || len(links.parent) != 0 {
				t.Fatalf("seeded %d states, %d links in %d blocks, %d in the set", kept, links.Len(), len(links.parent), b.vs.States())
			}
			for id := range kept {
				if parent := links.At(id); parent != -1 {
					t.Fatalf("init %d linked to parent %d", id, parent)
				}
			}
			for i := range b.vs.shards {
				if cap(b.vs.shards[i].pend) != 0 || len(b.vs.order) != 0 {
					t.Fatal("the direct seed probed the visited set")
				}
			}
		})
	}
}

// promotedSlots counts the slots of vs that hold a promoted id.
func promotedSlots(vs *Visited) int {
	n := 0
	for i := range vs.shards {
		for _, s := range vs.shards[i].slots {
			if s.ref >= 0 {
				n++
			}
		}
	}
	return n
}

// containsAgrees asks the family set direct and the streamed set probe
// of one finished run res whether they contain every promoted key, the
// product's configurations up to twice the seed layer (past a cut,
// those were dropped) and each of those keys with one of two bits
// flipped; the two must answer alike, and yes for every promoted key.
func containsAgrees(t *testing.T, direct, probe *Visited, m *Model[core.State], res *Result) {
	t.Helper()
	ask := func(what string, key []uint64) {
		h := hashWords(key)
		if got, want := direct.Contains(key, h), probe.Contains(key, h); got != want {
			t.Fatalf("%s %x: the family set says %v, the streamed set %v", what, key, got, want)
		}
	}
	for id := int32(0); int(id) < res.States; id++ {
		if key := probe.Key(id); !direct.Contains(key, hashWords(key)) {
			t.Fatalf("state %d %x is missing from the family set", id, key)
		}
	}
	i := 0
	key := make([]uint64, m.Codec.Words)
	m.Inits(func(cfg []core.State) bool {
		clear(key)
		m.Codec.Encode(key, cfg)
		ask("configuration", key)
		// Two bits per configuration, a different pair each time.
		for _, b := range []int{i * 37 % (64 * len(key)), (i*37 + 32*len(key)) % (64 * len(key))} {
			key[b/64] ^= 1 << (b % 64)
			ask("flipped configuration", key)
			key[b/64] ^= 1 << (b % 64)
		}
		i++
		return i < 2*res.Inits
	})
}

// runBackend runs an exploration on a local backend it keeps, so the
// caller can read the arena back.
func runBackend(t *testing.T, factory func() *Model[core.State], opts Options) (*localBackend[core.State], *Result) {
	t.Helper()
	b := newLocalBackend(factory, opts)
	t.Cleanup(b.vs.Close)
	if err := b.run.run(context.Background(), b, false); err != nil {
		t.Fatal(err)
	}
	return b, b.run.res
}

// TestSeedTablesInjective: every product family's per-process payload
// tables hold distinct payloads — the fact that lets the direct seed
// skip deduplication.
func TestSeedTablesInjective(t *testing.T) {
	for _, topo := range []string{"ring:3", "ring:4", "star:4", "triples:3"} {
		h, err := hypergraph.ParseSeeded(topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []core.Variant{core.CC1, core.CC2, core.CC3} {
			for _, init := range []InitMode{InitCC, InitCCFull} {
				m := mustCC(t, v, h, CCOptions{Init: init})()
				for p, tab := range procTables(&m.Codec, m.InitDomains) {
					seen := map[uint64]bool{}
					for _, x := range tab {
						if seen[x] {
							t.Fatalf("%s/%s/%s: process %d repeats block %#x", v, topo, init, p, x)
						}
						seen[x] = true
					}
					if len(tab) != len(m.InitDomains[p]) {
						t.Fatalf("%s/%s/%s: process %d has %d payloads for %d states", v, topo, init, p, len(tab), len(m.InitDomains[p]))
					}
				}
			}
		}
	}
}

// TestSeedDuplicateDomainPanics: a domain listing one state twice would
// seed one key under two ids; the direct seed must refuse it loudly.
func TestSeedDuplicateDomainPanics(t *testing.T) {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCC})
	dup := func() *Model[core.State] {
		m := factory()
		doms := make([][]core.State, len(m.InitDomains))
		copy(doms, m.InitDomains)
		doms[1] = append(append([]core.State(nil), doms[1]...), doms[1][0])
		m.InitDomains, m.Inits = doms, productInits(doms)
		return m
	}
	// The probe path deduplicates the repeat: 729 inits of the 810 the
	// stream yields.
	if res := Explore(streamed(dup), Options{Mode: sim.SelectCentral, MaxDepth: 1}); res.Inits != 729 {
		t.Fatalf("probed seed of the duplicated family: %d inits, want 729", res.Inits)
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "encode to the same block") {
			t.Fatalf("want the duplicate-block panic, got %v", r)
		}
	}()
	res := Explore(dup, Options{Mode: sim.SelectCentral, MaxDepth: 1})
	t.Fatalf("a duplicated domain seeded without a panic: %s", res.Summary())
}

// TestProductInitsOrder pins the product stream (process 0 fastest,
// early stop, an empty domain's empty product) and the seed layer's
// cut of it (productCut).
func TestProductInitsOrder(t *testing.T) {
	var got []string
	productInits([][]string{{"a", "b"}, {"x", "y", "z"}})(func(cfg []string) bool {
		got = append(got, strings.Join(cfg, ""))
		return len(got) < 5
	})
	if want := "ax bx ay by az"; strings.Join(got, " ") != want {
		t.Fatalf("product order %q, want %q", got, want)
	}
	productInits([][]string{{"a"}, {}})(func([]string) bool {
		t.Fatal("an empty domain yielded a configuration")
		return false
	})
	for _, tc := range []struct {
		room    int
		kept    int
		dropped bool
	}{{-1, 6, false}, {6, 6, false}, {4, 4, true}} {
		kept, dropped, ok := productCut([][]string{{"a", "b"}, {"x", "y", "z"}}, tc.room)
		if kept != tc.kept || dropped != tc.dropped || !ok {
			t.Fatalf("productCut at room %d: %d, %v, %v; want %d, %v, true", tc.room, kept, dropped, ok, tc.kept, tc.dropped)
		}
	}
	// Past the int32 id space, a family is streamed unless room cuts it.
	wide := make([][]string, 32)
	for p := range wide {
		wide[p] = []string{"0", "1"}
	}
	for _, room := range []int{-1, math.MaxInt} {
		if _, _, ok := productCut(wide, room); ok {
			t.Fatalf("a 2^32-configuration family at room %d is written, not streamed", room)
		}
	}
	if kept, dropped, ok := productCut(wide, 1000); kept != 1000 || !dropped || !ok {
		t.Fatalf("productCut of 2^32 at room 1000: %d, %v, %v; want 1000, true, true", kept, dropped, ok)
	}
}
