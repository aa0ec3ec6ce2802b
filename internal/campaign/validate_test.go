package campaign_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/store"
)

// errText renders an error for comparison, nil as "<nil>".
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkValidateMatchesPrepare asserts that Validate, which builds no
// model unless -symmetry asks for one, decides exactly what prepare
// (the check plus the build Execute runs) decides: the same error text,
// or nil from both.
func checkValidateMatchesPrepare(t *testing.T, spec store.JobSpec) {
	t.Helper()
	got := errText(campaign.Validate(spec))
	want := errText(campaign.Prepare(spec))
	if got != want {
		t.Errorf("%+v:\n  Validate: %s\n  prepare:  %s", spec, got, want)
	}
}

// TestValidateMatchesPrepare crosses every algorithm with
// deterministic, random and custom topologies (on both sides of each
// bound of the explorer's size rule: 64 CC processes at ring:64/65, 64
// CC committees at complete:11/12, 64 baseline processes at
// ring:32/33, a 64-bit dining block at star:22/23), every init family,
// valid and unknown mutations, and -symmetry on and off.
func TestValidateMatchesPrepare(t *testing.T) {
	algs := append(campaign.Algs(), "", "cc9")
	topos := []string{
		"ring:3", "star:4", "fig3", "figure1", "disjoint:2,2", "triples:3", "grid:2,3",
		"ring:250", "ring:251", "ring:125", "ring:126", "complete:22", "complete:23",
		"kuniform:6,4,3", "mixed:6,5,3", "bipartite:2,3,4,3", "density:6,50,3", "scenario:8",
		"custom:{0,1};{1,2,3}", "custom:{0,1};{1,250}", "custom:",
		"ring:64", "ring:65", "complete:11", "complete:12", "ring:32", "ring:33", "star:22", "star:23",
		"", "ring:", "ring:0", "disjoint:0,1", "blob:3", "kuniform:3,2,9",
	}
	inits := append(campaign.Inits(), "", "bogus")
	mutations := []string{"", "none", "leave-early", "skip-stab", "bogus"}
	for _, alg := range algs {
		for _, topo := range topos {
			for _, init := range inits {
				for _, mut := range mutations {
					for _, sym := range []bool{false, true} {
						checkValidateMatchesPrepare(t, store.JobSpec{
							Alg: alg, Topo: topo, Daemon: "central", Init: init,
							Mutation: mut, Symmetry: sym, Seed: 3,
						})
					}
				}
			}
		}
	}
	for _, daemon := range []string{"", "sync", "all", "synchronous", "centrall"} {
		checkValidateMatchesPrepare(t, store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: daemon})
	}
}

// fuzzTopo maps fuzz bytes onto a topology spec: every Parse family
// at sizes that cross the codec bound but stay cheap to build, or raw
// text with its integers capped so a spec cannot ask for a huge graph.
func fuzzTopo(family, a, b, c uint8, raw string) string {
	switch family % 17 {
	case 0:
		return fmt.Sprintf("ring:%d", a)
	case 1:
		return fmt.Sprintf("path:%d", a)
	case 2:
		return fmt.Sprintf("star:%d", a)
	case 3:
		return fmt.Sprintf("complete:%d", a%32)
	case 4:
		return fmt.Sprintf("triples:%d", a)
	case 5:
		return fmt.Sprintf("disjoint:%d,%d", a%64, b%8)
	case 6:
		return fmt.Sprintf("grid:%d,%d", a%24, b%24)
	case 7:
		return fmt.Sprintf("kuniform:%d,%d,%d", a%48, b%64, c%8)
	case 8:
		return fmt.Sprintf("mixed:%d,%d,%d", a%48, b%64, c%8)
	case 9:
		return fmt.Sprintf("bipartite:%d,%d,%d,%d", a%24, b%24, c%64, a%8)
	case 10:
		return fmt.Sprintf("density:%d,%d,%d", a%48, b%120, c%8)
	case 11:
		return fmt.Sprintf("scenario:%d", a%32)
	case 12:
		return fmt.Sprintf("fig%d", 1+a%5)
	case 13:
		var edges []string
		for i := 0; i < int(b%6); i++ {
			edges = append(edges, fmt.Sprintf("{%d,%d}", (int(a)+i)%256, (int(c)+2*i)%264))
		}
		return "custom:" + strings.Join(edges, ";")
	}
	if len(raw) > 64 {
		raw = raw[:64]
	}
	for _, f := range strings.FieldsFunc(raw, func(r rune) bool { return r < '0' || r > '9' }) {
		if v, err := strconv.Atoi(f); err != nil || v > 300 {
			return "ring:3"
		}
	}
	return raw
}

// FuzzValidateMatchesPrepare: for any spec, Validate's error (or nil)
// is string-identical to prepare's, and a spec Validate accepts builds
// without panicking.
func FuzzValidateMatchesPrepare(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(3), uint8(0), uint8(0), uint8(1), uint8(0), false, int64(0), "")
	f.Add(uint8(0), uint8(2), uint8(4), uint8(0), uint8(0), uint8(1), uint8(1), false, int64(0), "")
	f.Add(uint8(3), uint8(0), uint8(251), uint8(0), uint8(0), uint8(0), uint8(0), true, int64(0), "")
	f.Add(uint8(4), uint8(0), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), true, int64(0), "")
	f.Add(uint8(1), uint8(5), uint8(2), uint8(2), uint8(0), uint8(1), uint8(0), true, int64(0), "")
	f.Add(uint8(1), uint8(7), uint8(6), uint8(4), uint8(3), uint8(3), uint8(2), false, int64(7), "")
	f.Add(uint8(0), uint8(11), uint8(9), uint8(0), uint8(0), uint8(2), uint8(3), false, int64(5), "")
	f.Add(uint8(2), uint8(13), uint8(0), uint8(3), uint8(1), uint8(1), uint8(0), false, int64(0), "")
	f.Add(uint8(2), uint8(14), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), false, int64(0), "ring:")
	f.Add(uint8(6), uint8(15), uint8(0), uint8(0), uint8(0), uint8(4), uint8(4), false, int64(0), "custom:{0,1};{1,2}")
	f.Fuzz(func(t *testing.T, alg, family, a, b, c, init, mut uint8, sym bool, seed int64, raw string) {
		algs := append(campaign.Algs(), "", "cc9")
		inits := append(campaign.Inits(), "", "bogus")
		mutations := []string{"", "leave-early", "skip-stab", "none", "bogus"}
		checkValidateMatchesPrepare(t, store.JobSpec{
			Alg:      algs[int(alg)%len(algs)],
			Topo:     fuzzTopo(family, a, b, c, raw),
			Daemon:   campaign.Daemons()[int(c)%len(campaign.Daemons())],
			Init:     inits[int(init)%len(inits)],
			Mutation: mutations[int(mut)%len(mutations)],
			Symmetry: sym,
			Seed:     seed,
		})
	})
}

// BenchmarkValidate prices one submit's validation of a stored spec.
func BenchmarkValidate(b *testing.B) {
	spec := store.JobSpec{Alg: "cc1", Topo: "star:4", Daemon: "central", Init: "cc"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := campaign.Validate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
