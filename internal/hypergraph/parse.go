package hypergraph

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Parse builds a hypergraph from a compact textual spec, used by the
// command-line tools:
//
//	fig1 | fig2 | fig3 | fig4      paper figures
//	ring:N                          N professors, committees {i, i+1 mod N}
//	path:N                          path of binary committees
//	star:N                          hub professor in every committee
//	complete:N                      one committee per professor pair
//	triples:K                       K overlapping 3-member committees
//	disjoint:K,S                    K disjoint committees of size S
//	grid:R,C                        R×C grid of binary committees
//	kuniform:N,M,K                  random connected K-uniform (M committees)
//	mixed:N,M,KMAX                  random connected, sizes 2..KMAX
//	bipartite:A,B,M,KMAX            random bipartite committees (both sides in every committee)
//	density:N,PCT,KMAX              random, committee count at PCT% of the density sweep
//	scenario:MAXN                   a random scenario family with <= MAXN professors
//	custom:{0,1};{1,2,3};...        explicit committee list (0-based)
//
// Random families draw from rng (required only for them; ParseSeeded
// seeds one only for them).
//
// Out-of-range sizes (ring:0, disjoint:0,1, …) are reported as errors:
// the generators guard their preconditions with string panics, which
// Parse converts into usage errors so the CLIs exit 2 with a message
// instead of crashing. Only those deliberate panics are converted —
// runtime errors (a genuine generator bug) still crash loudly.
func Parse(spec string, rng *rand.Rand) (*H, error) {
	return parse(spec, func() *rand.Rand { return rng })
}

// ParseSeeded is Parse with a source seeded from seed, created only
// when spec names a random family: the deterministic families never
// pay for seeding a generator they do not draw from.
func ParseSeeded(spec string, seed int64) (*H, error) {
	return parse(spec, func() *rand.Rand { return rand.New(rand.NewSource(seed)) })
}

func parse(spec string, source func() *rand.Rand) (h *H, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case string:
			err = fmt.Errorf("hypergraph: invalid topology %q: %s", spec, r)
		default:
			panic(r)
		}
	}()
	name, arg, _ := strings.Cut(spec, ":")
	ints := func(k int) ([]int, error) {
		parts := strings.Split(arg, ",")
		if len(parts) != k {
			return nil, fmt.Errorf("hypergraph: %s needs %d comma-separated ints, got %q", name, k, arg)
		}
		out := make([]int, k)
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("hypergraph: bad int %q in %q", p, spec)
			}
			out[i] = v
		}
		return out, nil
	}
	switch name {
	case "fig1", "figure1":
		return Figure1(), nil
	case "fig2", "figure2":
		return Figure2(), nil
	case "fig3", "figure3":
		return Figure3(), nil
	case "fig4", "figure4":
		return Figure4(), nil
	case "ring":
		v, err := ints(1)
		if err != nil {
			return nil, err
		}
		return CommitteeRing(v[0]), nil
	case "path":
		v, err := ints(1)
		if err != nil {
			return nil, err
		}
		return CommitteePath(v[0]), nil
	case "star":
		v, err := ints(1)
		if err != nil {
			return nil, err
		}
		return Star(v[0]), nil
	case "complete":
		v, err := ints(1)
		if err != nil {
			return nil, err
		}
		return CompletePairs(v[0]), nil
	case "triples":
		v, err := ints(1)
		if err != nil {
			return nil, err
		}
		return ChainOfTriples(v[0]), nil
	case "disjoint":
		v, err := ints(2)
		if err != nil {
			return nil, err
		}
		return DisjointCommittees(v[0], v[1]), nil
	case "grid":
		v, err := ints(2)
		if err != nil {
			return nil, err
		}
		return Grid(v[0], v[1]), nil
	case "kuniform":
		v, err := ints(3)
		if err != nil {
			return nil, err
		}
		rng := source()
		if rng == nil {
			return nil, fmt.Errorf("hypergraph: %s needs a random source", name)
		}
		return RandomKUniform(v[0], v[1], v[2], rng), nil
	case "mixed":
		v, err := ints(3)
		if err != nil {
			return nil, err
		}
		rng := source()
		if rng == nil {
			return nil, fmt.Errorf("hypergraph: %s needs a random source", name)
		}
		return RandomMixed(v[0], v[1], v[2], rng), nil
	case "bipartite":
		v, err := ints(4)
		if err != nil {
			return nil, err
		}
		rng := source()
		if rng == nil {
			return nil, fmt.Errorf("hypergraph: %s needs a random source", name)
		}
		return RandomBipartite(v[0], v[1], v[2], v[3], rng), nil
	case "density":
		v, err := ints(3)
		if err != nil {
			return nil, err
		}
		rng := source()
		if rng == nil {
			return nil, fmt.Errorf("hypergraph: %s needs a random source", name)
		}
		return RandomDensity(v[0], float64(v[1])/100, v[2], rng), nil
	case "scenario":
		v, err := ints(1)
		if err != nil {
			return nil, err
		}
		rng := source()
		if rng == nil {
			return nil, fmt.Errorf("hypergraph: %s needs a random source", name)
		}
		return RandomScenario(rng, v[0]), nil
	case "custom":
		var edges []Edge
		max := -1
		for _, part := range strings.Split(arg, ";") {
			part = strings.Trim(strings.TrimSpace(part), "{}")
			if part == "" {
				continue
			}
			var e Edge
			for _, f := range strings.Split(part, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					return nil, fmt.Errorf("hypergraph: bad vertex %q in %q", f, spec)
				}
				e = append(e, v)
				if v > max {
					max = v
				}
			}
			edges = append(edges, e)
		}
		if len(edges) == 0 {
			return nil, fmt.Errorf("hypergraph: custom spec %q has no committees", spec)
		}
		return New(max+1, edges)
	}
	return nil, fmt.Errorf("hypergraph: unknown topology %q", spec)
}
