package hypergraph

import (
	"fmt"
	"math/rand"
)

// Randomized scenario generation: the adversarial counterpart to the
// fixed paper fixtures. These families feed the exhaustive checker
// (internal/explore), the property-based test harness, the fuzz
// targets, ccsim's randomized scenario harness, and the CLI topology specs
// `bipartite:A,B,M,KMAX`, `density:N,PCT,KMAX` and `scenario:MAXN`
// (see Parse) — committee structures the authors never drew: random
// conflict graphs at parameterized density, stars, cliques and
// bipartite committee structures.

// RandomBipartite returns a connected random hypergraph whose vertices
// split into a left part of size a and a right part of size b, and every
// committee has at least one member from each side (the classical
// "professors × departments" committee structure). m committees total,
// sizes 2..kmax. Requires a, b >= 1, kmax >= 2 and m large enough to
// connect both sides (m >= a+b-1).
func RandomBipartite(a, b, m, kmax int, rng *rand.Rand) *H {
	n := a + b
	if a < 1 || b < 1 {
		panic(fmt.Sprintf("hypergraph: RandomBipartite needs a, b >= 1, got a=%d b=%d", a, b))
	}
	if kmax < 2 || kmax > n {
		panic("hypergraph: RandomBipartite needs 2 <= kmax <= a+b")
	}
	if m < n-1 {
		panic(fmt.Sprintf("hypergraph: RandomBipartite needs m >= a+b-1 for connectivity (m=%d)", m))
	}
	left, right := rng.Perm(a), rng.Perm(b)
	for i := range right {
		right[i] += a
	}
	var edges []Edge
	seen := make(map[string]bool)
	add := func(e Edge) bool {
		c := e.clone()
		sortInts(c)
		key := c.String()
		if seen[key] {
			return false
		}
		seen[key] = true
		edges = append(edges, c)
		return true
	}
	// Spanning zigzag: consecutive left/right vertices share binary
	// committees, so G_H is connected and every committee is bipartite.
	long, short := left, right
	if len(right) > len(left) {
		long, short = right, left
	}
	for i, v := range long {
		add(Edge{v, short[i%len(short)]})
	}
	for i := 0; i+1 < len(short); i++ {
		add(Edge{long[0], short[i+1]})
	}
	// At most Σ_k [C(n,k) − C(a,k) − C(b,k)] distinct committees touch
	// both sides; clamp m so the rejection loop cannot exhaust the space.
	// When the total saturates, the space is far larger than any clamp
	// we'd apply (and the subtraction would be meaningless), so skip.
	if tot := maxCommittees(n, kmax); tot < 1<<20 {
		if c := tot - maxCommittees(a, kmax) - maxCommittees(b, kmax); m > c {
			m = c
		}
	}
	guard := 0
	for len(edges) < m {
		k := 2 + rng.Intn(kmax-1)
		e := Edge{left[rng.Intn(a)], right[rng.Intn(b)]}
		for len(e) < k {
			e = appendUnique(e, rng.Intn(n))
		}
		if !add(e) {
			guard++
			if guard > 10000 {
				panic("hypergraph: RandomBipartite cannot find enough distinct committees")
			}
		}
	}
	return MustNew(n, edges)
}

// maxCommittees returns the number of distinct committees of sizes
// 2..kmax over n professors, saturating at 1<<20 (callers only use it to
// clamp requested committee counts).
func maxCommittees(n, kmax int) int {
	const limit = 1 << 20
	total := 0
	for k := 2; k <= kmax && k <= n; k++ {
		c := 1
		for i := 0; i < k; i++ {
			c = c * (n - i) / (i + 1)
			if c >= limit {
				return limit
			}
		}
		total += c
		if total >= limit {
			return limit
		}
	}
	return total
}

// RandomDensity returns a connected random hypergraph over n professors
// whose committee count interpolates with density ∈ [0, 1]: density 0
// gives the sparsest connected structure (a spanning chain, n-1 binary
// committees), density 1 gives 3n committees of sizes 2..kmax. The
// committee conflict graph thickens accordingly, which is the knob the
// concurrency experiments and the randomized checker harness sweep.
func RandomDensity(n int, density float64, kmax int, rng *rand.Rand) *H {
	if n < 2 {
		panic(fmt.Sprintf("hypergraph: RandomDensity needs n >= 2, got %d", n))
	}
	if density < 0 {
		density = 0
	}
	if density > 1 {
		density = 1
	}
	if kmax > n {
		kmax = n
	}
	if kmax < 2 {
		kmax = 2
	}
	lo, hi := n-1, 3*n
	m := lo + int(density*float64(hi-lo)+0.5)
	if c := maxCommittees(n, kmax); m > c {
		m = c
	}
	return RandomMixed(n, m, kmax, rng)
}

// RandomScenario draws a random committee-coordination scenario: one of
// the parameterized families (ring, path, star, clique, chained triples,
// disjoint committees, k-uniform, mixed-size, bipartite, density-swept,
// grid) with random parameters bounded by maxN professors. It never
// returns fewer than 3 professors or fewer than 2 committees. This is
// the topology source for the property-based harness, the fuzz target
// and scenario:MAXN (ccsim's randomized scenario harness).
func RandomScenario(rng *rand.Rand, maxN int) *H {
	if maxN < 6 {
		maxN = 6
	}
	pick := func(lo, hi int) int { // inclusive, hi >= lo
		return lo + rng.Intn(hi-lo+1)
	}
	switch rng.Intn(10) {
	case 0:
		return CommitteeRing(pick(3, maxN))
	case 1:
		return CommitteePath(pick(3, maxN))
	case 2:
		return Star(pick(3, maxN))
	case 3:
		// Clique: every pair of professors shares a committee.
		return CompletePairs(pick(3, min(maxN, 7)))
	case 4:
		return ChainOfTriples(pick(2, (maxN-1)/2))
	case 5:
		s := pick(2, 3)
		return DisjointCommittees(pick(2, max(2, maxN/s)), s)
	case 6:
		n := pick(4, maxN)
		k := pick(2, min(4, n-1)) // k < n: with k = n only one committee exists
		m := n/(k-1) + 1 + rng.Intn(n)
		if c := maxCommittees(n, k) - maxCommittees(n, k-1); m > c {
			m = c // only C(n,k) distinct k-committees exist
		}
		return RandomKUniform(n, m, k, rng)
	case 7:
		n := pick(4, maxN)
		kmax := pick(2, min(5, n))
		m := n - 1 + rng.Intn(n+1)
		if c := maxCommittees(n, kmax); m > c {
			m = c
		}
		return RandomMixed(n, m, kmax, rng)
	case 8:
		a := pick(2, maxN/2)
		b := pick(2, maxN-a)
		return RandomBipartite(a, b, a+b-1+rng.Intn(a+b), pick(2, min(4, a+b)), rng)
	default:
		n := pick(4, maxN)
		return RandomDensity(n, rng.Float64(), pick(2, min(5, n)), rng)
	}
}
