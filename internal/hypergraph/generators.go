package hypergraph

import (
	"fmt"
	"math/rand"
)

// Fixtures from the paper.

// Figure1 returns the example hypergraph of paper Figure 1(a):
// V = {1..6}, E = {{1,2},{1,2,3,4},{2,4,5},{3,6},{4,6}}.
// Vertices are 0-based internally; identifiers are set to 1..6 so that
// printed output matches the paper.
func Figure1() *H {
	h := MustNew(6, []Edge{
		{0, 1}, {0, 1, 2, 3}, {1, 3, 4}, {2, 5}, {3, 5},
	})
	h, _ = h.WithIDs([]int{1, 2, 3, 4, 5, 6})
	return h
}

// Figure2 returns the impossibility gadget of Theorem 1 (paper Figure 2):
// V = {1..5}, E = {{1,2},{1,3,5},{3,4}}. Professor 5 (vertex 4) is the one
// starved by any maximally-concurrent algorithm under the adversarial
// schedule.
func Figure2() *H {
	h := MustNew(5, []Edge{
		{0, 1}, {0, 2, 4}, {2, 3},
	})
	h, _ = h.WithIDs([]int{1, 2, 3, 4, 5})
	return h
}

// Figure3 returns the 10-professor topology of the paper's Figure 3
// example computation. The figure names committees {1,2,3}, {5,6}, {6,7},
// {6,9}, {7,8}, {8,9}, {9,10}; professor 4's committees are not spelled
// out in the text, so — as documented in docs/paper-map.md — we attach
// professor 4 via committees {3,4} and {4,5}. This keeps the network
// connected (the token demonstrably travels 1→2→3→4→6 in the figure, so
// 3-4 and 4-5-6 must be communication paths) while professor 4 stays
// disinterested ("idle") exactly as in the figure.
func Figure3() *H {
	h := MustNew(10, []Edge{
		{0, 1, 2}, // {1,2,3}
		{2, 3},    // {3,4}
		{3, 4},    // {4,5}
		{4, 5},    // {5,6}
		{5, 6},    // {6,7}
		{5, 8},    // {6,9}
		{6, 7},    // {7,8}
		{7, 8},    // {8,9}
		{8, 9},    // {9,10}
	})
	h, _ = h.WithIDs([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	return h
}

// Figure4 returns the lock-example topology of paper Figure 4:
// committees {1,2,5,8}, {3,4,5}, {6,7,9}, {8,9}.
func Figure4() *H {
	h := MustNew(9, []Edge{
		{0, 1, 4, 7}, // {1,2,5,8}
		{2, 3, 4},    // {3,4,5}
		{5, 6, 8},    // {6,7,9}
		{7, 8},       // {8,9}
	})
	h, _ = h.WithIDs([]int{1, 2, 3, 4, 5, 6, 7, 8, 9})
	return h
}

// Parameterized families used by the experiments.

// CommitteeRing returns n professors arranged in a cycle with binary
// committees {i, i+1 mod n}. Requires n >= 3.
func CommitteeRing(n int) *H {
	if n < 3 {
		panic(fmt.Sprintf("hypergraph: CommitteeRing needs n >= 3, got %d", n))
	}
	edges := make([]Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = Edge{i, (i + 1) % n}
	}
	return MustNew(n, edges)
}

// CommitteePath returns n professors on a path with binary committees
// {i, i+1}. Requires n >= 2.
func CommitteePath(n int) *H {
	if n < 2 {
		panic(fmt.Sprintf("hypergraph: CommitteePath needs n >= 2, got %d", n))
	}
	edges := make([]Edge, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = Edge{i, i + 1}
	}
	return MustNew(n, edges)
}

// Star returns a star: professor 0 shares a binary committee with each of
// the other n-1 professors. All committees conflict, so at most one
// meeting can hold at a time (paper §3.2 remark).
func Star(n int) *H {
	if n < 2 {
		panic(fmt.Sprintf("hypergraph: Star needs n >= 2, got %d", n))
	}
	edges := make([]Edge, n-1)
	for i := 1; i < n; i++ {
		edges[i-1] = Edge{0, i}
	}
	return MustNew(n, edges)
}

// CompletePairs returns the complete binary hypergraph: one committee per
// pair of professors.
func CompletePairs(n int) *H {
	if n < 2 {
		panic(fmt.Sprintf("hypergraph: CompletePairs needs n >= 2, got %d", n))
	}
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{i, j})
		}
	}
	return MustNew(n, edges)
}

// DisjointCommittees returns k committees of size s with no shared
// members (no conflicts): the fully concurrent case.
func DisjointCommittees(k, s int) *H {
	if k < 1 || s < 2 {
		panic("hypergraph: DisjointCommittees needs k >= 1, s >= 2")
	}
	edges := make([]Edge, k)
	for i := 0; i < k; i++ {
		e := make(Edge, s)
		for j := 0; j < s; j++ {
			e[j] = i*s + j
		}
		edges[i] = e
	}
	return MustNew(k*s, edges)
}

// ChainOfTriples returns overlapping 3-member committees
// {0,1,2},{2,3,4},{4,5,6},... sharing one professor between consecutive
// committees; k committees over 2k+1 professors.
func ChainOfTriples(k int) *H {
	if k < 1 {
		panic("hypergraph: ChainOfTriples needs k >= 1")
	}
	edges := make([]Edge, k)
	for i := 0; i < k; i++ {
		edges[i] = Edge{2 * i, 2*i + 1, 2*i + 2}
	}
	return MustNew(2*k+1, edges)
}

// RandomKUniform returns a connected random hypergraph with n professors
// and m distinct committees of exactly k members each, built from rng.
// To guarantee connectivity of G_H, the first committees form a covering
// chain; the rest are sampled uniformly. Panics if m is too small to
// cover all professors or the space of edges is exhausted.
func RandomKUniform(n, m, k int, rng *rand.Rand) *H {
	if k < 2 || k > n {
		panic(fmt.Sprintf("hypergraph: RandomKUniform needs 2 <= k <= n, got k=%d n=%d", k, n))
	}
	// Chain cover: committees of k consecutive professors with overlap 1.
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
	for start := 0; start < n-1; start += k - 1 {
		if start+k > n {
			start = n - k // final window: last k vertices
		}
		e := make(Edge, k)
		for j := 0; j < k; j++ {
			e[j] = start + j
		}
		add(e)
		if start+k-1 >= n-1 {
			break
		}
	}
	if len(edges) > m {
		panic(fmt.Sprintf("hypergraph: RandomKUniform m=%d too small to cover n=%d with k=%d", m, n, k))
	}
	guard := 0
	for len(edges) < m {
		e := make(Edge, 0, k)
		perm := rng.Perm(n)
		for _, v := range perm[:k] {
			e = append(e, v)
		}
		if !add(e) {
			guard++
			if guard > 10000 {
				panic("hypergraph: RandomKUniform cannot find enough distinct committees")
			}
		}
	}
	return MustNew(n, edges)
}

// RandomMixed returns a connected random hypergraph with n professors and
// m committees of sizes drawn uniformly from [2, kmax]. Connectivity
// requires m >= n-1 (a spanning chain of binary committees is laid first).
func RandomMixed(n, m, kmax int, rng *rand.Rand) *H {
	if kmax < 2 || kmax > n {
		panic("hypergraph: RandomMixed needs 2 <= kmax <= n")
	}
	if m < n-1 {
		panic(fmt.Sprintf("hypergraph: RandomMixed needs m >= n-1 for connectivity (n=%d m=%d)", n, m))
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
	// Connect with a random spanning chain of binary committees.
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		add(Edge{perm[i], perm[i+1]})
		if len(edges) == m {
			break
		}
	}
	guard := 0
	for len(edges) < m {
		k := 2 + rng.Intn(kmax-1)
		p := rng.Perm(n)
		e := make(Edge, k)
		copy(e, p[:k])
		if !add(e) {
			guard++
			if guard > 10000 {
				panic("hypergraph: RandomMixed cannot find enough distinct committees")
			}
		}
	}
	return MustNew(n, edges)
}

// Grid returns professors on an r x c grid with binary committees between
// horizontal and vertical neighbors.
func Grid(r, c int) *H {
	if r < 1 || c < 1 || r*c < 2 {
		panic("hypergraph: Grid needs r*c >= 2")
	}
	var edges []Edge
	at := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				edges = append(edges, Edge{at(i, j), at(i, j+1)})
			}
			if i+1 < r {
				edges = append(edges, Edge{at(i, j), at(i+1, j)})
			}
		}
	}
	return MustNew(r*c, edges)
}

func sortInts(e Edge) {
	for i := 1; i < len(e); i++ {
		for j := i; j > 0 && e[j] < e[j-1]; j-- {
			e[j], e[j-1] = e[j-1], e[j]
		}
	}
}

func appendUnique(e Edge, v int) Edge {
	for _, x := range e {
		if x == v {
			return e
		}
	}
	return append(e, v)
}
