package hypergraph

import (
	"math"
	"sort"
)

// This file implements the matching-theoretic machinery of paper §5.3:
// matchings and maximal matchings of a hypergraph, the size of the
// smallest maximal matching (minMM), the induced subhypergraph H_Y, the
// sets Almost(ε, X), AMM (Theorem 4) and AMM' (Theorem 7), and the
// analytic lower bounds of Theorems 5 and 8. All enumerations are exact
// and exponential in the number of edges; they are intended for the small
// topologies on which the degree-of-fair-concurrency experiments compute
// ground truth.

// IsMatching reports whether the given edge indices are pairwise
// non-conflicting.
func (h *H) IsMatching(edgeIdx []int) bool {
	used := make([]bool, h.n)
	for _, ei := range edgeIdx {
		for _, v := range h.edges[ei] {
			if used[v] {
				return false
			}
			used[v] = true
		}
	}
	return true
}

// IsMaximalMatching reports whether edgeIdx is a matching such that no
// further edge of h can be added. The optional mask restricts the edge
// universe: if mask is non-nil, only edges ei with mask[ei] participate
// (both as members and as candidate extensions).
func (h *H) IsMaximalMatching(edgeIdx []int, mask []bool) bool {
	if !h.IsMatching(edgeIdx) {
		return false
	}
	used := make([]bool, h.n)
	in := make([]bool, len(h.edges))
	for _, ei := range edgeIdx {
		if mask != nil && !mask[ei] {
			return false
		}
		in[ei] = true
		for _, v := range h.edges[ei] {
			used[v] = true
		}
	}
	for ei, e := range h.edges {
		if in[ei] || (mask != nil && !mask[ei]) {
			continue
		}
		free := true
		for _, v := range e {
			if used[v] {
				free = false
				break
			}
		}
		if free {
			return false
		}
	}
	return true
}

// EnumerateMaximalMatchings calls fn with each maximal matching of h
// (restricted to edges allowed by mask, if non-nil), as a sorted slice of
// edge indices. The slice is reused; fn must copy it to retain it.
// Enumeration stops early if fn returns false.
//
// The search decides the edges in index order (skip before take) and
// prunes as soon as an allowed edge is closed — its last member's last
// edge decided — while still free: nothing can block it any more, so no
// matching below is maximal. The maximal matchings come out in the
// same order as without the pruning, but the time to the next one no
// longer grows with the number of non-maximal matchings in between.
func (h *H) EnumerateMaximalMatchings(mask []bool, fn func(m []int) bool) {
	m := len(h.edges)
	// closes[i] = the allowed edges whose members have no edge after i.
	last := make([]int, h.n)
	for ei, e := range h.edges {
		for _, v := range e {
			last[v] = ei
		}
	}
	closes := make([][]int, m)
	for ei, e := range h.edges {
		if mask != nil && !mask[ei] {
			continue
		}
		c := ei
		for _, v := range e {
			c = max(c, last[v])
		}
		closes[c] = append(closes[c], ei)
	}
	used := make([]bool, h.n)
	free := func(ei int) bool {
		for _, v := range h.edges[ei] {
			if used[v] {
				return false
			}
		}
		return true
	}
	var chosen []int
	var rec func(i int) bool
	rec = func(i int) bool {
		if i > 0 {
			for _, ei := range closes[i-1] {
				if free(ei) {
					return true // extensible forever => no maximal matching here
				}
			}
		}
		if i == m {
			return fn(chosen)
		}
		// Branch 1: skip edge i.
		if !rec(i + 1) {
			return false
		}
		// Branch 2: take edge i if allowed and disjoint.
		if (mask != nil && !mask[i]) || !free(i) {
			return true
		}
		for _, v := range h.edges[i] {
			used[v] = true
		}
		chosen = append(chosen, i)
		ok := rec(i + 1)
		chosen = chosen[:len(chosen)-1]
		for _, v := range h.edges[i] {
			used[v] = false
		}
		return ok
	}
	rec(0)
}

// MaximalMatchings returns all maximal matchings (MM_H), each sorted.
func (h *H) MaximalMatchings() [][]int {
	var out [][]int
	h.EnumerateMaximalMatchings(nil, func(m []int) bool {
		c := append([]int(nil), m...)
		sort.Ints(c)
		out = append(out, c)
		return true
	})
	return out
}

// MinMaximalMatching returns the size of the smallest maximal matching
// (minMM) and one witness. If the hypergraph has no edges it returns
// (0, nil).
func (h *H) MinMaximalMatching() (int, []int) {
	best, witness, _ := h.MinMaximalMatchingWithin(0)
	return best, witness
}

// MinMaximalMatchingWithin is MinMaximalMatching over at most budget
// maximal matchings (0 = all of them). exact reports whether the
// enumeration finished; when it did not, minMM and the witness are only
// the smallest of the matchings seen, an upper bound.
func (h *H) MinMaximalMatchingWithin(budget int) (minMM int, witness []int, exact bool) {
	best := math.MaxInt
	seen := 0
	exact = true
	h.EnumerateMaximalMatchings(nil, func(m []int) bool {
		if budget > 0 && seen == budget {
			exact = false
			return false
		}
		seen++
		if len(m) < best {
			best = len(m)
			witness = append(witness[:0], m...)
		}
		return true
	})
	if best == math.MaxInt {
		return 0, nil, exact
	}
	sort.Ints(witness)
	return best, witness, exact
}

// MaxMatching returns the size of a maximum matching and one witness.
// (The paper notes maximizing simultaneous meetings is NP-hard in
// general; this exact routine is for small ground-truth instances.)
func (h *H) MaxMatching() (int, []int) {
	best := -1
	var witness []int
	h.EnumerateMaximalMatchings(nil, func(m []int) bool {
		if len(m) > best {
			best = len(m)
			witness = append(witness[:0], m...)
		}
		return true
	})
	if best < 0 {
		return 0, nil
	}
	sort.Ints(witness)
	return best, witness
}

// inducedMask returns the edge mask of the subhypergraph H_Y induced by
// V \ Y: an edge survives iff none of its members is in Y.
func (h *H) inducedMask(y []int) []bool {
	drop := make([]bool, h.n)
	for _, v := range y {
		drop[v] = true
	}
	mask := make([]bool, len(h.edges))
	for ei, e := range h.edges {
		keep := true
		for _, v := range e {
			if drop[v] {
				keep = false
				break
			}
		}
		mask[ei] = keep
	}
	return mask
}

// AlmostMatchings enumerates Almost(ε, X) (paper §5.3): the maximal
// matchings m of H_X such that every q ∈ ε\X is incident to a hyperedge
// of m. eps is an edge index; x a vertex set. fn receives each matching
// (reused slice); return false to stop.
func (h *H) AlmostMatchings(eps int, x []int, fn func(m []int) bool) {
	mask := h.inducedMask(x)
	inX := make(map[int]bool, len(x))
	for _, v := range x {
		inX[v] = true
	}
	var need []int // members of eps outside X that must be covered
	for _, q := range h.edges[eps] {
		if !inX[q] {
			need = append(need, q)
		}
	}
	h.EnumerateMaximalMatchings(mask, func(m []int) bool {
		covered := make(map[int]bool)
		for _, ei := range m {
			for _, v := range h.edges[ei] {
				covered[v] = true
			}
		}
		for _, q := range need {
			if !covered[q] {
				return true // not in Almost; continue
			}
		}
		return fn(m)
	})
}

// subsetsContaining calls fn with every proper subset y of edge members
// that contains p (the set Y_{ε,p} of §5.3): p ∈ y and |y| < |ε|.
func (h *H) subsetsContaining(eps, p int, fn func(y []int) bool) {
	e := h.edges[eps]
	others := make([]int, 0, len(e)-1)
	for _, v := range e {
		if v != p {
			others = append(others, v)
		}
	}
	k := len(others)
	// Choose any subset of others, but not all of them (|y| < |ε|).
	for bits := 0; bits < (1 << k); bits++ {
		if bits == (1<<k)-1 {
			continue
		}
		y := []int{p}
		for i := 0; i < k; i++ {
			if bits&(1<<i) != 0 {
				y = append(y, others[i])
			}
		}
		sort.Ints(y)
		if !fn(y) {
			return
		}
	}
}

// MinAMM returns the size of the smallest matching in MM ∪ AMM
// (Theorem 4's bound target) where AMM uses minimum-length incident
// edges (E^min_p). It also returns whether AMM was non-empty.
func (h *H) MinAMM() (int, bool) {
	return h.minOverAMM(true)
}

// MinAMMPrime returns the size of the smallest matching in MM ∪ AMM'
// (Theorem 7's bound target), where AMM' ranges over all incident edges.
func (h *H) MinAMMPrime() (int, bool) {
	return h.minOverAMM(false)
}

func (h *H) minOverAMM(minEdgesOnly bool) (int, bool) {
	best, _ := h.MinMaximalMatching()
	if len(h.edges) == 0 {
		return 0, false
	}
	sawAMM := false
	for p := 0; p < h.n; p++ {
		var eset []int
		if minEdgesOnly {
			eset = h.MinEdges(p)
		} else {
			eset = h.EdgesOf(p)
		}
		for _, eps := range eset {
			h.subsetsContaining(eps, p, func(y []int) bool {
				h.AlmostMatchings(eps, y, func(m []int) bool {
					sawAMM = true
					if len(m) < best {
						best = len(m)
					}
					return true
				})
				return true
			})
		}
	}
	return best, sawAMM
}

// Theorem5Bound returns the analytic lower bound of Theorem 5 on the
// degree of fair concurrency of CC2∘TC: minMM − MaxMin + 1 (at least 1).
func (h *H) Theorem5Bound() int {
	minMM, _ := h.MinMaximalMatching()
	return h.Theorem5BoundOf(minMM)
}

// Theorem5BoundOf is Theorem5Bound for an already computed minMM.
func (h *H) Theorem5BoundOf(minMM int) int { return max(minMM-h.MaxMin()+1, 1) }

// Theorem8Bound returns the analytic lower bound of Theorem 8 on the
// degree of fair concurrency of CC3∘TC: minMM − MaxHEdge + 1 (at least 1).
func (h *H) Theorem8Bound() int {
	minMM, _ := h.MinMaximalMatching()
	return h.Theorem8BoundOf(minMM)
}

// Theorem8BoundOf is Theorem8Bound for an already computed minMM.
func (h *H) Theorem8BoundOf(minMM int) int { return max(minMM-h.MaxHEdge()+1, 1) }
