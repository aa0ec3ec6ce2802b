package explore

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// Symmetry reduction — which permutations qualify, and why.
//
// Exploring modulo a permutation π is exact (same verdict, states
// quotiented into orbits) iff π is an automorphism of the *full
// labeled* transition system: it must preserve the hyperedge structure
// AND commute with every guard and body. The committee-coordination
// programs are deliberately asymmetric in one place — the totally
// ordered identifiers. CC1/CC2/CC3 break ties by maximum identifier
// (core.Alg.maxByID, the CC2 free-node election), the token layer
// elects the minimum identifier, and the dining baseline orients its
// initial forks toward the lower committee index and breaks request
// ties the same way (baseline/dining.go). A nontrivial rotation of a
// ring relabels identifiers cyclically, which is never order-preserving
// on a finite total order, so for those models the rotation is NOT an
// automorphism — quotienting by it would merge states with genuinely
// different futures. TestCCRingRotationNotAnAutomorphism exhibits a
// concrete witness.
//
// What remains symmetric is everything whose dynamics never read the
// identifier order across the permutation:
//
//   - the token-ring baseline: all guards are structural (committee
//     ring order, membership, conflicts), so a hypergraph rotation that
//     also rotates the committee ring order is a full automorphism;
//   - the CC algorithms on topologies whose communication graph splits
//     into order-isomorphic single-committee components (disjoint:K,S):
//     identifiers are only ever compared within a component, and the
//     block permutation maps the k-th smallest identifier of one
//     component to the k-th smallest of another — order-preserving in
//     every comparison any guard performs. (Gated off for InitRandom,
//     which can corrupt a believed-leader id to a foreign component's,
//     reintroducing cross-component comparisons.)
//
// Every declared group is validated empirically by the equivariance
// tests (CheckEquivariance): succ(π(s)) must equal π(succ(s)) as sets.

// ringRotationPerms returns the vertex and edge permutations of the
// generator rotation v ↦ v+1 (mod n) if it is a hypergraph automorphism
// whose induced edge map is itself a cyclic shift of the committee
// indices; ok is false otherwise. CommitteeRing(n) satisfies this with
// eperm(e) = e+1 (mod n).
func ringRotationPerms(h *hypergraph.H) (vperm, eperm []int, ok bool) {
	n, m := h.N(), h.M()
	vperm = make([]int, n)
	for v := 0; v < n; v++ {
		vperm[v] = (v + 1) % n
	}
	eperm = make([]int, m)
	img := make([]int, 0, 8)
	for e := 0; e < m; e++ {
		img = img[:0]
		for _, v := range h.Edge(e) {
			img = append(img, vperm[v])
		}
		sort.Ints(img)
		to := -1
		for f := 0; f < m; f++ {
			if edgeEquals(h.Edge(f), img) {
				to = f
				break
			}
		}
		if to < 0 {
			return nil, nil, false
		}
		eperm[e] = to
	}
	for e := 0; e < m; e++ {
		if eperm[(e+1)%m] != (eperm[e]+1)%m {
			return nil, nil, false
		}
	}
	return vperm, eperm, true
}

func edgeEquals(e hypergraph.Edge, sorted []int) bool {
	if len(e) != len(sorted) {
		return false
	}
	for i, v := range e {
		if sorted[i] != v {
			return false
		}
	}
	return true
}

// composePerm returns a ∘ b (first b, then a).
func composePerm(a, b []int) []int {
	out := make([]int, len(a))
	for i := range out {
		out[i] = a[b[i]]
	}
	return out
}

func isIdentity(p []int) bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

// tokenRingSyms builds the rotation group of the token-ring baseline
// over h, or nil when h admits no ring rotation. Baseline processes are
// n professors followed by m committee agents; a rotation maps
// professor v to vperm[v] and agent n+e to n+eperm[e], relabeling Club
// pointers through eperm. The token-ring dynamics are identifier-free
// and structural, so each rotation is a full automorphism (validated by
// TestTokenRingRotationEquivariance).
func tokenRingSyms(h *hypergraph.H) []func(dst, src []baseline.BState) {
	gv, ge, ok := ringRotationPerms(h)
	if !ok {
		return nil
	}
	n := h.N()
	var syms []func(dst, src []baseline.BState)
	vp, ep := gv, ge
	for !isIdentity(vp) {
		vperm, eperm := vp, ep
		syms = append(syms, func(dst, src []baseline.BState) {
			for p := 0; p < n; p++ {
				s := src[p]
				if s.Club != -1 {
					s.Club = eperm[s.Club]
				}
				dst[vperm[p]] = s
			}
			for e := 0; e < len(eperm); e++ {
				dst[n+eperm[e]] = src[n+e]
			}
		})
		vp, ep = composePerm(gv, vp), composePerm(ge, ep)
	}
	return syms
}

// ccBlockSyms builds the block-permutation group of a CC model whose
// communication graph splits into order-isomorphic single-committee
// components (the disjoint:K,S family), or nil when the topology does
// not qualify. Identifier-valued state (TC.Lid) is relabeled through
// the permutation's induced identifier map, which is order-preserving
// within every component — the property that makes these (and only
// these) permutations automorphisms of the identifier-reading CC
// dynamics.
func ccBlockSyms(alg *core.Alg) []func(dst, src []core.State) {
	h := alg.H
	n, m := h.N(), h.M()
	comps := h.Components()
	if len(comps) < 2 || len(comps) > 6 { // k! canonicalization cost cap
		return nil
	}
	// Each component must be the member set of exactly one committee,
	// and all committees must have the same size.
	blockEdge := make([]int, len(comps))
	size := len(h.Edge(0))
	for e := 0; e < m; e++ {
		if len(h.Edge(e)) != size {
			return nil
		}
	}
	if m != len(comps) {
		return nil
	}
	byID := make([][]int, len(comps)) // component vertices sorted by identifier
	for b, comp := range comps {
		if len(comp) != size {
			return nil
		}
		vs := append([]int(nil), comp...)
		sort.Slice(vs, func(i, j int) bool { return h.ID(vs[i]) < h.ID(vs[j]) })
		byID[b] = vs
		e := h.EdgesOf(vs[0])
		if len(e) != 1 {
			return nil
		}
		blockEdge[b] = e[0]
	}

	var syms []func(dst, src []core.State)
	permuteBlocks(len(comps), func(bp []int) {
		if isIdentity(bp) {
			return
		}
		vperm := make([]int, n)
		eperm := make([]int, m)
		for b, to := range bp {
			for i, v := range byID[b] {
				vperm[v] = byID[to][i]
			}
			eperm[blockEdge[b]] = blockEdge[to]
		}
		syms = append(syms, ccPermSym(alg, vperm, eperm))
	})
	return syms
}

// ccPermSym builds the state map of one CC permutation: vertex fields
// through vperm, edge pointers through eperm, identifiers through the
// induced identifier relabeling, and the CC3 cursor through the local
// incidence orders.
func ccPermSym(alg *core.Alg, vperm, eperm []int) func(dst, src []core.State) {
	h := alg.H
	n := h.N()
	idmap := make(map[int]int, n) // identifier → permuted identifier
	for v := 0; v < n; v++ {
		idmap[h.ID(v)] = h.ID(vperm[v])
	}
	return func(dst, src []core.State) {
		for p := 0; p < n; p++ {
			s := src[p]
			q := vperm[p]
			if s.P != core.NoEdge {
				s.P = eperm[s.P]
			}
			// The cursor is a local index into E_p; transport it through
			// the edge permutation into E_q's order.
			if ep := h.EdgesOf(p); len(ep) > 1 {
				s.R = localPos(h.EdgesOf(q), eperm[ep[s.R%len(ep)]])
			}
			if to, ok := idmap[s.TC.Lid]; ok {
				s.TC.Lid = to
			}
			if s.TC.Parent != -1 {
				s.TC.Parent = vperm[s.TC.Parent]
			}
			if s.TC.Des != -1 {
				s.TC.Des = vperm[s.TC.Des]
			}
			dst[q] = s
		}
	}
}

// permuteBlocks invokes fn with every permutation of [0, k) (Heap's
// algorithm; fn must not retain the slice).
func permuteBlocks(k int, fn func(p []int)) {
	p := make([]int, k)
	for i := range p {
		p[i] = i
	}
	c := make([]int, k)
	fn(p)
	i := 0
	for i < k {
		if c[i] < i {
			if i%2 == 0 {
				p[0], p[i] = p[i], p[0]
			} else {
				p[c[i]], p[i] = p[i], p[c[i]]
			}
			fn(p)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// CheckEquivariance verifies that every declared automorphism of the
// model commutes with the successor relation at cfg: the encoded
// successor set of π(cfg) must equal the π-image of the encoded
// successor set of cfg. Returns the first discrepancy. This is the
// empirical soundness check behind every Syms declaration (and the
// witness that CC rings cannot declare one).
func CheckEquivariance[S sim.Cloneable[S]](m *Model[S], cfg []S, mode sim.SelectionMode) error {
	n := m.Prog.NumProcs
	enc := make([]uint64, m.Codec.Words)
	img := make([]S, n)
	succSet := func(c []S) map[string]bool {
		set := make(map[string]bool)
		rng := rand.New(rand.NewSource(1))
		sim.Successors(m.Prog, c, mode, rng, 1<<16, func(_ []int, nxt []S) bool {
			m.Codec.Encode(enc, nxt)
			set[wordsString(enc)] = true
			return true
		})
		return set
	}
	base := succSet(cfg)
	for si, sym := range m.Syms {
		sym(img, cfg)
		// π-image of the base successor set.
		want := make(map[string]bool, len(base))
		tmp := make([]S, n)
		symSucc := make([]S, n)
		for k := range base {
			wordsFromString(k, enc)
			m.Codec.Decode(tmp, enc)
			sym(symSucc, tmp)
			m.Codec.Encode(enc, symSucc)
			want[wordsString(enc)] = true
		}
		got := succSet(img)
		if len(got) != len(want) {
			return fmt.Errorf("automorphism %d: %d successors of the image vs %d image successors", si, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				return fmt.Errorf("automorphism %d: an image successor is not a successor of the image", si)
			}
		}
	}
	return nil
}

func wordsString(w []uint64) string {
	b := make([]byte, 0, 8*len(w))
	for _, x := range w {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(x>>s))
		}
	}
	return string(b)
}

func wordsFromString(s string, dst []uint64) {
	for i := range dst {
		var x uint64
		for j := 7; j >= 0; j-- {
			x = x<<8 | uint64(s[i*8+j])
		}
		dst[i] = x
	}
}
