package hypergraph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestIsMatching(t *testing.T) {
	h := Figure1()
	if !h.IsMatching([]int{0, 3}) { // {1,2} and {3,6} disjoint
		t.Error("{0,3} should be a matching")
	}
	if h.IsMatching([]int{0, 1}) { // share vertices 0,1
		t.Error("{0,1} should not be a matching")
	}
	if !h.IsMatching(nil) {
		t.Error("empty set is a matching")
	}
}

func TestMaximalMatchingsFigure2(t *testing.T) {
	h := Figure2() // edges e0={0,1}, e1={0,2,4}, e2={2,3}
	mms := h.MaximalMatchings()
	// Matchings: {e0,e2} maximal; {e1} maximal (blocks e0 via 0, e2 via 2);
	// {e0} not maximal (e2 addable); {e2} not maximal; {e1} maximal.
	want := [][]int{{0, 2}, {1}}
	sortMatchings(mms)
	sortMatchings(want)
	if !reflect.DeepEqual(mms, want) {
		t.Fatalf("MM(fig2) = %v, want %v", mms, want)
	}
	size, witness := h.MinMaximalMatching()
	if size != 1 || !reflect.DeepEqual(witness, []int{1}) {
		t.Fatalf("minMM = %d (%v), want 1 ({1})", size, witness)
	}
	maxSize, _ := h.MaxMatching()
	if maxSize != 2 {
		t.Fatalf("max matching = %d, want 2", maxSize)
	}
}

func TestMaximalMatchingsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(6)
		m := n - 1 + rng.Intn(4)
		h := RandomMixed(n, m, 3, rng)
		mms := h.MaximalMatchings()
		if len(mms) == 0 {
			t.Fatal("non-empty hypergraph must have at least one maximal matching")
		}
		for _, mm := range mms {
			if !h.IsMaximalMatching(mm, nil) {
				t.Fatalf("enumerated matching %v not maximal in %v", mm, h)
			}
		}
		// Distinctness.
		seen := map[string]bool{}
		for _, mm := range mms {
			k := Edge(mm).String()
			if seen[k] {
				t.Fatalf("duplicate maximal matching %v", mm)
			}
			seen[k] = true
		}
	}
}

// TestEnumerateMaximalMatchingsOrder: the pruned search yields exactly
// the maximal matchings a brute force over every edge subset finds, in
// the same order — skip before take, edge 0 deciding first, is counting
// in binary with edge 0 as the most significant bit — masked or not.
func TestEnumerateMaximalMatchingsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(6)
		m := n - 1 + rng.Intn(4)
		h := RandomMixed(n, m, 3, rng)
		var mask []bool
		if trial%2 == 1 {
			mask = make([]bool, h.M())
			for ei := range mask {
				mask[ei] = rng.Intn(4) > 0
			}
		}
		var want [][]int
		for x := 0; x < 1<<h.M(); x++ {
			var mm []int
			for ei := 0; ei < h.M(); ei++ {
				if x>>(h.M()-1-ei)&1 == 1 {
					mm = append(mm, ei)
				}
			}
			if h.IsMaximalMatching(mm, mask) {
				want = append(want, mm)
			}
		}
		var got [][]int
		h.EnumerateMaximalMatchings(mask, func(mm []int) bool {
			got = append(got, append([]int(nil), mm...))
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%v mask %v: %d maximal matchings, brute force %d", h, mask, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%v mask %v: matching %d is %v, brute force %v", h, mask, i, got[i], want[i])
			}
		}
	}
}

// TestMinMaximalMatchingWithin: an unbounded or sufficient budget gives
// MinMaximalMatching's exact answer, a short one says it stopped.
func TestMinMaximalMatchingWithin(t *testing.T) {
	h := CommitteeRing(12)
	count := len(h.MaximalMatchings())
	exactMin, _ := h.MinMaximalMatching()
	for _, budget := range []int{0, count, count + 1} {
		if got, _, exact := h.MinMaximalMatchingWithin(budget); got != exactMin || !exact {
			t.Fatalf("budget %d: minMM %d exact=%v, want %d exact", budget, got, exact, exactMin)
		}
	}
	if got, w, exact := h.MinMaximalMatchingWithin(count - 1); exact || got < exactMin || len(w) != got {
		t.Fatalf("budget %d of %d: minMM %d (witness %v) exact=%v, want an upper bound, not exact", count-1, count, got, w, exact)
	}
}

func TestIsMaximalMatchingMask(t *testing.T) {
	h := Figure2()
	mask := []bool{true, false, true} // forbid e1
	// With e1 removed, {e0,e2} is the unique maximal matching.
	if !h.IsMaximalMatching([]int{0, 2}, mask) {
		t.Error("{0,2} should be maximal under mask")
	}
	if h.IsMaximalMatching([]int{0}, mask) {
		t.Error("{0} is extensible by e2 under mask")
	}
	if h.IsMaximalMatching([]int{1}, mask) {
		t.Error("matchings using masked-out edges are invalid")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	h := CompletePairs(6)
	count := 0
	h.EnumerateMaximalMatchings(nil, func(m []int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop failed: %d callbacks", count)
	}
}

func TestMinMaximalMatchingKnownValues(t *testing.T) {
	cases := []struct {
		name string
		h    *H
		want int
	}{
		// Path with 4 edges {01,12,23,34}: smallest maximal matching {12,34}? no:
		// {12} blocks 01,23 but 34 free -> {12,34} wait that's size2... try {12}: 34 addable.
		// Known: min maximal matching of P5 (5 vertices path) = 2.
		{"path5", CommitteePath(5), 2},
		// Ring of 6: min maximal matching of C6 = 2.
		{"ring6", CommitteeRing(6), 2},
		// Star: every maximal matching has exactly 1 edge.
		{"star6", Star(6), 1},
		// Disjoint: the unique maximal matching takes all k edges.
		{"disjoint4", DisjointCommittees(4, 2), 4},
		// Chain of triples {012},{234},{456}: {234} alone is maximal -> 1.
		{"triples3", ChainOfTriples(3), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, witness := c.h.MinMaximalMatching()
			if got != c.want {
				t.Fatalf("minMM = %d (%v), want %d", got, witness, c.want)
			}
			if !c.h.IsMaximalMatching(witness, nil) {
				t.Fatalf("witness %v not a maximal matching", witness)
			}
		})
	}
}

func TestMinMaximalNoEdges(t *testing.T) {
	h := MustNew(3, nil)
	size, w := h.MinMaximalMatching()
	if size != 0 || w != nil {
		t.Fatalf("edgeless: got %d %v", size, w)
	}
}

func TestAlmostMatchings(t *testing.T) {
	// Figure 2: e1 = {0,2,4} (paper's {1,3,5}). Take eps=e1, X={4} (prof 5).
	// H_X keeps e0={0,1}, e2={2,3} (both avoid vertex 4), drops e1.
	// MM of H_X = { {e0,e2} }. Almost requires members of e1 \ X = {0,2}
	// covered: e0 covers 0, e2 covers 2. So Almost(e1,{4}) = {{e0,e2}}.
	h := Figure2()
	var got [][]int
	h.AlmostMatchings(1, []int{4}, func(m []int) bool {
		c := append([]int(nil), m...)
		sort.Ints(c)
		got = append(got, c)
		return true
	})
	want := [][]int{{0, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Almost(e1,{4}) = %v, want %v", got, want)
	}
}

func TestAlmostMatchingsCoverageFilter(t *testing.T) {
	// Chain of triples {0,1,2},{2,3,4}: eps = e0, X = {0}.
	// H_X keeps only e1 (e0 contains 0). MM(H_X) = {{e1}}.
	// Need coverage of e0 \ X = {1,2}: e1 covers 2 but not 1 -> Almost empty.
	h := ChainOfTriples(2)
	count := 0
	h.AlmostMatchings(0, []int{0}, func(m []int) bool {
		count++
		return true
	})
	if count != 0 {
		t.Fatalf("Almost should be empty, got %d matchings", count)
	}
	// With X = {0,1}, need coverage of {2}: e1 covers 2 -> one matching.
	count = 0
	h.AlmostMatchings(0, []int{0, 1}, func(m []int) bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("Almost({0,1}) should have 1 matching, got %d", count)
	}
}

func TestMinAMMAndBounds(t *testing.T) {
	for _, c := range []struct {
		name string
		h    *H
	}{
		{"fig1", Figure1()},
		{"fig2", Figure2()},
		{"fig4", Figure4()},
		{"ring8", CommitteeRing(8)},
		{"path6", CommitteePath(6)},
		{"triples4", ChainOfTriples(4)},
		{"star5", Star(5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			minMM, _ := c.h.MinMaximalMatching()
			amm, _ := c.h.MinAMM()
			ammP, _ := c.h.MinAMMPrime()
			// Theorem 4 target is min over MM ∪ AMM <= minMM.
			if amm > minMM {
				t.Fatalf("min(MM∪AMM)=%d > minMM=%d", amm, minMM)
			}
			if ammP > minMM {
				t.Fatalf("min(MM∪AMM')=%d > minMM=%d", ammP, minMM)
			}
			// AMM' ⊇ AMM (ranges over more edges), so its min can only be <=.
			if ammP > amm {
				t.Fatalf("min over AMM'=%d > min over AMM=%d", ammP, amm)
			}
			// Theorem 5: min(MM∪AMM) >= minMM - MaxMin + 1.
			if b := c.h.Theorem5Bound(); amm < b {
				t.Fatalf("Theorem 5 violated: min(MM∪AMM)=%d < bound %d", amm, b)
			}
			// Theorem 8: min(MM∪AMM') >= minMM - MaxHEdge + 1.
			if b := c.h.Theorem8Bound(); ammP < b {
				t.Fatalf("Theorem 8 violated: min(MM∪AMM')=%d < bound %d", ammP, b)
			}
		})
	}
}

func TestTheoremBoundsFloorAtOne(t *testing.T) {
	// Star: minMM = 1, MaxMin = 2 -> raw bound 0, floored to 1.
	h := Star(6)
	if b := h.Theorem5Bound(); b != 1 {
		t.Fatalf("star Theorem5Bound = %d, want 1", b)
	}
	if b := h.Theorem8Bound(); b != 1 {
		t.Fatalf("star Theorem8Bound = %d, want 1", b)
	}
}

func TestTheoremBoundsProperty(t *testing.T) {
	// Property over random hypergraphs: Theorem 5 and 8 inequalities hold
	// for the exactly computed minima.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		m := n - 1 + rng.Intn(3)
		h := RandomMixed(n, m, 3, rng)
		amm, _ := h.MinAMM()
		ammP, _ := h.MinAMMPrime()
		return amm >= h.Theorem5Bound() && ammP >= h.Theorem8Bound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sortMatchings(ms [][]int) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
