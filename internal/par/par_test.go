package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// withWorkers runs fn with the pool forced to the given width. The pool
// width is a process-global; tests using it must not run in parallel
// with each other.
func withWorkers(t *testing.T, w int, fn func()) {
	t.Helper()
	old := Workers
	Workers = w
	defer func() { Workers = old }()
	fn()
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 7, 64} {
		withWorkers(t, w, func() {
			const n = 153
			var hits [n]atomic.Int32
			var calls atomic.Int32
			ForEach(n, func(i int) {
				hits[i].Add(1)
				calls.Add(1)
			})
			if got := int(calls.Load()); got != n {
				t.Fatalf("workers=%d: %d calls, want %d", w, got, n)
			}
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("workers=%d: index %d hit %d times", w, i, hits[i].Load())
				}
			}
		})
	}
	ForEach(0, func(int) { t.Fatal("ForEach(0) must not call fn") })
}

func TestMapOrdersResults(t *testing.T) {
	withWorkers(t, 8, func() {
		out := Map(100, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
			}
		}
	})
}

func TestChunks(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {5, 4}, {8, 4}, {8, 1}, {3, 0}, {100, 7},
	} {
		covered := make([]int, tc.n)
		var mu sync.Mutex
		seen := map[int]bool{}
		got := Chunks(tc.n, tc.workers, func(w, lo, hi int) {
			if lo >= hi {
				t.Errorf("n=%d w=%d: empty chunk [%d,%d)", tc.n, tc.workers, lo, hi)
			}
			mu.Lock()
			if seen[w] {
				t.Errorf("n=%d: worker index %d reused", tc.n, w)
			}
			seen[w] = true
			mu.Unlock()
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		if tc.n == 0 {
			if got != 0 {
				t.Fatalf("n=0: got %d chunks", got)
			}
			continue
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d workers=%d: index %d covered %d times", tc.n, tc.workers, i, c)
			}
		}
	}
}

// privateExtent checks one PrivateSlice: the requested length, and a
// backing array that starts on a cache line and ends on one.
func privateExtent[T any](t *testing.T, n int) {
	t.Helper()
	s := PrivateSlice[T](n)
	size := unsafe.Sizeof(*new(T))
	if len(s) != n || cap(s) == 0 {
		t.Fatalf("PrivateSlice[%T](%d): len %d cap %d", *new(T), n, len(s), cap(s))
	}
	if bytes := uintptr(cap(s)) * size; bytes%cacheLine != 0 {
		t.Errorf("PrivateSlice[%T](%d): %d-byte array is not a whole number of lines", *new(T), n, bytes)
	}
	if at := uintptr(unsafe.Pointer(unsafe.SliceData(s))); at%cacheLine != 0 {
		t.Errorf("PrivateSlice[%T](%d): array at %#x is not line-aligned", *new(T), n, at)
	}
}

func TestPrivateSlice(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		privateExtent[bool](t, n)
		privateExtent[int32](t, n)
		privateExtent[uint64](t, n)
		privateExtent[[3]uint64](t, n)  // 24 bytes: does not divide a line
		privateExtent[[5]uint64](t, n)  // 40 bytes
		privateExtent[[24]uint64](t, n) // 192 bytes: a multiple of a line
	}
	if s := PrivateSlice[struct{}](5); len(s) != 5 {
		t.Fatalf("zero-size elements: len %d", len(s))
	}
}
