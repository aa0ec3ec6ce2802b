// Package par is the process-wide worker pool used by the experiment
// harness, the metrics procedures and the CLIs: independent simulation
// cells (topology, daemon, seed) fan out across Workers goroutines and
// write only their own result slots, so aggregated output stays
// deterministic at any pool width.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Workers is the pool width. It defaults to GOMAXPROCS; set it to 1 to
// force fully serial execution everywhere (ccsim/cccheck -j 1).
// Nested fan-outs may transiently exceed it in
// goroutine count; the Go scheduler still caps CPU parallelism at
// GOMAXPROCS.
var Workers = runtime.GOMAXPROCS(0)

// ForEach runs fn(i) for every i in [0, n) across the worker pool and
// returns when all calls completed. fn must not touch shared mutable
// state — each cell owns its inputs and writes only its own slot.
func ForEach(n int, fn func(i int)) {
	w := Workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map evaluates fn over [0, n) in parallel and returns the results in
// index order.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// ForEachWorker runs fn(w, i) for every i in [0, n) across at most
// `workers` goroutines (0 = the pool width), passing each invocation a
// stable worker index w in [0, workers). Scheduling is dynamic (an
// atomic cursor), so unlike Chunks the load balances even when item
// costs are skewed — the pattern the exhaustive explorer needs: workers
// own non-shareable scratch (one model instance each, selected by w)
// while any worker may pick up any item. fn must make its results
// deterministic in i alone (write only slot i, or merge through an
// order-insensitive structure); which worker runs which item is not.
func ForEachWorker(n, workers int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	w := workers
	if w <= 0 {
		w = Workers
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(g)
	}
	wg.Wait()
}

// Chunks splits [0, n) into at most `workers` contiguous chunks (0 =
// the pool width) and runs fn(w, lo, hi) for chunk w across the pool,
// returning the chunk count after all calls complete. Unlike ForEach,
// each invocation receives a stable worker index — the pattern needed
// when workers own non-shareable scratch (one model/engine instance per
// worker) and results must merge back in deterministic chunk order.
// Chunk w covers [lo, hi) with hi-lo within one of n/workers; fn is not
// called for empty chunks.
func Chunks(n, workers int, fn func(w, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	w := workers
	if w <= 0 {
		w = Workers
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	chunk := (n + w - 1) / w
	nchunks := (n + chunk - 1) / chunk // chunks actually invoked (≤ w)
	ForEach(nchunks, func(wi int) {
		lo, hi := wi*chunk, (wi+1)*chunk
		if hi > n {
			hi = n
		}
		fn(wi, lo, hi)
	})
	return nchunks
}

// cacheLine is the coherence granule PrivateSlice pads to: 64 bytes on
// amd64 and on the arm64 parts this module runs on.
const cacheLine = 64

// PrivateSlice returns a zeroed []T of length n whose backing array
// shares no cache line with any other allocation: its capacity is
// rounded up until the array is a whole number of 64-byte lines, and the
// Go allocator places an object whose size is a multiple of 64 on a
// 64-byte boundary with its size class to itself. It is for per-worker
// scratch written on a hot path. Small slices made back to back with
// plain make come from the same size-class span and sit in one line, so
// two workers writing "their own" scratch invalidate each other's cache
// on every store (false sharing).
func PrivateSlice[T any](n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	if size == 0 {
		return make([]T, n)
	}
	// The least element count whose bytes are a multiple of the line:
	// line / gcd(size, line), where the gcd is size's lowest set bit.
	unit := cacheLine / min(size&-size, cacheLine)
	return make([]T, n, (max(n, 1)+unit-1)/unit*unit)
}
