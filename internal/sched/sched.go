// Package sched provides the parallel execution primitives used by both
// IMM engines: a static range partitioner (the Ripples baseline's
// OpenMP-style "static" schedule), a dynamic chunked parallel-for (an
// atomic work cursor, the OpenMP "dynamic" schedule), and a
// producer/consumer work-stealing pool implementing the paper's dynamic
// job balancing for RRR-set generation.
//
// Workers are plain goroutines. The worker count is a parameter, not
// GOMAXPROCS: the experiments sweep 1..128 simulated workers on a small
// machine, with per-worker accounted work standing in for per-core time.
package sched

import (
	"sync"
	"sync/atomic"
)

// Static runs fn(worker, start, end) on p workers, giving worker w the
// contiguous range [w*n/p, (w+1)*n/p). This reproduces the baseline's
// fixed partitioning, including its imbalance when item costs vary. When
// the effective worker count is 1 (p == 1 or n == 1) fn runs on the
// caller's goroutine.
func Static(p, n int, fn func(worker, start, end int)) {
	if p < 1 {
		p = 1
	}
	if n <= 0 {
		return
	}
	if p > n {
		p = n
	}
	if p == 1 {
		fn(0, 0, n) // one partition: no goroutine, no WaitGroup
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		start := w * n / p
		end := (w + 1) * n / p
		if start == end {
			continue
		}
		wg.Add(1)
		go func(w, s, e int) {
			defer wg.Done()
			fn(w, s, e)
		}(w, start, end)
	}
	wg.Wait()
}

// Dynamic runs fn(worker, start, end) over [0,n) in chunks claimed from a
// shared atomic cursor. Chunk is the claim granularity; values of 16-64
// amortize the atomic while keeping tail imbalance small. When only one
// worker could claim anything (p == 1 or a single chunk) the chunks run
// on the caller's goroutine, as worker 0.
func Dynamic(p, n, chunk int, fn func(worker, start, end int)) {
	if p < 1 {
		p = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	if n <= 0 {
		return
	}
	if chunks := (n-1)/chunk + 1; p > chunks {
		p = chunks // a worker beyond the chunk count would claim nothing
	}
	if p == 1 {
		for start := 0; start < n; start += chunk {
			fn(0, start, min(start+chunk, n))
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	// The goroutines capture a never-reassigned copy: capturing chunk
	// itself would move it to the heap on entry, inline path included.
	step := chunk
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				start := int(cursor.Add(int64(step))) - step
				if start >= n {
					return
				}
				end := start + step
				if end > n {
					end = n
				}
				fn(w, start, end)
			}
		}(w)
	}
	wg.Wait()
}

// ForEach is Dynamic with per-item granularity, for convenience in tests
// and examples.
func ForEach(p, n int, fn func(worker, i int)) {
	Dynamic(p, n, 16, func(w, s, e int) {
		for i := s; i < e; i++ {
			fn(w, i)
		}
	})
}
