// Package counter implements the global vertex-occurrence counter at the
// heart of EFFICIENTIMM's Find_Most_Influential_Set: a flat array of
// 64-bit counters updated with fine-grained atomic adds (the paper's
// `lock incq` discipline — one quadword locked per update, no wider
// locking), and the two-step parallel argmax reduction (per-worker
// regional maxima, then a reduction over the regions). Key types:
// Counter (the array plus its ArgMax), UpdateStrategy with
// ChooseRebuild (the adaptive decrement-vs-rebuild retirement of §IV.C),
// and GainHeap (the max-heap behind CELF's lazy selection). The argmax
// and heap order share one tie-break — gain descending, vertex id
// ascending — which is the invariant that keeps every selection kernel
// byte-identical.
package counter

import (
	"sync"
	"sync/atomic"
)

// Counter is a global occurrence counter over n vertices. All methods
// except Reset and the reductions are safe for concurrent use.
type Counter struct {
	counts []int64
}

// New returns a counter for n vertices, all zero.
func New(n int32) *Counter {
	return &Counter{counts: make([]int64, n)}
}

// Len returns the number of vertices covered.
func (c *Counter) Len() int32 { return int32(len(c.counts)) }

// Inc atomically increments the count of vertex v.
func (c *Counter) Inc(v int32) { atomic.AddInt64(&c.counts[v], 1) }

// Dec atomically decrements the count of vertex v.
func (c *Counter) Dec(v int32) { atomic.AddInt64(&c.counts[v], -1) }

// Get atomically reads the count of vertex v.
func (c *Counter) Get(v int32) int64 { return atomic.LoadInt64(&c.counts[v]) }

// Reset zeroes all counters. Callers must quiesce writers first.
func (c *Counter) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
}

// Raw exposes the backing slice for instrumented kernels (address
// generation for the cache simulator). Do not mutate concurrently with
// atomic updates through the Counter API.
func (c *Counter) Raw() []int64 { return c.counts }

// Snapshot copies the current counts into dst (allocating if nil) and
// returns it.
func (c *Counter) Snapshot(dst []int64) []int64 {
	if cap(dst) < len(c.counts) {
		dst = make([]int64, len(c.counts))
	}
	dst = dst[:len(c.counts)]
	for i := range c.counts {
		dst[i] = atomic.LoadInt64(&c.counts[i])
	}
	return dst
}

// Regional is the per-worker partial result of the first reduction step.
type Regional struct {
	Vertex int32
	Count  int64
}

// ArgMax runs the paper's two-step parallel reduction with p workers:
// each worker scans a contiguous vertex range for its regional maximum,
// then the p regional maxima are reduced sequentially (p is small). Ties
// break toward the lower vertex id so results are deterministic.
func (c *Counter) ArgMax(p int) Regional {
	n := len(c.counts)
	if n == 0 {
		return Regional{Vertex: -1}
	}
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	regions := make([]Regional, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo, hi := w*n/p, (w+1)*n/p
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			best := Regional{Vertex: int32(lo), Count: atomic.LoadInt64(&c.counts[lo])}
			for v := lo + 1; v < hi; v++ {
				if cnt := atomic.LoadInt64(&c.counts[v]); cnt > best.Count {
					best = Regional{Vertex: int32(v), Count: cnt}
				}
			}
			regions[w] = best
		}(w, lo, hi)
	}
	wg.Wait()
	best := regions[0]
	for _, r := range regions[1:] {
		if r.Count > best.Count || (r.Count == best.Count && r.Vertex < best.Vertex) {
			best = r
		}
	}
	return best
}

// SequentialArgMax is the reference single-pass scan used by tests and by
// the 1-worker configurations.
func (c *Counter) SequentialArgMax() Regional {
	if len(c.counts) == 0 {
		return Regional{Vertex: -1}
	}
	best := Regional{Vertex: 0, Count: c.counts[0]}
	for v := 1; v < len(c.counts); v++ {
		if c.counts[v] > best.Count {
			best = Regional{Vertex: int32(v), Count: c.counts[v]}
		}
	}
	return best
}

// GainItem is one candidate in a lazy-greedy (CELF) selection: a vertex
// and its cached marginal gain (an upper bound once coverage advances —
// marginal coverage gain is non-increasing under the greedy).
type GainItem struct {
	Gain   int64
	Vertex int32
}

// gainLess is the CELF priority order: higher gain first, ties toward
// the lower vertex id. The tie-break matches ArgMax, which is what makes
// lazy selection return byte-identical seeds to the eager argmax scan at
// any worker count.
func gainLess(a, b GainItem) bool {
	return a.Gain > b.Gain || (a.Gain == b.Gain && a.Vertex < b.Vertex)
}

// GainHeap is a deterministic binary max-heap of GainItems, the one
// priority queue of the CELF selection. It supports exactly the
// operations that selection needs — bulk build, peek, pop, and re-keying
// the current top — so there is no position index to maintain.
type GainHeap struct {
	items []GainItem
}

// NewGainHeap returns a heap that adopts items, in any order, as its
// storage and contents; call Init before the first Top. The selection
// kernel builds its heap over a vertex slab it keeps across selections
// this way, so a selection allocates no heap storage.
func NewGainHeap(items []GainItem) GainHeap {
	return GainHeap{items: items}
}

// Init establishes the heap invariant over the adopted items in O(n).
func (h *GainHeap) Init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Top returns the best candidate without removing it.
func (h *GainHeap) Top() (GainItem, bool) {
	if len(h.items) == 0 {
		return GainItem{}, false
	}
	return h.items[0], true
}

// Pop removes and returns the best candidate.
func (h *GainHeap) Pop() (GainItem, bool) {
	if len(h.items) == 0 {
		return GainItem{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top, true
}

// UpdateTop re-keys the current top with a recomputed gain and restores
// the invariant — the CELF lazy-reinsertion step. Panics on an empty
// heap.
func (h *GainHeap) UpdateTop(gain int64) {
	h.items[0].Gain = gain
	h.siftDown(0)
}

func (h *GainHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && gainLess(h.items[r], h.items[l]) {
			best = r
		}
		if !gainLess(h.items[best], h.items[i]) {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}

// UpdateStrategy selects how counts are corrected after a seed is chosen
// and its covered RRR sets are retired.
type UpdateStrategy int

const (
	// Decrement walks every covered set and decrements each member — the
	// straightforward scheme, quadratic-ish on skewed data where the top
	// seed covers most sets.
	Decrement UpdateStrategy = iota
	// Rebuild zeroes the counter and re-adds only surviving sets.
	Rebuild
	// AdaptiveUpdate picks Decrement or Rebuild per selection round by
	// comparing the work of each: decrement touches the covered sets,
	// rebuild touches the surviving ones. This is the paper's "Adaptive
	// Vertex Occurrence Counter Update".
	AdaptiveUpdate
)

func (u UpdateStrategy) String() string {
	switch u {
	case Decrement:
		return "decrement"
	case Rebuild:
		return "rebuild"
	case AdaptiveUpdate:
		return "adaptive"
	default:
		return "unknown"
	}
}

// ChooseRebuild reports whether the adaptive strategy should rebuild,
// given the total member count of covered sets versus surviving sets.
// The decision is pure work comparison: rebuilding re-adds survivors
// plus a zeroing pass, decrementing touches covered members.
func ChooseRebuild(coveredMembers, survivingMembers, vertices int64) bool {
	rebuildWork := survivingMembers + vertices/8 // zeroing is a cheap streaming pass
	return rebuildWork < coveredMembers
}
