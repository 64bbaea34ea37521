package imm

import (
	"slices"

	"repro/internal/counter"
	"repro/internal/sched"
)

// prefixBelow returns how many of post's ascending set ids lie below
// lim — a vertex's occurrence count within a truncated pool view.
// Only a segment that straddles the horizon is searched; the common
// cases (empty, wholly below, wholly beyond) cost one or two compares.
func prefixBelow(post []int32, lim int32) int {
	n := len(post)
	if n == 0 || post[0] >= lim {
		return 0
	}
	if post[n-1] < lim {
		return n
	}
	lo, hi := 1, n-1 // post[lo-1] < lim <= post[hi]
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); post[mid] < lim {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// shardOwners returns, for every billing shard, the worker that
// sched.Static(workers, poolShards, ·) would run it on. The pop loop
// walks postings inline on the calling goroutine but still bills each
// posting to the worker owning its set's shard (id mod poolShards), so
// the modeled per-worker critical path is the one a shard-parallel walk
// would have produced.
func shardOwners(workers int) (owner [poolShards]int) {
	p := min(workers, poolShards)
	for wk := 0; wk < p; wk++ {
		for s := wk * poolShards / p; s < (wk+1)*poolShards/p; s++ {
			owner[s] = wk
		}
	}
	return owner
}

// localLimit returns how many ids below limit fall in billing shard s
// (ids s, s+poolShards, ...) — the shard's share of a pool view.
func localLimit(s int, limit int64) int {
	if int64(s) >= limit {
		return 0
	}
	return int((limit-1-int64(s))/poolShards) + 1
}

// Lazy-greedy (CELF) seed selection over the pool's inverted index.
//
// The eager kernel (SelectOnSetsScan) re-establishes the exact marginal
// gain of every vertex after every seed; CELF exploits submodularity —
// marginal coverage gain never increases as coverage grows — to keep
// cached gains as upper bounds in one max heap and recompute only the
// candidates that actually surface. A candidate is selected the moment
// its cached gain is known to be current, because every other cached
// gain is an upper bound that the heap order already places below it.
//
// Fork-joins open only for the passes whose work scales with the vertex
// count or with pool growth: index extension (when the pool grew) and
// initial gains. The heap is built and popped inline: a stale
// re-evaluation or a seed retirement walks one contiguous segment of a few
// dozen postings, far less than a fork-join costs. The modeled cost — the
// per-worker critical path plus the serial heap machinery — is that of
// the shard- and region-parallel kernel, computed as arithmetic: each
// posting is charged to the worker that owns its set's shard under the
// static shard partition (shardOwners); the heap build to the workers a
// static split of min(poolShards, n) contiguous vertex regions gives it;
// and every heap probe to a reduction over one top per region, plus
// log2 of the region's size per pop or re-key.
//
// Determinism: the heap orders by (gain desc, vertex asc), exactly the
// tie-break of the eager argmax. Gains are integers and the parallel
// passes only partition read-only postings, so the selected seed sequence
// is byte-identical to SelectOnSetsScan at any worker count. The tests
// pin this across worker counts and both set representations.
//
// Selection is restricted to the logically truncated pool view of global
// set ids below limit — the warm-serving seam. A pool physically grown to
// θ_max answers a query whose own trajectory stopped at θ = limit ≤ θ_max
// with exactly the seeds a cold pool of limit sets would have returned: a
// vertex's postings ascend by set id, so its view is the prefix below
// limit, and every gain computation, stale recompute, and coverage
// retirement stops at that horizon. base is only consulted for the full
// view; a truncated view derives its gains from posting prefixes (equal
// to the fused counts a cold run would have passed, because fusion merely
// pre-aggregates occurrence counts of the same sets).
//
// It is also the seam the pool's selection memo (selmemo.go) sits at: a
// (limit, k) this pool has already selected over, with no set below
// limit replaced since, is answered from the memo with a copy of the
// seeds and the modeled cost of the selection it stands for.
func (p *shardedPool) selectCELF(base *counter.Counter, workers, k int, limit int64) (seeds []int32, coverage float64, modeledOps float64) {
	if limit > p.count {
		limit = p.count
	}
	nsets := limit
	if limit < p.count {
		base = nil
	}
	n := int(p.n)
	w := max(workers, 1)
	if nsets == 0 || k == 0 {
		return nil, 0, 0
	}

	// A selection this pool has already run is not run again.
	key := selKey{limit: limit, k: k, workers: w, base: base != nil}
	if e := p.memo.lookup(key); e != nil {
		return slices.Clone(e.Seeds), e.Coverage, e.Ops
	}

	ops := make([]int64, w)
	var serial int64 // critical-path work of the sequential heap machinery

	// Bring the inverted index up to date with the pool. Only a pool that
	// grew since the last selection has anything to extend; a warm query
	// never does. The extension is billed to this call but kept out of
	// ops: what the memo stores is the selection's own cost, which is
	// what running it again on the now-current index would report.
	var indexOps []int64
	if !p.indexCurrent() {
		indexOps = make([]int64, w)
		p.ensureIndexed(w, indexOps)
	}

	// Clear the coverage scratch and hoist the view. Each shard's share of
	// the reset is its owner's.
	owner := shardOwners(w)
	p.covered.Reset()
	for s := range poolShards {
		ops[owner[s]] += int64(localLimit(s, p.indexed))/64 + 1
	}
	idx, data, covered := p.postIdx, p.postData, p.covered.Words()
	lim, whole := int32(limit), limit == p.indexed

	// Initial gains, written straight into the heap slab (slot v holds
	// vertex v until the heap is built): the fused base counter when it
	// is fresh (a streaming copy), else each vertex's occurrence count
	// within the view — an offset difference, or for a truncated view a
	// search of only the segments that straddle the horizon.
	if cap(p.heapScratch) < n {
		p.heapScratch = make([]counter.GainItem, n)
	}
	items := p.heapScratch[:n]
	if base != nil {
		src := base.Raw()
		sched.Static(w, n, func(wk, lo, hi int) {
			for v := lo; v < hi; v++ {
				items[v] = counter.GainItem{Gain: src[v], Vertex: int32(v)}
			}
			ops[wk] += int64(hi-lo)/8 + 1
		})
	} else {
		sched.Static(w, n, func(wk, lo, hi int) {
			a := idx[lo]
			for v := lo; v < hi; v++ {
				b := idx[v+1]
				g := b - a
				if !whole && a < b {
					g = int64(prefixBelow(data[a:b], lim))
				}
				items[v] = counter.GainItem{Gain: g, Vertex: int32(v)}
				a = b
			}
			ops[wk] += int64(hi - lo)
		})
	}

	// One max-gain heap, heapified in place over the slab. Its bill is
	// that of min(poolShards, n) region heaps over contiguous vertex
	// ranges [r·n/regions, (r+1)·n/regions), built by sched.Static's
	// workers: a worker's regions are contiguous, so it pays for the
	// vertices from its first region's start to its last one's end.
	heap := counter.NewGainHeap(items)
	heap.Init()
	regions := min(poolShards, n)
	var regionLen [poolShards]int
	for r := range regions {
		regionLen[r] = (r+1)*n/regions - r*n/regions
	}
	pw := min(w, regions)
	for wk := range pw {
		ops[wk] += int64((wk+1)*regions/pw*n/regions - wk*regions/pw*n/regions)
	}

	// version[v] is the selection round v's cached gain was computed at;
	// a cached gain is exact iff nothing has been covered since. Round 0
	// gains are exact by construction, so the scratch must start zeroed.
	if cap(p.versionScratch) < n {
		p.versionScratch = make([]int32, n)
	}
	version := p.versionScratch[:n]
	clear(version)
	seeds = make([]int32, 0, k)
	var coveredCount, walks int64
	var walked [poolShards]int64 // postings walked, by the shard of their set

	for len(seeds) < k && len(seeds) < n {
		round := int32(len(seeds))
		chosen := int32(-1)
		for {
			// A probe is billed as the reduction over every region's top.
			best, ok := heap.Top()
			serial += int64(regions)
			if !ok {
				break // every vertex already selected
			}
			// Its region: the r with r·n/regions ≤ v < (r+1)·n/regions.
			r := ((int(best.Vertex)+1)*regions - 1) / n
			if version[best.Vertex] == round {
				// Exact gain on top: it dominates every cached upper
				// bound under (gain desc, id asc), so it is the argmax.
				heap.Pop()
				regionLen[r]--
				serial += int64(log2i(regionLen[r] + 1))
				chosen = best.Vertex
				break
			}
			// Stale: recompute the true gain by counting the vertex's
			// uncovered postings inside the view.
			v := best.Vertex
			var g int64
			for _, j := range data[idx[v]:idx[v+1]] {
				if j >= lim {
					break // beyond the view's horizon
				}
				walked[j&(poolShards-1)]++
				g += int64(^covered[uint32(j)>>6] >> (uint32(j) & 63) & 1)
			}
			walks++
			version[v] = round
			heap.UpdateTop(g)
			serial += int64(log2i(regionLen[r] + 1))
		}
		if chosen < 0 {
			break
		}
		seeds = append(seeds, chosen)

		// Retire the seed's coverage: walk its postings and mark the newly
		// covered sets. This is the whole counter maintenance — no
		// decrement/rebuild pass over set members.
		for _, j := range data[idx[chosen]:idx[chosen+1]] {
			if j >= lim {
				break // beyond the view's horizon
			}
			walked[j&(poolShards-1)]++
			word, bit := &covered[uint32(j)>>6], uint64(1)<<(uint32(j)&63)
			if *word&bit == 0 {
				*word |= bit
				coveredCount++
			}
		}
		walks++
	}
	// A walk is modeled as a visit to every shard: each shard's owner
	// takes the postings walked there plus one fixed unit per walk.
	for s, wk := range owner {
		ops[wk] += walked[s] + walks
	}
	coverage = float64(coveredCount) / float64(nsets)
	p.memo.store(key, seeds, coverage, float64(maxOf(ops))+float64(serial), n)
	for wk, o := range indexOps {
		ops[wk] += o
	}
	return seeds, coverage, float64(maxOf(ops)) + float64(serial)
}
