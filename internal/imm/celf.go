package imm

import (
	"math/bits"
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

// rowBelow returns how many of row's set ids lie below lim: a popcount
// of the words below the horizon.
func rowBelow(row []uint64, lim int32) (c int) {
	full := int(lim >> 6)
	for _, w := range row[:full] {
		c += bits.OnesCount64(w)
	}
	if tail := lim & 63; tail != 0 {
		c += bits.OnesCount64(row[full] & (1<<tail - 1))
	}
	return c
}

// ownerMasks returns, for each of the first min(workers, poolShards)
// owners under shardOwners, the bits of a 64-set word whose set ids lie in
// the owner's shards: bit b is set j = 64·i + b, of shard b mod poolShards.
func ownerMasks(workers int) (masks [poolShards]uint64) {
	for s, wk := range shardOwners(workers) {
		masks[wk] |= 0x0001_0001_0001_0001 << s
	}
	return masks
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
// The eager kernel (selectScan) re-establishes the exact marginal
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
// is byte-identical to selectScan at any worker count. The tests
// pin this across worker counts and both set representations.
//
// Selection is restricted to the logically truncated pool view of global
// set ids below limit — the warm-serving seam. A pool physically grown to
// θ_max answers a query whose own trajectory stopped at θ = limit ≤ θ_max
// with exactly the seeds a cold pool of limit sets would have returned: a
// vertex's postings ascend by set id, so its view is the prefix below
// limit (for a row, the words below it), and every gain computation,
// stale recompute, and coverage retirement stops at that horizon.
//
// A vertex that keeps a row is re-evaluated as popcount(row &^ covered)
// word by word, and retired by OR-ing the row into the coverage words; the
// bill still counts each of its postings in the view, per owner, as a
// masked popcount (ownerMasks). fused says the full view's initial gains
// are the occurrence counts kernel fusion folded into the index as it
// built it, a streaming copy billed like one; otherwise — fusion off, or
// a truncated view — they are billed as counted per vertex. It only
// shapes the bill and the memo key: the gains are the same counts.
//
// It is also the seam the pool's selection memo (selmemo.go) sits at: a
// (limit, k) this pool has already selected over, with no set below
// limit replaced since, is answered from the memo with a copy of the
// seeds and the modeled cost of the selection it stands for.
func (p *shardedPool) selectCELF(fused bool, workers, k int, limit int64) (seeds []int32, coverage float64, modeledOps float64) {
	if limit > p.count {
		limit = p.count
	}
	nsets := limit
	if limit < p.count {
		fused = false
	}
	n := int(p.n)
	w := max(workers, 1)
	if nsets == 0 || k == 0 {
		return nil, 0, 0
	}

	// A selection this pool has already run is not run again.
	key := selKey{limit: limit, k: k, workers: w, base: fused}
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
	ix, covered := &p.post, p.covered.Words()
	lim, whole := int32(limit), limit == p.indexed

	// Initial gains, written straight into the heap slab (slot v holds
	// vertex v until the heap is built): each vertex's occurrence count
	// within the view — an offset difference, or for a truncated view a
	// count of only the postings below the horizon.
	if cap(p.heapScratch) < n {
		p.heapScratch = make([]counter.GainItem, n)
	}
	items := p.heapScratch[:n]
	sched.Static(w, n, func(wk, lo, hi int) {
		a := ix.idx[lo]
		for v := int32(lo); v < int32(hi); v++ {
			b := ix.idx[v+1]
			g := b - a
			if !whole && a < b {
				if list, row := ix.at(v); row != nil {
					g = int64(rowBelow(row, lim))
				} else {
					g = int64(prefixBelow(list, lim))
				}
			}
			items[v] = counter.GainItem{Gain: g, Vertex: v}
			a = b
		}
		if fused {
			ops[wk] += int64(hi-lo)/8 + 1
		} else {
			ops[wk] += int64(hi - lo)
		}
	})

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
	var walked [poolShards]int64    // list postings walked, by the shard of their set
	var rowWalked [poolShards]int64 // row postings walked, by owner
	masks, owners := ownerMasks(w), min(w, poolShards)
	words := int(lim+63) >> 6 // the view's coverage words; the last ends at lim
	// walk counts v's uncovered postings inside the view, marks them
	// covered when retire is set, and bills them: a list's posting by
	// posting up to the view's horizon, a row's word by word.
	walk := func(v int32, retire bool) (g int64) {
		walks++
		list, row := ix.at(v)
		for wi, x := range row[:min(len(row), words)] {
			if wi == words-1 && lim&63 != 0 {
				x &= 1<<(lim&63) - 1
			}
			g += int64(bits.OnesCount64(x &^ covered[wi]))
			if retire {
				covered[wi] |= x
			}
			for o, m := range masks[:owners] {
				rowWalked[o] += int64(bits.OnesCount64(x & m))
			}
		}
		for _, j := range list {
			if j >= lim {
				break // beyond the view's horizon
			}
			walked[j&(poolShards-1)]++
			word, bit := &covered[uint32(j)>>6], uint64(1)<<(uint32(j)&63)
			if *word&bit == 0 {
				g++
				if retire {
					*word |= bit
				}
			}
		}
		return g
	}

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
			version[best.Vertex] = round
			heap.UpdateTop(walk(best.Vertex, false))
			serial += int64(log2i(regionLen[r] + 1))
		}
		if chosen < 0 {
			break
		}
		seeds = append(seeds, chosen)

		// Retire the seed's coverage: mark the sets its postings name as
		// covered. This is the whole counter maintenance — no
		// decrement/rebuild pass over set members.
		coveredCount += walk(chosen, true)
	}
	// A walk is modeled as a visit to every shard: each shard's owner
	// takes the postings walked there plus one fixed unit per walk.
	for s, wk := range owner {
		ops[wk] += walked[s] + walks
	}
	for o, c := range rowWalked[:owners] {
		ops[o] += c
	}
	coverage = float64(coveredCount) / float64(nsets)
	p.memo.store(key, seeds, coverage, float64(maxOf(ops))+float64(serial), n)
	for wk, o := range indexOps {
		ops[wk] += o
	}
	return seeds, coverage, float64(maxOf(ops)) + float64(serial)
}
