package imm

import (
	"sort"

	"repro/internal/cachesim"
	"repro/internal/graph"
	"repro/internal/memmodel"
)

// traceBinarySearchRange performs the sorted-list range location used by
// the Ripples kernel and feeds each probed element into the trace.
func traceBinarySearchRange(raw []int32, vl, vh int32, si int, touch func(int, int)) (int, int) {
	lo := sort.Search(len(raw), func(i int) bool {
		touch(si, i)
		return raw[i] >= vl
	})
	hi := lo + sort.Search(len(raw)-lo, func(i int) bool {
		touch(si, lo+i)
		return raw[lo+i] >= vh
	})
	return lo, hi
}

// traceContains performs a traced binary-search membership probe.
func traceContains(raw []int32, v int32, si int, touch func(int, int)) bool {
	i := sort.Search(len(raw), func(i int) bool {
		touch(si, i)
		return raw[i] >= v
	})
	return i < len(raw) && raw[i] == v
}

// traceEfficientSelection replays EFFICIENTIMM's set-partitioned kernel:
// one streaming pass over the partitioned sets to build the global
// counter, then per round a single containment probe per surviving set
// and a decrement walk over only the newly covered sets (decrement
// strategy; the rebuild path would touch even less on the skewed cases).
func traceEfficientSelection(g *graph.Graph, sets [][]int32, k int,
	touchMember func(int, int), touchCounter func(int32), h *cachesim.Hierarchy, countersRegion memmodel.Region) {

	n := int(g.N)
	counts := make([]int64, n)
	// Fused/streaming count: each set is touched exactly once, in slab
	// order — the cache-friendly pattern partitioning buys.
	for si, raw := range sets {
		for j, v := range raw {
			touchMember(si, j)
			counts[v]++
			touchCounter(v)
		}
	}
	covered := make([]bool, len(sets))
	for round := 0; round < k; round++ {
		v := argMaxPlain(counts, 1)
		if v < 0 {
			break
		}
		counts[v] = -1
		// Regional-maxima reduction reads the counter array once.
		h.AccessRange(countersRegion.Addr(0), int64(n)*8)
		for si, raw := range sets {
			if covered[si] {
				continue
			}
			if !traceContains(raw, v, si, touchMember) {
				continue
			}
			covered[si] = true
			for j, u := range raw {
				touchMember(si, j)
				if counts[u] >= 0 {
					counts[u]--
					touchCounter(u)
				}
			}
		}
	}
}
