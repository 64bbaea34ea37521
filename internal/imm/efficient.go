package imm

import (
	"repro/internal/counter"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// PolicyFromOptions derives the RRR representation policy the Efficient
// engine uses for opt. Exported so a SlotGenerator (internal/dist's rank
// runtime) rebuilds the sets it gathers under the policy of the engine it
// feeds, byte-identical to what Run would have produced. AdaptiveRep
// governs the dense→bitset-row switch, at rrr.DefaultPolicy's density
// threshold.
func PolicyFromOptions(opt Options) rrr.Policy {
	if opt.AdaptiveRep {
		return rrr.DefaultPolicy()
	}
	return rrr.ListOnlyPolicy()
}

// selectScan is the eager Find_Most_Influential_Set kernel over the
// store's first nsets sets: set-partitioned containment probes, the global
// occurrence counter, and the adaptive decrement/rebuild update. base,
// when non-nil, must already hold the occurrence counts of every member
// of those sets (the fused counter); when nil the counter is rebuilt from
// the sets. totalMembers is Σ|R| over them. The returned modeledOps is the
// critical-path cost the Breakdown accounts under SelectionModeled.
//
// This is the reference selection the CELF path (selectCELF) is pinned
// against, and the kernel the counter-update ablations exercise; it is
// deterministic for a given pool regardless of workers: argmax ties
// break toward the lower vertex id and counter updates commute.
func selectScan(sets *setStore, nsets int, totalMembers int64, base *counter.Counter, workers int, update counter.UpdateStrategy, k int) (result []int32, coverage float64, modeledOps float64) {
	n := int(sets.n)
	p := max(workers, 1)
	if nsets == 0 || k == 0 {
		return nil, 0, 0
	}

	work := counter.New(sets.n)
	ops := make([]int64, p)
	covered := make([]bool, nsets)
	// count folds the uncovered sets into the counter, partitioned across
	// workers, each member broadcast atomically (Figure 3's pattern).
	count := func(extra int64) {
		sched.Static(p, nsets, func(w, s0, e0 int) {
			var c cursor
			var vs, buf []int32
			var o int64
			for si := s0; si < e0; si++ {
				if covered[si] {
					continue
				}
				vs, buf = sets.members(&c, int64(si), buf)
				for _, u := range vs {
					work.Inc(u)
				}
				o += 2 * int64(len(vs))
			}
			ops[w] += o + extra
		})
	}
	if base != nil {
		// Copy the fused base counts; a streaming O(n/p) pass.
		src := base.Raw()
		dst := work.Raw()
		sched.Static(p, n, func(w, lo, hi int) {
			copy(dst[lo:hi], src[lo:hi])
			ops[w] += int64(hi-lo) / 8
		})
	} else {
		count(0) // no fusion: build the counter now
	}

	coveredCount := 0
	surviving := totalMembers
	seeds := make([]int32, 0, k)
	raw := work.Raw()

	newly := make([][]int32, p)
	newlyMembers := make([]int64, p)

	for len(seeds) < k && len(seeds) < n {
		best := work.ArgMax(p)
		if best.Vertex < 0 || raw[best.Vertex] < 0 {
			break
		}
		v := best.Vertex
		seeds = append(seeds, v)
		raw[v] = -1 // sentinel: never re-selected
		for w := range ops {
			ops[w] += int64(n/p + 1) // argmax regional scan
		}

		// Phase A: each worker probes containment only in its own set
		// partition (set-partitioned, no redundancy) and collects the
		// newly covered sets.
		for w := range newly {
			newly[w] = newly[w][:0]
			newlyMembers[w] = 0
		}
		sched.Static(p, nsets, func(w, s0, e0 int) {
			var c cursor
			var o int64
			for si := s0; si < e0; si++ {
				if covered[si] {
					continue
				}
				list, row := sets.set(&c, int64(si))
				o++ // membership probe: O(1) bitmap or O(log) list
				if row == nil {
					o += int64(log2i(len(list)))
				}
				if has(list, row, v) {
					newly[w] = append(newly[w], int32(si))
					newlyMembers[w] += int64(sets.sizes[si])
				}
			}
			ops[w] += o
		})
		var coveredMembers int64
		newCovered := 0
		for w := range newly {
			coveredMembers += newlyMembers[w]
			newCovered += len(newly[w])
		}

		// Phase B: fix the counter. Adaptive update compares the work of
		// decrementing the covered sets against rebuilding from the
		// survivors (§IV.C).
		strategy := update
		if strategy == counter.AdaptiveUpdate {
			if counter.ChooseRebuild(coveredMembers, surviving-coveredMembers, int64(n)) {
				strategy = counter.Rebuild
			} else {
				strategy = counter.Decrement
			}
		}
		switch strategy {
		case counter.Decrement:
			sched.Static(p, p, func(w, s0, e0 int) {
				var vs, buf []int32
				var o int64
				for slot := s0; slot < e0; slot++ {
					var c cursor
					for _, si := range newly[slot] {
						covered[si] = true
						vs, buf = sets.members(&c, int64(si), buf)
						for _, u := range vs {
							// Atomic read: retired sentinels (-1) are
							// stable during the phase, live counts may
							// be decremented concurrently but never
							// below zero (each occurrence decrements
							// once).
							if work.Get(u) >= 0 {
								work.Dec(u)
							}
						}
						o += 2 * int64(len(vs))
					}
				}
				ops[w] += o
			})
		case counter.Rebuild:
			for w := range newly {
				for _, si := range newly[w] {
					covered[si] = true
				}
			}
			work.Reset()
			count(int64(n/p) / 8)
			// Restore retirement sentinels lost in the reset.
			for _, s := range seeds {
				raw[s] = -1
			}
		}
		surviving -= coveredMembers
		coveredCount += newCovered
		if coveredCount == nsets {
			for len(seeds) < k && len(seeds) < n {
				next := work.ArgMax(p)
				if next.Vertex < 0 || raw[next.Vertex] < 0 {
					break
				}
				seeds = append(seeds, next.Vertex)
				raw[next.Vertex] = -1
			}
			break
		}
	}
	return seeds, float64(coveredCount) / float64(nsets), float64(maxOf(ops))
}
