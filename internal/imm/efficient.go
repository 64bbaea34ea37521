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
// governs the dense→bitset-row switch.
func PolicyFromOptions(opt Options) rrr.Policy {
	policy := rrr.ListOnlyPolicy()
	if opt.AdaptiveRep {
		policy = rrr.DefaultPolicy()
		if opt.RepThreshold > 0 {
			policy.DensityThreshold = opt.RepThreshold
		}
	}
	return policy
}

// SelectOnSetsScan is the eager Find_Most_Influential_Set kernel over an
// explicit pool: set-partitioned containment probes, the global
// occurrence counter, and the adaptive decrement/rebuild update. base,
// when non-nil, must already hold the occurrence counts of every member
// of sets (the fused counter); when nil the counter is rebuilt from the
// sets. totalMembers is Σ|R| over sets. The returned modeledOps is the
// critical-path cost the Breakdown accounts under SelectionModeled.
//
// This is the reference selection the CELF path (selectCELF) is pinned
// against, and the kernel the counter-update ablations exercise; it is
// deterministic for a given pool regardless of workers: argmax ties
// break toward the lower vertex id and counter updates commute.
func SelectOnSetsScan(n32 int32, sets []rrr.Set, totalMembers int64, base *counter.Counter, workers int, update counter.UpdateStrategy, k int) (result []int32, coverage float64, modeledOps float64) {
	nsets := len(sets)
	n := int(n32)
	p := workers
	if p < 1 {
		p = 1
	}
	if nsets == 0 || k == 0 {
		return nil, 0, 0
	}

	work := counter.New(n32)
	ops := make([]int64, p)
	if base != nil {
		// Copy the fused base counts; a streaming O(n/p) pass.
		src := base.Raw()
		dst := work.Raw()
		sched.Static(p, n, func(w, lo, hi int) {
			copy(dst[lo:hi], src[lo:hi])
			ops[w] += int64(hi-lo) / 8
		})
	} else {
		// No fusion: build the counter now by partitioning the sets
		// across workers and broadcasting members into the global
		// counter atomically (Figure 3's pattern).
		sched.Static(p, nsets, func(w, s0, e0 int) {
			var o int64
			for si := s0; si < e0; si++ {
				set := sets[si]
				set.ForEach(func(v int32) { work.Inc(v) })
				o += 2 * int64(set.Size())
			}
			ops[w] += o
		})
	}

	covered := make([]bool, nsets)
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
			var o int64
			for si := s0; si < e0; si++ {
				if covered[si] {
					continue
				}
				set := sets[si]
				o++ // membership probe: O(1) bitmap or O(log) list
				if _, isList := set.(*rrr.ListSet); isList {
					o += int64(log2i(set.Size()))
				}
				if set.Contains(v) {
					newly[w] = append(newly[w], int32(si))
					newlyMembers[w] += int64(set.Size())
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
				var o int64
				for slot := s0; slot < e0; slot++ {
					for _, si := range newly[slot] {
						covered[si] = true
						sets[si].ForEach(func(u int32) {
							// Atomic read: retired sentinels (-1) are
							// stable during the phase, live counts may
							// be decremented concurrently but never
							// below zero (each occurrence decrements
							// once).
							if work.Get(u) >= 0 {
								work.Dec(u)
							}
						})
						o += 2 * int64(sets[si].Size())
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
			sched.Static(p, nsets, func(w, s0, e0 int) {
				var o int64
				for si := s0; si < e0; si++ {
					if covered[si] {
						continue
					}
					sets[si].ForEach(func(u int32) { work.Inc(u) })
					o += 2 * int64(sets[si].Size())
				}
				ops[w] += o + int64(n/p)/8
			})
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
