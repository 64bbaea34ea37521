package imm

import (
	"time"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// efficientEngine implements EFFICIENTIMM (§IV of the paper):
//
//   - RRRsets partitioning: selection work is split over the sets, not
//     the vertices, so per-worker selection cost is Σ|R|/p and shrinks
//     with the worker count (Algorithm 2).
//   - Concurrent global counter: occurrence counts live in one shared
//     array updated with 64-bit atomic adds; the argmax is the two-step
//     regional/global parallel reduction.
//   - Kernel fusion: each set increments the global counter immediately
//     after generation while it is still hot (Algorithm 3 lines 14-16).
//   - Adaptive representation: dense sets become bitmaps, sparse sets
//     stay sorted lists.
//   - Adaptive counter update: seed retirement either decrements covered
//     sets or rebuilds from survivors, whichever touches less data.
//   - Dynamic job balancing: generation jobs are spread over
//     work-stealing deques.
type efficientEngine struct {
	g   *graph.Graph
	opt Options
	p   *shardedPool
	bd  Breakdown

	policy rrr.Policy
	// base holds occurrence counts over the whole pool, maintained
	// incrementally by kernel fusion (or rebuilt per selection when
	// fusion is disabled).
	base *counter.Counter
	// baseMembers tracks how many members base has absorbed, to detect
	// staleness when fusion is off.
	baseFresh bool
	// gen holds the generation kernel's per-worker samplers, arenas, and
	// generators (fused.go), persistent across Generate calls.
	gen []*genWorker
	// remote, when non-nil, sources pool extensions from a distributed
	// slot generator (remote.go); local generation is the fallback.
	remote SlotGenerator
}

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

func newEfficientEngine(g *graph.Graph, opt Options) *efficientEngine {
	policy := PolicyFromOptions(opt)
	return &efficientEngine{
		g:      g,
		opt:    opt,
		p:      newShardedPool(g.N),
		policy: policy,
		base:   counter.New(g.N),
	}
}

func (e *efficientEngine) SetCount() int64              { return e.p.len() }
func (e *efficientEngine) Stats() rrr.Stats             { return e.p.stats() }
func (e *efficientEngine) Breakdown() Breakdown         { return e.bd }
func (e *efficientEngine) PoolFootprint() PoolFootprint { return e.p.footprint() }

func (e *efficientEngine) Generate(target int64) {
	from, to, err := e.p.grow(target)
	if err != nil {
		panic(err) // RunEngine refuses a θ past the bound before it gets here
	}
	if from == to {
		return
	}
	if e.remote != nil && e.generateRemote(from, to) {
		return
	}
	e.generateFused(from, to)
}

// SelectSeeds runs Find_Most_Influential_Set over the sharded pool. The
// default path is the lazy-greedy selection over the inverted
// index (selectCELF); SelectScan falls back to the eager
// argmax-and-update kernel with the Figure 5 counter strategies. Both
// are non-destructive — coverage marks live in per-call scratch and the
// base counter is only read — so the pool can keep growing across
// θ-estimation rounds, and both return byte-identical seed sequences.
func (e *efficientEngine) SelectSeeds(k int) ([]int32, float64) {
	start := time.Now()
	defer func() { e.bd.SelectionWall += time.Since(start) }()

	var base *counter.Counter
	if e.baseFresh {
		base = e.base
	}
	var seeds []int32
	var cov float64
	var ops float64
	if e.opt.Selection == SelectScan {
		seeds, cov, ops = SelectOnSetsScan(e.g.N, e.p.flatten(), e.p.totalMembers, base, e.opt.Workers, e.opt.Update, k)
	} else {
		seeds, cov, ops = e.p.selectCELF(base, e.opt.Workers, k)
	}
	e.bd.SelectionModeled += ops
	return seeds, cov
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
