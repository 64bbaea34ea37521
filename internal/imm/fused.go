package imm

import (
	"time"

	"repro/internal/counter"
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/numa"
	"repro/internal/rng"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// The Efficient engine's generation kernel: sample, count and index in
// one pass over what the traversal already holds.
//
//   - Stage A (sampling): each worker owns a genWorker — a reusable
//     sampler, an rrr.Arena, and a generator re-seeded per slot. One
//     traversal (diffusion.Sampler.Traverse) leaves the set's members in
//     the sampler's own BFS queue and their visited bits set. The fusion
//     counter is incremented from that list in one loop, and the set is
//     ended from the same state: a bitmap set takes a copy of the visited
//     words as its row; any other is sorted in place and carved out of
//     the worker's arena. No per-member callback, no second copy, no
//     per-set allocation for lists. Slot RNG streams are those of the
//     copy-out reference generator (GenerateSlots), so pool contents are
//     byte-identical to it under either schedule.
//
//     Under IC the traversal switches its in-segment scan from a plain
//     loop to a filter-then-draw pair of passes once the set is dense;
//     neither shape changes a draw (see diffusion.traverseIC).
//
//   - Stage B (index merge): while the new sets are still hot, the
//     pool's CSR inverted index absorbs them (shardedPool.patch), one
//     writer per contiguous vertex range. Afterwards ensureIndexed is a
//     no-op; selection starts on a current index. Scan-mode selection
//     never reads the index, so the stage is skipped and IndexBytes
//     stays zero.
//
// Arenas live exactly as long as the engine (and therefore the pool), so
// arena-backed sets never outlive their storage; see rrr.Arena and the
// ListSet.Raw ownership contract for the aliasing rules.

// genWorker is one worker's generation state. The engine's workers
// persist across Generate calls.
type genWorker struct {
	smp   *diffusion.Sampler
	arena *rrr.Arena     // nil: every set gets fresh backing
	rng   rng.Xoshiro256 // re-seeded per slot (SeedStream) instead of allocated
}

// ensureGenWorkers grows the engine's per-worker kernel state to cover
// workers. Worker state persists across Generate calls, so warm
// θ-extension rounds re-enter the kernel without re-allocating samplers
// or arenas.
func (e *efficientEngine) ensureGenWorkers(workers int) {
	for len(e.gen) < workers {
		e.gen = append(e.gen, &genWorker{smp: diffusion.NewSampler(e.g), arena: rrr.NewArena()})
	}
}

// sampleSlot is the kernel's per-slot body: draw slot's set from its
// slot-indexed stream, fold the members into cnt while they are hot (nil
// skips counting), and end the set from the sampler's own state — a
// dense set adopts the visited words as its bitmap row, any other is
// sorted in place and stored per the policy in gw.arena. Returns the set
// and its member count.
func (gw *genWorker) sampleSlot(seed uint64, slot int64, policy rrr.Policy, n int32, cnt *counter.Counter) (rrr.Set, int) {
	gw.rng.SeedStream(seed, int(slot))
	members := gw.smp.TraverseUniformRoot(&gw.rng)
	if cnt != nil {
		for _, v := range members {
			cnt.Inc(v)
		}
	}
	if policy.Dense(n, len(members)) {
		return rrr.AdoptBitmap(n, gw.smp.TakeBitmap(), len(members)), len(members)
	}
	set := policy.BuildArena(n, members, gw.arena)
	gw.smp.Release() // after the sort: sorted members clear word-at-a-time
	return set, len(members)
}

// fusedRange samples slots [s0, e0) on worker w and returns the job's
// critical-path cost (edge visits plus build work).
func (e *efficientEngine) fusedRange(w int, s0, e0 int64, members []int64) int64 {
	gw := e.gen[w]
	cnt := e.base
	if !e.opt.Fusion {
		cnt = nil
	}
	edgesBefore := gw.smp.EdgesVisited
	var jobMembers int64
	for i := s0; i < e0; i++ {
		set, m := gw.sampleSlot(e.opt.Seed, i, e.policy, e.p.n, cnt)
		jobMembers += int64(m)
		e.p.put(i, set)
	}
	members[w] += jobMembers
	return (gw.smp.EdgesVisited - edgesBefore) + 3*jobMembers
}

// generateFused fills pool slots [from, to). Modeled cost: edge
// traversals plus sorting of list sets (bitmap sets skip the sort — the
// adaptive-representation win) plus the fused atomic updates (charged
// double for the lock prefix), plus the Stage-B index-merge critical
// path that selection would otherwise charge lazily via ensureIndexed.
func (e *efficientEngine) generateFused(from, to int64) {
	start := time.Now()
	workers := e.opt.Workers
	e.ensureGenWorkers(workers)
	e.baseFresh = e.opt.Fusion

	members := make([]int64, workers)
	edgeStart := make([]int64, workers)
	for w := 0; w < workers; w++ {
		edgeStart[w] = e.gen[w].smp.EdgesVisited
	}

	totalSets := to - from
	var maxJob int64
	dynamic := e.opt.DynamicBalance
	if dynamic {
		// Keep at least ~8 jobs per worker so stealing can balance; cap
		// at the configured batch for locality on large pools.
		batch := e.opt.BatchSize
		if fair := int(totalSets / int64(8*workers)); fair < batch {
			batch = fair
		}
		if batch < 1 {
			batch = 1
		}
		b := int64(batch)
		jobs := (totalSets + b - 1) / b
		jobMax := make([]int64, workers)
		sched.WorkStealing(workers, jobs, func(w int, job int64) {
			s0 := from + job*b
			e0 := s0 + b
			if e0 > to {
				e0 = to
			}
			if cost := e.fusedRange(w, s0, e0, members); cost > jobMax[w] {
				jobMax[w] = cost
			}
		})
		maxJob = maxOf(jobMax)
	} else {
		sched.Static(workers, int(totalSets), func(w, s0, e0 int) {
			e.fusedRange(w, from+int64(s0), from+int64(e0), members)
		})
	}
	e.p.addMembers(members)

	// Stage B. Skipped for scan-mode selection, which never walks the
	// index (and whose footprint reporting pins IndexBytes at zero).
	var indexCritical int64
	if e.opt.Selection == SelectCELF {
		indexCritical = e.p.indexNewSets(workers)
	}
	e.bd.SamplingWall += time.Since(start)

	edges := make([]int64, workers)
	fusionCounts := make([]int64, workers)
	for w := 0; w < workers; w++ {
		edges[w] = e.gen[w].smp.EdgesVisited - edgeStart[w]
		if e.opt.Fusion {
			fusionCounts[w] = members[w]
		}
	}
	sortCost := func(memberCount, setCount int64) int64 {
		return ModeledSortCost(e.policy, e.p.n, memberCount, setCount)
	}
	if dynamic {
		// Dynamic balancing spreads batch jobs across the simulated
		// workers; the critical path follows the greedy-scheduling bound
		// total/p + costliest job, independent of how many physical
		// cores executed the goroutines.
		total := sumOf(edges) + sortCost(sumOf(members), totalSets) + 2*sumOf(fusionCounts)
		e.bd.SamplingModeled += float64(total)/float64(workers) + float64(maxJob)
	} else {
		// Static schedule: the slowest worker's chunk gates the phase.
		setsPer := maxI64(1, totalSets/int64(workers))
		perWorker := make([]int64, workers)
		for w := range perWorker {
			perWorker[w] = edges[w] + sortCost(members[w], setsPer) + 2*fusionCounts[w]
		}
		e.bd.SamplingModeled += float64(maxOf(perWorker))
	}
	e.bd.SamplingModeled += float64(indexCritical)
}

// arenaSlackBytes is the generation arenas' unused capacity — the fused
// kernel's contribution to a warm engine's memory overhead beyond what
// the resident sets account for.
func (e *efficientEngine) arenaSlackBytes() int64 {
	var b int64
	for _, gw := range e.gen {
		b += gw.arena.SlackBytes()
	}
	return b
}

// indexNewSets merges the un-absorbed sets into the inverted index and
// returns the modeled critical path: each shard's sets are charged to its
// pinned owner worker (numa.Topology.PinShards, owners spread across NUMA
// nodes like the pool's interleaved placement) at ensureIndexed's 2 ops
// per member, and the costliest owner gates the stage. Idempotent.
func (p *shardedPool) indexNewSets(workers int) int64 {
	members := p.patch(workers, nil, nil)
	var critical int64
	for _, shards := range numa.PerlmutterLike().PinShards(poolShards, workers) {
		var o int64
		for _, s := range shards {
			o += 2 * members[s]
		}
		critical = max(critical, o)
	}
	return critical
}

// GenerateSlotsFused is GenerateSlots' streaming variant over an explicit
// slot range: each set is built from the sampler's own state into arena
// storage and its members incremented into cnt as it is produced
// (sampleSlot), replacing a post-pass over the finished sets. No
// production path calls it — the rank runtime uses GenerateSlots, whose
// sets carry no arena slack a serving pool's byte budget cannot see; it is
// kept for bench/probes.go and the root benchmarks, which time the fused
// kernel against the materialized one. Set contents are byte-identical to
// GenerateSlots (slot indexed RNG streams). The arena must outlive the
// returned sets; cnt may be nil to skip counting.
func GenerateSlotsFused(g *graph.Graph, policy rrr.Policy, seed uint64, lo int64, out []rrr.Set, arena *rrr.Arena, cnt *counter.Counter) (members, edges int64) {
	gw := genWorker{smp: diffusion.NewSampler(g), arena: arena}
	for i := range out {
		set, m := gw.sampleSlot(seed, lo+int64(i), policy, g.N, cnt)
		members += int64(m)
		out[i] = set
	}
	return members, gw.smp.EdgesVisited
}
