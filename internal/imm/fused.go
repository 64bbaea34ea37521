package imm

import (
	"slices"
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
//     sampler and a generator re-seeded per slot. One traversal
//     (diffusion.Sampler.Traverse) leaves the set's members in the
//     sampler's BFS queue and their visited bits set. A scan engine's
//     fusion counter is incremented from that list, and the set is ended
//     from the same state: a bitmap set appends the visited words to its
//     worker's row buffer, any other is sorted in place and appended to
//     its list buffer — no per-set allocation or header. Jobs are contiguous slot
//     ranges, so their stretches of the buffers, in job order, are the new
//     sets in set-id order, appended to the pool's (setStore.extend). Slot
//     RNG streams are those of the copy-out reference generator
//     (GenerateSlots), so pool contents are byte-identical to it.
//
//     Under IC the traversal switches its in-segment scan from a plain
//     loop to a filter-then-draw pair of passes once the set is dense;
//     neither shape changes a draw (see diffusion.traverseIC).
//
//   - Stage B (index merge): while the new sets are still hot, the
//     pool's inverted index absorbs them (shardedPool.patch), one writer
//     per contiguous vertex range: a bit in a row, or an id appended to a
//     list. Its counts are CELF's fused counter. Afterwards ensureIndexed
//     is a no-op; selection starts on a current index. Scan-mode
//     selection never reads the index, so the stage is skipped and
//     IndexBytes stays zero.

// genWorker is one worker's generation state, kept across Generate calls.
type genWorker struct {
	smp *diffusion.Sampler
	rng rng.Xoshiro256 // re-seeded per slot (SeedStream) instead of allocated
}

// run is the payloads of a stretch of consecutive sets: the lists' members
// and the rows, each in set-id order.
type run struct {
	lists []int32
	rows  []uint64
}

// ensureGenWorkers grows the engine's per-worker kernel state to cover
// workers.
func (w *WarmEngine) ensureGenWorkers(workers int) {
	for len(w.gen) < workers {
		w.gen = append(w.gen, &genWorker{smp: diffusion.NewSampler(w.g)})
	}
}

// draw samples slot's set from its slot-indexed stream and folds the
// members into cnt while they are hot (nil skips counting). It returns the
// sampler's queue, the members' visited bits still set.
func (gw *genWorker) draw(seed uint64, slot int64, cnt *counter.Counter) []int32 {
	gw.rng.SeedStream(seed, int(slot))
	members := gw.smp.TraverseUniformRoot(&gw.rng)
	if cnt != nil {
		for _, v := range members {
			cnt.Inc(v)
		}
	}
	return members
}

// sampleJob is the kernel's job body: on worker wk, it draws the sets of
// slots lo..hi-1 (given ids, of slots ids[lo:hi]), appends their payloads
// to buf — a dense set's visited words, any other's members sorted in
// place — and writes set j's size to sizes[j]. It returns the payloads it
// appended, the members drawn and the edges visited.
func (w *WarmEngine) sampleJob(wk int, lo, hi int64, ids []int64, sizes []int32, cnt *counter.Counter, buf *run) (job run, members, edges int64) {
	gw := w.gen[wk]
	l0, r0, e0 := len(buf.lists), len(buf.rows), gw.smp.EdgesVisited
	for j := lo; j < hi; j++ {
		slot := j
		if ids != nil {
			slot = ids[j]
		}
		vs := gw.draw(w.opt.Seed, slot, cnt)
		if w.policy.Dense(w.p.n, len(vs)) {
			buf.rows = gw.smp.TakeBitmap(buf.rows)
		} else {
			slices.Sort(vs)
			buf.lists = append(buf.lists, vs...)
			gw.smp.Release() // after the sort: sorted members clear word-at-a-time
		}
		sizes[j] = int32(len(vs))
		members += int64(len(vs))
	}
	return run{buf.lists[l0:], buf.rows[r0:]}, members, gw.smp.EdgesVisited - e0
}

// generateFused fills pool slots [from, to). Modeled cost: edge
// traversals plus sorting of list sets (bitmap sets skip the sort — the
// adaptive-representation win) plus the fused count updates (charged
// double, as atomic adds), plus the Stage-B index-merge critical path
// that selection would otherwise charge lazily via ensureIndexed.
func (w *WarmEngine) generateFused(from, to int64) {
	start := time.Now()
	workers := w.opt.Workers
	w.ensureGenWorkers(workers)
	var cnt *counter.Counter // only a scan engine keeps one
	if w.opt.Fusion {
		cnt = w.base
	}

	totalSets := to - from
	sizes := slices.Grow(w.p.sets.sizes, int(totalSets))[:to]
	members, edges := make([]int64, workers), make([]int64, workers)
	bufs := make([]run, workers) // the round's payloads, by worker
	// job samples slots [s0, e0) on worker wk and returns the job's
	// critical-path cost (edge visits plus build work).
	job := func(wk int, s0, e0 int64, out *run) int64 {
		var m, e int64
		*out, m, e = w.sampleJob(wk, s0, e0, nil, sizes, cnt, &bufs[wk])
		members[wk] += m
		edges[wk] += e
		return e + 3*m
	}
	var runs []run // one per job, in slot order
	var maxJob int64
	dynamic := w.opt.DynamicBalance
	if dynamic {
		// Keep at least ~8 jobs per worker so stealing can balance; cap
		// at the configured batch for locality on large pools.
		batch := w.opt.BatchSize
		if fair := int(totalSets / int64(8*workers)); fair < batch {
			batch = fair
		}
		if batch < 1 {
			batch = 1
		}
		b := int64(batch)
		jobMax := make([]int64, workers)
		runs = make([]run, (totalSets+b-1)/b)
		sched.WorkStealing(workers, int64(len(runs)), func(wk int, j int64) {
			s0 := from + j*b
			e0 := s0 + b
			if e0 > to {
				e0 = to
			}
			jobMax[wk] = max(jobMax[wk], job(wk, s0, e0, &runs[j]))
		})
		maxJob = maxOf(jobMax)
	} else {
		runs = make([]run, workers)
		sched.Static(workers, int(totalSets), func(wk, s0, e0 int) {
			job(wk, from+int64(s0), from+int64(e0), &runs[wk])
		})
	}
	w.p.extend(sizes, runs)
	w.p.addMembers(members)

	// Stage B. Skipped for scan-mode selection, which never walks the
	// index (and whose footprint reporting pins IndexBytes at zero).
	var indexCritical int64
	if w.opt.Selection == SelectCELF {
		indexCritical = w.p.indexNewSets(workers)
	}
	w.bd.SamplingWall += time.Since(start)

	var fusedOps int64 // per member
	if w.opt.Fusion {
		fusedOps = 2
	}
	sortCost := func(memberCount, setCount int64) int64 {
		return ModeledSortCost(w.policy, w.p.n, memberCount, setCount)
	}
	if dynamic {
		// Dynamic balancing spreads batch jobs across the simulated
		// workers; the critical path follows the greedy-scheduling bound
		// total/p + costliest job, independent of how many physical
		// cores executed the goroutines.
		total := sumOf(edges) + sortCost(sumOf(members), totalSets) + fusedOps*sumOf(members)
		w.bd.SamplingModeled += float64(total)/float64(workers) + float64(maxJob)
	} else {
		// Static schedule: the slowest worker's chunk gates the phase.
		setsPer := max(1, totalSets/int64(workers))
		perWorker := make([]int64, workers)
		for wk := range perWorker {
			perWorker[wk] = edges[wk] + sortCost(members[wk], setsPer) + fusedOps*members[wk]
		}
		w.bd.SamplingModeled += float64(maxOf(perWorker))
	}
	w.bd.SamplingModeled += float64(indexCritical)
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
// slot range: it shares the pool kernel's traversal and counting (draw) —
// each set's members are incremented into cnt as it is produced — but
// builds rrr.Sets, list storage carved out of arena. No production path
// calls it; it is kept for bench/probes.go and the root benchmarks, which
// time the fused kernel against the materialized one. Set contents are
// byte-identical to GenerateSlots (slot indexed RNG streams). The arena
// must outlive the returned sets; cnt may be nil to skip counting.
func GenerateSlotsFused(g *graph.Graph, policy rrr.Policy, seed uint64, lo int64, out []rrr.Set, arena *rrr.Arena, cnt *counter.Counter) (members, edges int64) {
	gw := genWorker{smp: diffusion.NewSampler(g)}
	for i := range out {
		vs := gw.draw(seed, lo+int64(i), cnt)
		members += int64(len(vs))
		out[i] = policy.BuildArena(g.N, vs, arena)
		gw.smp.Release()
	}
	return members, gw.smp.EdgesVisited
}
