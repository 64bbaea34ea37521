package imm

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/counter"
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// Warm-pool repair after a graph delta (the dynamic-graph tentpole).
//
// Pool contents are a pure function of (graph, policy, seed, slot): slot
// i is drawn from rng.NewStream(seed, i). After graph.ApplyDelta, a
// slot's replay on the post-delta graph differs from its resident
// content only if the traversal would observe a changed in-segment —
// and the traversal reads exactly the in-segments of the vertices it
// visits, which are exactly the set's members (IC enqueues each first
// visit; the LT walk's chain is the set). So a resident set disjoint
// from the delta's dirty-vertex set D (vertices whose in-segment
// changed) consumes identical RNG draws on the post-delta graph and
// replays bit-identically; only sets intersecting D must be resampled.
// The per-shard inverted vertex→set index lists the intersecting slots
// directly — one posting walk per dirty vertex instead of a pool scan.
//
// The one global dependency is the root draw, Uint32n(N): if the delta
// grew the vertex set, every slot's root changes and repair degenerates
// to a whole-pool resample — still byte-identical to cold, just not
// cheaper.
//
// After repair the pool is indistinguishable (set contents, index,
// fused counter, footprint accounting) from a pool generated cold on
// the post-delta graph to the same physical length, which is what the
// differential fuzz test pins across models × selection × workers.

// RepairReport describes one warm-pool repair.
type RepairReport struct {
	// Slots is the physical pool length at repair time.
	Slots int64
	// Resampled counts slots that were invalidated and regenerated.
	Resampled int64
	// FullResample reports that vertex growth forced a whole-pool
	// resample (the root draw depends on N).
	FullResample bool
}

// ApplyDelta repairs the warm pool for the post-delta graph ng,
// described by rep (the report graph.ApplyDelta produced alongside
// ng). Only slots whose sets intersect the dirty-vertex set are
// resampled; everything else — sets, index postings, fused counts,
// arenas — is retained. The engine serves the new graph afterwards,
// and every future answer is byte-identical to a cold engine built on
// ng. Like all WarmEngine methods, callers must serialize.
func (w *WarmEngine) ApplyDelta(ng *graph.Graph, rep *graph.DeltaReport) (RepairReport, error) {
	if ng == nil || rep == nil {
		return RepairReport{}, fmt.Errorf("imm: repair needs a post-delta graph and its report")
	}
	if ng.Model() != w.g.Model() {
		return RepairReport{}, fmt.Errorf("imm: repair cannot change the diffusion model (%v -> %v)", w.g.Model(), ng.Model())
	}
	r := w.inner.repair(ng, rep)
	w.g = ng
	w.limit = 0
	return r, nil
}

// repair swaps the engine onto ng and patches the pool in place.
func (e *efficientEngine) repair(ng *graph.Graph, rep *graph.DeltaReport) RepairReport {
	count := e.p.len()
	r := RepairReport{Slots: count}
	grew := ng.N != e.g.N
	e.g = ng
	// The per-worker samplers hold visited bitmaps sized to the old
	// graph; rebind them (arenas survive — they do not reference the
	// graph).
	for _, gw := range e.gen {
		gw.smp = diffusion.NewSampler(ng)
	}
	// A remote slot generator was constructed against the old graph;
	// detach it and let the owner re-attach one for the new epoch.
	// Local generation is always a correct fallback.
	e.remote = nil

	if grew {
		// Root draws changed everywhere: drop the pool and regenerate
		// its full length cold on the new graph. The fused counter is
		// resized along the way.
		e.p = newShardedPool(ng.N)
		e.base = counter.New(ng.N)
		e.baseFresh = false
		if count > 0 {
			r.Resampled = count
			r.FullResample = true
			e.Generate(count)
		}
		return r
	}
	if count == 0 || len(rep.Dirty) == 0 {
		return r
	}

	invalid := e.invalidSlots(rep.Dirty)
	r.Resampled = int64(len(invalid))
	if len(invalid) == 0 {
		return r
	}

	// Retire the invalidated sets from the fused occurrence counter
	// before their contents are replaced; the re-increment below makes
	// the counter exactly what cold fusion on ng would have produced.
	maintainBase := e.opt.Fusion && e.baseFresh
	if maintainBase {
		for _, i := range invalid {
			e.p.get(i).ForEach(func(v int32) { e.base.Dec(v) })
		}
	}

	// Resample the invalidated slots from their slot-indexed streams on
	// the new graph, in parallel. Without an arena sampleSlot allocates
	// fresh backing (the old arena storage cannot be reclaimed
	// piecemeal); the set contents — the byte-identity quantity — are
	// representation-equal to what cold arena generation builds.
	newSets := make([]rrr.Set, len(invalid))
	workers := e.opt.Workers
	if workers > len(invalid) {
		workers = len(invalid)
	}
	sched.Static(workers, len(invalid), func(w, s0, s1 int) {
		gw := genWorker{smp: diffusion.NewSampler(ng)}
		for j := s0; j < s1; j++ {
			newSets[j], _ = gw.sampleSlot(e.opt.Seed, invalid[j], e.policy, e.p.n, nil)
		}
	})

	e.p.replace(invalid, newSets, e.opt.Workers)
	if maintainBase {
		for _, set := range newSets {
			set.ForEach(func(v int32) { e.base.Inc(v) })
		}
	}
	return r
}

// replace swaps sets into the resident slots ids (global, ascending) and
// brings what the pool derives from its contents in line: the member
// total, the flat view, the prefix summaries and remembered selections
// (those below the first replaced slot stay, the rest re-fold or re-run
// lazily) and the inverted index of every shard that has one and holds a
// replaced slot — one patch each, which also absorbs entries the shard
// had not indexed yet. Other shards keep their arrays; scan-mode shards
// (never indexed) stay unindexed so the footprint accounting still
// reports IndexBytes 0.
func (p *shardedPool) replace(ids []int64, sets []rrr.Set, workers int) {
	// Per shard: the replaced entries its index covers, and their old sets.
	var swaps [poolShards]struct {
		touched bool
		ids     []int32
		old     []rrr.Set
	}
	for k, i := range ids {
		s, j := shardOf(i)
		sh, sw := &p.shards[s], &swaps[s]
		old := sh.sets[j]
		p.totalMembers += int64(sets[k].Size() - old.Size())
		sh.sets[j] = sets[k]
		if i < int64(len(p.flat)) {
			p.flat[i] = sets[k]
		}
		sw.touched = true
		if sw.ids == nil { // ids stripe evenly: size each shard's lists once
			sw.ids = make([]int32, 0, len(ids)/poolShards+8)
			sw.old = make([]rrr.Set, 0, len(ids)/poolShards+8)
		}
		if j < sh.indexed {
			sw.ids = append(sw.ids, int32(j))
			sw.old = append(sw.old, old)
		}
	}
	if keep := ids[0] + 1; int64(len(p.prefix)) > keep {
		p.prefix = p.prefix[:keep]
	}
	p.memo.dropAbove(ids[0])

	var shards []int
	for s := range swaps {
		if swaps[s].touched && p.shards[s].indexed > 0 {
			shards = append(shards, s)
		}
	}
	sc := p.indexScratches(workers)
	sched.Static(workers, len(shards), func(w, k0, k1 int) {
		for _, s := range shards[k0:k1] {
			p.shards[s].patch(p.n, &sc[w], swaps[s].ids, swaps[s].old)
		}
	})
}

// invalidSlots returns, in ascending order, the global ids of pool
// slots whose sets intersect the dirty vertices. Indexed entries are
// found by walking the inverted index's postings; the un-indexed tail
// (scan-mode pools never index) falls back to membership probes.
func (e *efficientEngine) invalidSlots(dirty []int32) []int64 {
	p := e.p
	marked := bitset.New(int(p.count))
	for s := range p.shards {
		sh := &p.shards[s]
		if sh.postIdx != nil {
			for _, v := range dirty {
				for _, j := range sh.postings(v) {
					marked.Set(int(j)*poolShards + s)
				}
			}
		}
		for j := sh.indexed; j < len(sh.sets); j++ {
			gid := j*poolShards + s
			if int64(gid) >= p.count {
				break
			}
			set := sh.sets[j]
			for _, v := range dirty {
				if set.Contains(v) {
					marked.Set(gid)
					break
				}
			}
		}
	}
	ids := make([]int64, 0, marked.Count())
	marked.ForEach(func(i int) { ids = append(ids, int64(i)) })
	return ids
}
