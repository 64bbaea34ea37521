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
// The pool's inverted vertex→set index lists the intersecting slots
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
	r := w.repair(ng, rep)
	w.limit = 0
	return r, nil
}

// repair swaps the engine onto ng and patches the pool in place.
func (w *WarmEngine) repair(ng *graph.Graph, rep *graph.DeltaReport) RepairReport {
	count := w.p.len()
	r := RepairReport{Slots: count}
	grew := ng.N != w.g.N
	w.g = ng
	// The per-worker samplers hold visited bitmaps sized to the old
	// graph; rebind them (arenas survive — they do not reference the
	// graph).
	for _, gw := range w.gen {
		gw.smp = diffusion.NewSampler(ng)
	}
	// A remote slot generator was constructed against the old graph;
	// detach it and let the owner re-attach one for the new epoch.
	// Local generation is always a correct fallback.
	w.remote = nil

	if grew {
		// Root draws changed everywhere: drop the pool and regenerate
		// its full length cold on the new graph. The fused counter is
		// resized along the way.
		w.p = newShardedPool(ng.N)
		w.base = counter.New(ng.N)
		w.baseFresh = false
		if count > 0 {
			r.Resampled = count
			r.FullResample = true
			w.Generate(count)
		}
		return r
	}
	if count == 0 || len(rep.Dirty) == 0 {
		return r
	}

	invalid := w.invalidSlots(rep.Dirty)
	r.Resampled = int64(len(invalid))
	if len(invalid) == 0 {
		return r
	}

	// Retire the invalidated sets from the fused occurrence counter
	// before their contents are replaced; the re-increment below makes
	// the counter exactly what cold fusion on ng would have produced.
	maintainBase := w.opt.Fusion && w.baseFresh
	if maintainBase {
		dec := func(v int32) { w.base.Dec(v) }
		for _, i := range invalid {
			w.p.sets[i].ForEach(dec)
		}
	}

	// Resample the invalidated slots from their slot-indexed streams on
	// the new graph, in parallel, on the engine's own re-bound samplers.
	// The arena is left out, so sampleSlot allocates fresh backing (the
	// old arena storage cannot be reclaimed piecemeal); the set contents —
	// the byte-identity quantity — are representation-equal to what cold
	// arena generation builds.
	newSets := make([]rrr.Set, len(invalid))
	w.ensureGenWorkers(w.opt.Workers) // any it adds are bound to ng already
	sched.Static(w.opt.Workers, len(invalid), func(wk, s0, s1 int) {
		gw := genWorker{smp: w.gen[wk].smp}
		for j := s0; j < s1; j++ {
			newSets[j], _ = gw.sampleSlot(w.opt.Seed, invalid[j], w.policy, w.p.n, nil)
		}
	})

	w.p.replace(invalid, newSets, w.opt.Workers)
	if maintainBase {
		inc := func(v int32) { w.base.Inc(v) }
		for _, set := range newSets {
			set.ForEach(inc)
		}
	}
	return r
}

// replace swaps sets into the resident slots ids (global, ascending) and
// brings what the pool derives from its contents in line: the member
// total, the prefix summaries and remembered selections
// (those below the first replaced slot stay, the rest re-fold or re-run
// lazily) and the inverted index, when there is one — one patch, which
// also absorbs any sets not indexed yet. A scan-mode pool (never indexed)
// stays unindexed so the footprint accounting still reports IndexBytes 0.
func (p *shardedPool) replace(ids []int64, sets []rrr.Set, workers int) {
	old := make([]rrr.Set, 0, len(ids)) // the replaced sets the index covers: a prefix of ids
	for k, i := range ids {
		was := p.sets[i]
		p.totalMembers += int64(sets[k].Size() - was.Size())
		p.sets[i] = sets[k]
		if i < p.indexed {
			old = append(old, was)
		}
	}
	if keep := ids[0] + 1; int64(len(p.prefix)) > keep {
		p.prefix = p.prefix[:keep]
	}
	p.memo.dropAbove(ids[0])
	if p.indexed > 0 {
		p.patch(workers, ids[:len(old)], old)
	}
}

// invalidSlots returns, in ascending order, the global ids of pool
// slots whose sets intersect the dirty vertices. Indexed sets are found
// by walking each dirty vertex's postings; the un-indexed tail
// (scan-mode pools never index) falls back to membership probes.
func (w *WarmEngine) invalidSlots(dirty []int32) []int64 {
	p := w.p
	marked := bitset.New(int(p.count))
	if p.postIdx != nil {
		for _, v := range dirty {
			marked.SetMany(p.postData[p.postIdx[v]:p.postIdx[v+1]])
		}
	}
	for i := p.indexed; i < p.count; i++ {
		set := p.sets[i]
		for _, v := range dirty {
			if set.Contains(v) {
				marked.Set(int(i))
				break
			}
		}
	}
	ids := make([]int64, 0, marked.Count())
	marked.ForEach(func(i int) { ids = append(ids, int64(i)) })
	return ids
}
