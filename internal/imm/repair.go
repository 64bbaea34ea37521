package imm

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/diffusion"
	"repro/internal/graph"
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
// After repair the pool is indistinguishable (set contents, index — the
// occurrence counts — footprint accounting) from a pool generated cold on
// the post-delta graph to the same physical length, which is what the
// differential fuzz test pins across models × workers. Only the default
// toggles repair (ErrWarmOptions), so there is no fused counter to keep.

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
// resampled; everything else — sets, index postings — is retained. The
// engine serves the new graph afterwards, and every future answer is
// byte-identical to a cold engine built on ng. An engine off the default
// toggles is refused (ErrWarmOptions) and left as it was. Like all
// WarmEngine methods, callers must serialize.
func (w *WarmEngine) ApplyDelta(ng *graph.Graph, rep *graph.DeltaReport) (RepairReport, error) {
	if err := warmOptions(w.opt); err != nil {
		return RepairReport{}, err
	}
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
	// graph; rebind them.
	for _, gw := range w.gen {
		gw.smp = diffusion.NewSampler(ng)
	}
	// A remote slot generator was constructed against the old graph;
	// detach it and let the owner re-attach one for the new epoch.
	// Local generation is always a correct fallback.
	w.remote = nil

	if grew {
		// Root draws changed everywhere: drop the pool and regenerate
		// its full length cold on the new graph.
		w.p = newShardedPool(ng.N, w.policy)
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

	// Resample the invalidated slots from their slot-indexed streams on
	// the new graph, in parallel, on the engine's own re-bound samplers,
	// and replace them in one relayout.
	w.ensureGenWorkers(w.opt.Workers) // any it adds are bound to ng already
	sizes := make([]int32, len(invalid))
	runs := make([]Chunk, w.opt.Workers)
	sched.Static(w.opt.Workers, len(invalid), func(wk, s0, s1 int) {
		w.gen[wk].sample(w.policy, w.opt.Seed, 0, invalid[s0:s1], sizes[s0:s1], nil, &runs[wk]) // one job a worker: its buffer is its chunk
	})
	var next Chunk
	for _, r := range runs {
		next.Lists, next.Rows = append(next.Lists, r.Lists...), append(next.Rows, r.Rows...)
	}
	w.p.replace(invalid, sizes, next, w.opt.Workers)
	return r
}

// replace swaps sets of sizes[k] members, whose payloads next holds in id
// order, into the resident slots ids (global, ascending), and
// brings what the pool derives from its contents in line: the member
// total, the block summaries, the remembered selections (those below the
// first replaced slot stay, the rest re-run lazily) and the inverted
// index, when there is one — one patch, which also absorbs any sets not
// indexed yet. The store is rebuilt in fresh arrays, so the old one still
// holds the replaced sets for the patch to drop. A pool not indexed yet
// stays so, like the cold pool it must equal.
func (p *shardedPool) replace(ids []int64, sizes []int32, next Chunk, workers int) {
	old := p.sets
	p.sets = old.replaced(ids, sizes, next)
	for k, id := range ids {
		p.totalMembers += int64(sizes[k]) - int64(old.sizes[id])
	}
	p.memo.dropAbove(ids[0])
	if p.indexed > 0 {
		indexed, _ := slices.BinarySearch(ids, p.indexed) // the replaced sets the index covers
		p.patch(workers, ids[:indexed], &old)
	}
}

// invalidSlots returns, in ascending order, the global ids of pool
// slots whose sets intersect the dirty vertices. Indexed sets are found
// by walking each dirty vertex's postings; the un-indexed tail (sets a
// slot generator supplied since the last selection) falls back to
// membership probes.
func (w *WarmEngine) invalidSlots(dirty []int32) []int64 {
	p := w.p
	marked := bitset.New(int(p.count))
	if p.post.idx != nil {
		words := marked.Words()
		for _, v := range dirty {
			list, row := p.post.at(v)
			for wi, x := range row {
				words[wi] |= x
			}
			marked.SetMany(list)
		}
	}
	var c cursor
	for i := p.indexed; i < p.count; i++ {
		list, row := p.sets.set(&c, i)
		for _, v := range dirty {
			if has(list, row, v) {
				marked.Set(int(i))
				break
			}
		}
	}
	ids := make([]int64, 0, marked.Count())
	marked.ForEach(func(i int) { ids = append(ids, int64(i)) })
	return ids
}
