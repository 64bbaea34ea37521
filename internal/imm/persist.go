package imm

// Warm-pool freeze/thaw: the serialization seam behind the .impool
// snapshot format (internal/ingest) and the serving layer's disk tier
// (internal/serve). Freeze flattens a WarmEngine's sharded pool into a
// PoolState — per-shard set payloads in their resident representations,
// the inverted-index postings, and the (seed, slot-count) RNG metadata
// that makes the pool reproducible — bound to the graph it was built on
// by shape, model, delta epoch, and a content fingerprint. Thaw rebuilds
// a WarmEngine around those payloads without resampling anything.
//
// Correctness rests on the same slot determinism the warm seam relies
// on: pool slot i is a pure function of (graph, policy, seed, i), so a
// thawed pool whose binding checks pass is byte-for-byte the pool a cold
// Run would have generated on the same graph epoch — and every answer
// served from it is byte-identical to both the pre-freeze engine's and a
// cold Run's.

import (
	"errors"
	"fmt"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// ErrPoolIncompatible reports a freeze/thaw binding mismatch: the pool
// state was built under a different graph, seed, or pool-shaping option
// than the thaw target. Callers treat it as "regenerate cold", never as
// corruption.
var ErrPoolIncompatible = errors.New("imm: pool state incompatible with thaw target")

// Set-kind tags used by PoolShardState.Kinds. They are part of the
// .impool wire format and must not be renumbered.
const (
	PoolSetList       = 0 // rrr.ListSet: Sizes[j] members in ListData
	PoolSetCompressed = 1 // rrr.CompressedSet: CompLens[j] bytes in CompData
	PoolSetBitmap     = 2 // rrr.BitmapSet: (n+63)/64 words in BitmapData
)

// PoolShardState is one shard's flattened payload. Per-set metadata
// lives in three parallel arrays (Kinds/Sizes/CompLens); the members
// themselves are concatenated into one blob per representation, so each
// blob keeps a fixed element size and can be aliased straight out of a
// 64-byte-aligned snapshot section (or an mmap of one) without decoding.
// Entry j's payload starts where entries 0..j-1 of the same kind end.
type PoolShardState struct {
	Kinds    []uint8 // PoolSetList/PoolSetCompressed/PoolSetBitmap per local entry
	Sizes    []int32 // member count per entry
	CompLens []int32 // encoded byte length per entry (0 unless compressed)

	ListData   []int32  // concatenated sorted member lists
	CompData   []byte   // concatenated delta-varint payloads
	BitmapData []uint64 // concatenated word rows, (N+63)/64 words each

	// PostIdx/PostData are the shard's CSR inverted index over all
	// entries, or nil when the shard was never indexed (scan-mode pools).
	PostIdx  []int32 // len N+1 when present
	PostData []int32
}

// PoolState is a frozen warm pool plus everything needed to decide
// whether a thaw target may adopt it: the graph binding (shape, model,
// delta epoch, content fingerprint) and the pool-shaping options (RNG
// seed, representation policy) that define which pool this is.
type PoolState struct {
	// Graph binding.
	N        int32
	M        int64
	Model    graph.Model
	Epoch    int64  // graph delta epoch the pool was frozen at
	GraphSum uint64 // GraphChecksum of the frozen-against graph

	// Pool identity: the RNG-slot metadata. Slot i of the pool is drawn
	// from the seed-indexed stream (graph, policy, Seed, i), so Seed plus
	// Count fully determine the θ-trajectory contents below Count.
	Seed         uint64
	Pool         PoolKind
	AdaptiveRep  bool
	RepThreshold float64

	Count        int64 // physical pool length (slots generated)
	TotalMembers int64 // Σ|R| over all Count sets

	Shards [poolShards]PoolShardState
}

// ShardCount returns the fixed pool shard count the state is striped
// over — part of the .impool format contract.
func (st *PoolState) ShardCount() int { return poolShards }

// GraphChecksum is the content fingerprint pool snapshots bind to:
// graph.Graph.Checksum, computed once per graph object.
func GraphChecksum(g *graph.Graph) uint64 { return g.Checksum() }

// Freeze flattens the engine's physical pool into a PoolState bound to
// the given graph delta epoch. Shards with pending (generated but not
// yet indexed) entries are indexed first, so the frozen index always
// covers the whole shard — the same invariant selection maintains.
//
// The returned state's ListData/CompData/BitmapData blobs are freshly
// owned copies (list sets may alias arena blocks that die with the
// engine), but PostIdx/PostData alias the live index arrays: the state
// is valid only until the engine serves again. Callers that persist the
// state (the .impool writer) consume it before releasing the engine's
// query lock.
func (w *WarmEngine) Freeze(epoch int64) (*PoolState, error) {
	e := w.inner
	p := e.p
	st := &PoolState{
		N:            p.n,
		M:            w.g.M,
		Model:        w.g.Model(),
		Epoch:        epoch,
		GraphSum:     GraphChecksum(w.g),
		Seed:         e.opt.Seed,
		Pool:         e.opt.Pool,
		AdaptiveRep:  e.opt.AdaptiveRep,
		RepThreshold: e.opt.RepThreshold,
		Count:        p.count,
		TotalMembers: p.totalMembers,
	}
	for s := range p.shards {
		sh := &p.shards[s]
		if sh.indexed > 0 && sh.indexed < len(sh.sets) {
			sh.extend(p.n, &p.indexScratches(1)[0])
		}
		out := &st.Shards[s]
		out.Kinds = make([]uint8, len(sh.sets))
		out.Sizes = make([]int32, len(sh.sets))
		out.CompLens = make([]int32, len(sh.sets))
		for j, set := range sh.sets {
			switch v := set.(type) {
			case *rrr.ListSet:
				out.Kinds[j] = PoolSetList
				out.Sizes[j] = int32(v.Size())
				out.ListData = append(out.ListData, v.Raw()...)
			case *rrr.CompressedSet:
				out.Kinds[j] = PoolSetCompressed
				out.Sizes[j] = int32(v.Size())
				enc := v.Encoded()
				out.CompLens[j] = int32(len(enc))
				out.CompData = append(out.CompData, enc...)
			case *rrr.BitmapSet:
				out.Kinds[j] = PoolSetBitmap
				out.Sizes[j] = int32(v.Size())
				out.BitmapData = append(out.BitmapData, v.Words()...)
			default:
				return nil, fmt.Errorf("imm: freeze: shard %d entry %d has unknown set representation %T", s, j, set)
			}
		}
		if sh.indexed == len(sh.sets) && sh.postIdx != nil {
			out.PostIdx = sh.postIdx
			out.PostData = sh.postData
		}
	}
	return st, nil
}

// ThawWarmEngine rebuilds a WarmEngine for g under opt from a frozen
// pool state, adopting the state's payload slices without copying (they
// may alias a memory-mapped snapshot; the engine never writes to them).
// The state must have been structurally validated by its producer (the
// .impool reader validates sortedness, ranges, blob extents, and index
// shape); ThawWarmEngine checks only the binding: graph shape, model,
// and content fingerprint, plus the pool-shaping options. Epoch policy
// is the caller's decision — a serving layer compares st.Epoch against
// its registry before calling.
//
// Under kernel fusion the global occurrence counter is refilled from the
// adopted index offsets (or, for an unindexed state, from the sets), so
// a thawed engine answers exactly like the engine that was frozen — and
// like a cold Run on the same graph epoch.
func ThawWarmEngine(g *graph.Graph, opt Options, st *PoolState) (*WarmEngine, error) {
	if err := opt.normalize(g); err != nil {
		return nil, err
	}
	if opt.Engine != Efficient {
		return nil, fmt.Errorf("imm: warm reuse requires the Efficient engine, got %v", opt.Engine)
	}
	if g.N != st.N || g.M != st.M || g.Model() != st.Model {
		return nil, fmt.Errorf("%w: graph shape/model (%d, %d, %v) vs frozen (%d, %d, %v)",
			ErrPoolIncompatible, g.N, g.M, g.Model(), st.N, st.M, st.Model)
	}
	if sum := GraphChecksum(g); sum != st.GraphSum {
		return nil, fmt.Errorf("%w: graph content fingerprint %#x vs frozen %#x", ErrPoolIncompatible, sum, st.GraphSum)
	}
	if opt.Seed != st.Seed || opt.Pool != st.Pool || opt.AdaptiveRep != st.AdaptiveRep || opt.RepThreshold != st.RepThreshold {
		return nil, fmt.Errorf("%w: pool options (seed %d, pool %d, adaptive %v, threshold %v) vs frozen (%d, %d, %v, %v)",
			ErrPoolIncompatible, opt.Seed, int(opt.Pool), opt.AdaptiveRep, opt.RepThreshold,
			st.Seed, int(st.Pool), st.AdaptiveRep, st.RepThreshold)
	}
	if st.Count < 0 {
		return nil, fmt.Errorf("%w: negative pool length %d", ErrPoolIncompatible, st.Count)
	}

	e := newEfficientEngine(g, opt)
	p := e.p
	p.grow(st.Count)
	words := (int(st.N) + 63) / 64
	var members int64
	for s := range st.Shards {
		in := &st.Shards[s]
		sh := &p.shards[s]
		if len(in.Kinds) != len(sh.sets) || len(in.Sizes) != len(sh.sets) || len(in.CompLens) != len(sh.sets) {
			return nil, fmt.Errorf("%w: shard %d holds %d entries, pool length %d needs %d",
				ErrPoolIncompatible, s, len(in.Kinds), st.Count, len(sh.sets))
		}
		var lists, comps, bitmaps int
		for _, k := range in.Kinds {
			switch k {
			case PoolSetList:
				lists++
			case PoolSetCompressed:
				comps++
			case PoolSetBitmap:
				bitmaps++
			}
		}
		slab := rrr.NewAdoptSlab(lists, comps, bitmaps)
		shardStart := members
		var lc, cc, bc int
		for j := range sh.sets {
			size := int(in.Sizes[j])
			if size < 0 {
				return nil, fmt.Errorf("%w: shard %d entry %d has negative size", ErrPoolIncompatible, s, j)
			}
			switch in.Kinds[j] {
			case PoolSetList:
				if lc+size > len(in.ListData) {
					return nil, fmt.Errorf("%w: shard %d list payload overrun", ErrPoolIncompatible, s)
				}
				sh.sets[j] = slab.SortedList(in.ListData[lc : lc+size : lc+size])
				lc += size
			case PoolSetCompressed:
				cl := int(in.CompLens[j])
				if cl < 0 || cc+cl > len(in.CompData) {
					return nil, fmt.Errorf("%w: shard %d compressed payload overrun", ErrPoolIncompatible, s)
				}
				sh.sets[j] = slab.Compressed(in.CompData[cc:cc+cl:cc+cl], in.Sizes[j])
				cc += cl
			case PoolSetBitmap:
				if bc+words > len(in.BitmapData) {
					return nil, fmt.Errorf("%w: shard %d bitmap payload overrun", ErrPoolIncompatible, s)
				}
				sh.sets[j] = slab.Bitmap(st.N, in.BitmapData[bc:bc+words:bc+words], size)
				bc += words
			default:
				return nil, fmt.Errorf("%w: shard %d entry %d has unknown set kind %d", ErrPoolIncompatible, s, j, in.Kinds[j])
			}
			members += int64(size)
		}
		if lc != len(in.ListData) || cc != len(in.CompData) || bc != len(in.BitmapData) {
			return nil, fmt.Errorf("%w: shard %d payload blobs larger than entries consume", ErrPoolIncompatible, s)
		}
		if in.PostIdx != nil {
			if len(in.PostIdx) != int(st.N)+1 {
				return nil, fmt.Errorf("%w: shard %d index has %d offsets, want %d", ErrPoolIncompatible, s, len(in.PostIdx), int(st.N)+1)
			}
			// One posting per member: the fused counter is refilled from
			// these offsets (baseFromIndex), not from the sets.
			if int64(len(in.PostData)) != members-shardStart || int(in.PostIdx[st.N]) != len(in.PostData) {
				return nil, fmt.Errorf("%w: shard %d index holds %d postings for %d members", ErrPoolIncompatible, s, len(in.PostData), members-shardStart)
			}
			sh.postIdx = in.PostIdx
			sh.postData = in.PostData
			sh.postCount = int64(len(in.PostData))
			sh.indexed = len(sh.sets)
		}
	}
	if members != st.TotalMembers {
		return nil, fmt.Errorf("%w: member sum %d vs frozen total %d", ErrPoolIncompatible, members, st.TotalMembers)
	}
	p.totalMembers = st.TotalMembers

	// Refill the fused occurrence counter: from the index offsets when
	// every shard arrived indexed, else by walking the adopted sets. Both
	// land on exactly the counts incremental fusion would have accumulated.
	if opt.Fusion && p.count > 0 {
		if !baseFromIndex(e.base, p, opt.Workers) {
			rebuildBase(e.base, p, opt.Workers)
		}
		e.baseFresh = true
	}
	return &WarmEngine{g: g, inner: e}, nil
}

// baseFromIndex fills a zeroed base from the shards' CSR offsets — a
// vertex's count is its posting count, Σ over shards of
// postIdx[v+1]−postIdx[v] — streaming 16 offset arrays instead of
// visiting every pool member. It reports false, leaving base untouched,
// unless every shard holding sets is fully indexed. Workers own disjoint
// vertex ranges, so the adds need no atomics.
func baseFromIndex(base *counter.Counter, p *shardedPool, workers int) bool {
	for s := range p.shards {
		if sh := &p.shards[s]; len(sh.sets) > 0 && (sh.postIdx == nil || sh.indexed != len(sh.sets)) {
			return false
		}
	}
	counts := base.Raw()
	sched.Static(workers, int(p.n), func(_, lo, hi int) {
		for s := range p.shards {
			idx := p.shards[s].postIdx
			if idx == nil {
				continue
			}
			prev := idx[lo]
			for v, next := range idx[lo+1 : hi+1] {
				counts[lo+v] += int64(next - prev)
				prev = next
			}
		}
	})
	return true
}

// rebuildBase folds every pool member into base in parallel over the
// global slot range; atomic increments commute.
func rebuildBase(base *counter.Counter, p *shardedPool, workers int) {
	sched.Static(workers, int(p.count), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.get(int64(i)).ForEach(func(v int32) { base.Inc(v) })
		}
	})
}
