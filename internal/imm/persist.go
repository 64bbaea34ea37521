package imm

// Warm-pool freeze/thaw: the serialization seam behind the .impool
// snapshot format (internal/ingest) and the serving layer's disk tier
// (internal/serve). Freeze flattens a WarmEngine's pool into a
// PoolState — the set payloads in their resident representations, in set
// id order, the pool's inverted index, its selection memo, and the (seed,
// slot-count) RNG metadata that makes the pool reproducible — bound to
// the graph it was built on by shape, model, delta epoch, and a content
// fingerprint. Thaw rebuilds a WarmEngine around those payloads without
// resampling anything, and without re-running a selection the memo
// remembers.
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
	"slices"

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
	AdaptiveRep  bool
	RepThreshold float64

	Count        int64 // physical pool length (slots generated)
	TotalMembers int64 // Σ|R| over all Count sets

	// The sets, in id order. Sizes holds each set's member count, which
	// also names its representation: the pool's policy stores a set of
	// that size as a bitmap row when rrr.Policy.Dense says so and as a
	// sorted list otherwise. The members themselves are concatenated into
	// one blob per representation, so each blob keeps a fixed element
	// size and can be aliased straight out of a 64-byte-aligned snapshot
	// section (or an mmap of one) without decoding. Set i's payload starts
	// where sets 0..i-1 of the same representation end.
	Sizes      []int32  // member count per set, len Count
	ListData   []int32  // concatenated sorted member lists
	BitmapData []uint64 // concatenated word rows, (N+63)/64 words each

	// PostIdx/PostData are the pool's CSR inverted index over all Count
	// sets — vertex v's postings are the global set ids
	// PostData[PostIdx[v]:PostIdx[v+1]], ascending — or nil when the pool
	// was never indexed (scan-mode pools).
	PostIdx  []int64 // len N+1 when present
	PostData []int32

	// Memo is the pool's selection memo (selmemo.go) at the freeze, oldest
	// entry first: the CELF selections already run over this pool.
	Memo []PoolMemoEntry
}

// GraphChecksum is the content fingerprint pool snapshots bind to:
// graph.Graph.Checksum, computed once per graph object.
func GraphChecksum(g *graph.Graph) uint64 { return g.Checksum() }

// Freeze flattens the engine's physical pool into a PoolState bound to
// the given graph delta epoch. Pending (generated but not yet indexed)
// sets are indexed first, so a frozen index always covers the whole pool
// — the same invariant selection maintains.
//
// The returned state's ListData/BitmapData blobs are freshly
// owned copies (list sets may alias arena blocks that die with the
// engine), but PostIdx/PostData alias the live index arrays: the state
// is valid only until the engine serves again. Callers that persist the
// state (the .impool writer) consume it before releasing the engine's
// query lock. Memo is a copy of the memo's entries; their seed slices,
// which nothing writes, are shared.
func (w *WarmEngine) Freeze(epoch int64) (*PoolState, error) {
	p := w.p
	st := &PoolState{
		N:            p.n,
		M:            w.g.M,
		Model:        w.g.Model(),
		Epoch:        epoch,
		GraphSum:     GraphChecksum(w.g),
		Seed:         w.opt.Seed,
		AdaptiveRep:  w.opt.AdaptiveRep,
		RepThreshold: w.opt.RepThreshold,
		Count:        p.count,
		TotalMembers: p.totalMembers,
	}
	if p.memo.n > 0 {
		st.Memo = slices.Clone(p.memo.slots[:p.memo.n])
	}
	if p.indexed > 0 {
		p.patch(w.opt.Workers, nil, nil)
		st.PostIdx, st.PostData = p.postIdx, p.postData
	}
	st.Sizes = make([]int32, p.count)
	for i, set := range p.sets[:p.count] {
		st.Sizes[i] = int32(set.Size())
		switch v := set.(type) {
		case *rrr.ListSet:
			st.ListData = append(st.ListData, v.Raw()...)
		case *rrr.BitmapSet:
			st.BitmapData = append(st.BitmapData, v.Words()...)
		default:
			return nil, fmt.Errorf("imm: freeze: set %d has unknown representation %T", i, set)
		}
	}
	return st, nil
}

// ThawWarmEngine rebuilds a WarmEngine for g under opt from a frozen
// pool state, adopting the state's payload slices without copying (they
// may alias a memory-mapped snapshot; the engine never writes to them).
// The state must have been structurally validated by its producer (the
// .impool reader validates sortedness, ranges, blob extents, and index
// shape); ThawWarmEngine checks the binding — graph shape, model, and
// content fingerprint, plus the pool-shaping options — and audits the
// memo (ValidateMemo), whose entries it installs with no hits counted:
// the thawed pool answers the selections the frozen one had run from
// the memo, with copies of their seeds and the modeled cost they billed.
// Each entry's representation is the one opt's policy gives its size
// (rrr.Policy.Dense), so a size that disagrees with the payloads surfaces
// as a blob overrun or surplus. Epoch policy is the caller's decision —
// a serving layer compares st.Epoch against its registry before calling.
//
// Under kernel fusion the global occurrence counter is refilled from the
// adopted index offsets (or, for an unindexed state, from the sets), so
// a thawed engine answers exactly like the engine that was frozen — and
// like a cold Run on the same graph epoch.
func ThawWarmEngine(g *graph.Graph, opt Options, st *PoolState) (*WarmEngine, error) {
	w, err := NewWarmEngine(g, opt)
	if err != nil {
		return nil, err
	}
	opt = w.opt
	if g.N != st.N || g.M != st.M || g.Model() != st.Model {
		return nil, fmt.Errorf("%w: graph shape/model (%d, %d, %v) vs frozen (%d, %d, %v)",
			ErrPoolIncompatible, g.N, g.M, g.Model(), st.N, st.M, st.Model)
	}
	if sum := GraphChecksum(g); sum != st.GraphSum {
		return nil, fmt.Errorf("%w: graph content fingerprint %#x vs frozen %#x", ErrPoolIncompatible, sum, st.GraphSum)
	}
	if opt.Seed != st.Seed || opt.AdaptiveRep != st.AdaptiveRep || opt.RepThreshold != st.RepThreshold {
		return nil, fmt.Errorf("%w: pool options (seed %d, adaptive %v, threshold %v) vs frozen (%d, %v, %v)",
			ErrPoolIncompatible, opt.Seed, opt.AdaptiveRep, opt.RepThreshold,
			st.Seed, st.AdaptiveRep, st.RepThreshold)
	}
	if st.Count < 0 {
		return nil, fmt.Errorf("%w: negative pool length %d", ErrPoolIncompatible, st.Count)
	}
	if int64(len(st.Sizes)) != st.Count {
		return nil, fmt.Errorf("%w: %d set sizes for a pool of %d sets", ErrPoolIncompatible, len(st.Sizes), st.Count)
	}
	if err := st.ValidateMemo(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPoolIncompatible, err)
	}

	p := w.p
	if _, _, err := p.grow(st.Count); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPoolIncompatible, err)
	}
	words := (int(st.N) + 63) / 64
	bitmaps := 0
	for _, size := range st.Sizes {
		if w.policy.Dense(st.N, int(size)) {
			bitmaps++
		}
	}
	slab := rrr.NewAdoptSlab(len(st.Sizes)-bitmaps, bitmaps)
	var members int64
	var lc, bc int
	for i, size32 := range st.Sizes {
		size := int(size32)
		if size < 0 {
			return nil, fmt.Errorf("%w: set %d has negative size", ErrPoolIncompatible, i)
		}
		if w.policy.Dense(st.N, size) {
			if bc+words > len(st.BitmapData) {
				return nil, fmt.Errorf("%w: set %d bitmap payload overrun", ErrPoolIncompatible, i)
			}
			p.sets[i] = slab.Bitmap(st.N, st.BitmapData[bc:bc+words:bc+words], size)
			bc += words
		} else {
			if lc+size > len(st.ListData) {
				return nil, fmt.Errorf("%w: set %d list payload overrun", ErrPoolIncompatible, i)
			}
			p.sets[i] = slab.SortedList(st.ListData[lc : lc+size : lc+size])
			lc += size
		}
		members += int64(size)
	}
	if lc != len(st.ListData) || bc != len(st.BitmapData) {
		return nil, fmt.Errorf("%w: payload blobs larger than the sets consume", ErrPoolIncompatible)
	}
	if members != st.TotalMembers {
		return nil, fmt.Errorf("%w: member sum %d vs frozen total %d", ErrPoolIncompatible, members, st.TotalMembers)
	}
	p.totalMembers = st.TotalMembers
	if st.PostIdx != nil {
		// One posting per member: the fused counter is refilled from
		// these offsets (baseFromIndex), not from the sets.
		if len(st.PostIdx) != int(st.N)+1 || int64(len(st.PostData)) != members || st.PostIdx[st.N] != members {
			return nil, fmt.Errorf("%w: index holds %d offsets and %d postings for %d vertices and %d members",
				ErrPoolIncompatible, len(st.PostIdx), len(st.PostData), st.N, members)
		}
		p.postIdx, p.postData, p.indexed = st.PostIdx, st.PostData, p.count
	}
	p.memo.install(st.Memo)

	// Refill the fused occurrence counter: from the index offsets when
	// the pool arrived indexed, else by walking the adopted sets. Both
	// land on exactly the counts incremental fusion would have accumulated.
	if opt.Fusion && p.count > 0 {
		if !baseFromIndex(w.base, p, opt.Workers) {
			rebuildBase(w.base, p, opt.Workers)
		}
		w.baseFresh = true
	}
	return w, nil
}

// baseFromIndex fills a zeroed base from the index's CSR offsets — a
// vertex's count is its posting count, postIdx[v+1]−postIdx[v] —
// streaming one offset array instead of visiting every pool member. It
// reports false, leaving base untouched, unless the index covers the
// whole pool. Workers own disjoint vertex ranges.
func baseFromIndex(base *counter.Counter, p *shardedPool, workers int) bool {
	if p.postIdx == nil || p.indexed != p.count {
		return false
	}
	counts, idx := base.Raw(), p.postIdx
	sched.Static(workers, int(p.n), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			counts[v] = idx[v+1] - idx[v]
		}
	})
	return true
}

// rebuildBase folds every pool member into base in parallel over the
// global slot range; atomic increments commute.
func rebuildBase(base *counter.Counter, p *shardedPool, workers int) {
	sched.Static(workers, int(p.count), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.sets[i].ForEach(func(v int32) { base.Inc(v) })
		}
	})
}
