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
	Seed        uint64
	AdaptiveRep bool

	Count        int64 // physical pool length (slots generated)
	TotalMembers int64 // Σ|R| over all Count sets

	// The sets, in id order. Sizes holds each set's member count, which
	// also names its representation: the pool's policy stores a set of
	// that size as a bitmap row when rrr.Policy.Dense says so and as a
	// sorted list otherwise (rrr.DefaultPolicy's threshold when AdaptiveRep
	// is set). The members themselves are concatenated into one blob per
	// representation, so each blob keeps a fixed element size and can be
	// aliased straight out of a 64-byte-aligned snapshot section (or an
	// mmap of one) without decoding. Set i's payload starts where sets
	// 0..i-1 of the same representation end.
	Sizes      []int32  // member count per set, len Count
	ListData   []int32  // concatenated sorted member lists
	BitmapData []uint64 // concatenated word rows, (N+63)/64 words each

	// PostIdx/PostData/PostRows are the pool's inverted index over all
	// Count sets, or nil when the pool was never indexed (scan-mode pools).
	// PostIdx is a CSR offset array over occurrence counts: vertex v is in
	// PostIdx[v+1]−PostIdx[v] sets. The policy's Dense(Count, that count)
	// names how its postings are stored, as for a set: a row of
	// (Count+63)/64 words over set ids in PostRows, or its ascending ids in
	// PostData, each blob in vertex order.
	PostIdx  []int64 // len N+1 when present
	PostData []int32
	PostRows []uint64

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
// The returned state's Sizes/ListData/BitmapData and
// PostIdx/PostData/PostRows are the pool's own arrays, which the engine
// never writes once installed but may alias a mapping whose owner
// releases it with the engine: the state is valid only until the engine
// serves again. Callers that persist the state (the .impool writer)
// consume it before releasing the engine's query lock. Memo is a copy of the memo's entries; their seed slices,
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
		Count:        p.count,
		TotalMembers: p.totalMembers,
	}
	if p.memo.n > 0 {
		st.Memo = slices.Clone(p.memo.slots[:p.memo.n])
	}
	if p.indexed > 0 {
		p.patch(w.opt.Workers, nil, nil)
		st.PostIdx, st.PostData, st.PostRows = p.post.idx, p.post.data, p.post.rows
	}
	st.Sizes, st.ListData, st.BitmapData = p.sets.sizes, p.sets.lists, p.sets.rows
	return st, nil
}

// ThawWarmEngine rebuilds a WarmEngine for g under opt from a frozen
// pool state, adopting the state's arrays without copying (they may alias
// a memory-mapped snapshot; the engine never writes to them, and adopts
// them with their capacity clipped, so that growing one copies it).
// The state must have been structurally validated by its producer (the
// .impool reader validates sortedness, ranges, blob extents, and index
// shape); ThawWarmEngine checks the binding — graph shape, model, and
// content fingerprint, plus the pool-shaping options — and audits the
// memo (ValidateMemo), whose entries it installs with no hits counted:
// the thawed pool answers the selections the frozen one had run from
// the memo, with copies of their seeds and the modeled cost they billed.
// Each set's representation, and each vertex's postings', is the one opt's
// policy gives its size (rrr.Policy.Dense), so a size or count that
// disagrees with the payloads surfaces as a blob overrun or surplus. Epoch
// policy is the caller's decision — a serving layer compares st.Epoch
// against its registry before calling.
//
// The index is the pool's occurrence count, so a CELF engine needs nothing
// rebuilt. A scan-selection engine under kernel fusion refills its
// counter from the sets, so a thawed engine answers exactly like the
// engine that was frozen — and like a cold Run on the same graph epoch.
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
	if opt.Seed != st.Seed || opt.AdaptiveRep != st.AdaptiveRep {
		return nil, fmt.Errorf("%w: pool options (seed %d, adaptive %v) vs frozen (%d, %v)",
			ErrPoolIncompatible, opt.Seed, opt.AdaptiveRep, st.Seed, st.AdaptiveRep)
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
	var members int64
	var lc, bc int
	for i, size := range st.Sizes {
		if w.policy.Dense(st.N, int(size)) {
			bc += words
		} else {
			lc += int(size)
		}
		if members += int64(size); size < 0 || lc > len(st.ListData) || bc > len(st.BitmapData) {
			return nil, fmt.Errorf("%w: set %d of size %d is negative or overruns its payload blob", ErrPoolIncompatible, i, size)
		}
	}
	if lc != len(st.ListData) || bc != len(st.BitmapData) {
		return nil, fmt.Errorf("%w: payload blobs larger than the sets consume", ErrPoolIncompatible)
	}
	if members != st.TotalMembers {
		return nil, fmt.Errorf("%w: member sum %d vs frozen total %d", ErrPoolIncompatible, members, st.TotalMembers)
	}
	p.sets.sizes, p.sets.lists, p.sets.rows = clip(st.Sizes), clip(st.ListData), clip(st.BitmapData)
	p.sets.summarize(0)
	p.count, p.totalMembers = st.Count, st.TotalMembers
	if st.PostIdx != nil {
		// One posting per member, laid out as the counts' kinds say.
		if len(st.PostIdx) != int(st.N)+1 || st.PostIdx[0] != 0 || st.PostIdx[st.N] != members {
			return nil, fmt.Errorf("%w: index offsets (%d of them) do not span the postings of %d vertices and %d members",
				ErrPoolIncompatible, len(st.PostIdx), st.N, members)
		}
		ix := postings{idx: clip(st.PostIdx)}
		lists, words, ok := ix.layOut(w.policy, st.Count)
		if !ok {
			return nil, fmt.Errorf("%w: index offsets decrease", ErrPoolIncompatible)
		}
		if lists != int64(len(st.PostData)) || words != int64(len(st.PostRows)) {
			return nil, fmt.Errorf("%w: index holds %d list postings and %d row words, its counts call for %d and %d",
				ErrPoolIncompatible, len(st.PostData), len(st.PostRows), lists, words)
		}
		ix.data, ix.rows = clip(st.PostData), clip(st.PostRows)
		p.post, p.indexed = ix, p.count
	}
	p.memo.install(st.Memo)

	// A scan engine's fused counter is the one thing the state does not hold.
	if w.base != nil && opt.Fusion {
		rebuildBase(w.base, p, opt.Workers)
	}
	return w, nil
}

// rebuildBase folds every pool member into base in parallel over the
// global slot range; atomic increments commute.
func rebuildBase(base *counter.Counter, p *shardedPool, workers int) {
	sched.Static(workers, int(p.count), func(_, lo, hi int) {
		var c cursor
		var vs, buf []int32
		for i := lo; i < hi; i++ {
			vs, buf = p.sets.members(&c, int64(i), buf)
			for _, v := range vs {
				base.Inc(v)
			}
		}
	})
}

// clip returns s with its capacity cut to its length.
func clip[S ~[]E, E any](s S) S { return s[:len(s):len(s)] }
