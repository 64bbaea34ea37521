package imm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/counter"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// The RRR pool behind the Efficient engine: one slot array indexed by
// global set id, each set in whatever representation the policy chose
// (sorted list or bitset row), and one inverted index — a CSR mapping a
// vertex to the ids of the sets containing it, so selection walks one
// contiguous run of postings per vertex instead of re-scanning every set.
// The index is sized by the postings plus one offset array and changes
// only through shardedPool.patch.
//
// Shards survive only in the modeled cost: index and selection work is
// billed, posting by posting, to the owner of the shard id mod poolShards
// of the set it touches (shardOwners), as if set storage were striped
// round-robin over a fixed number of shards. The count is fixed so that
// the stripe does not depend on the worker count.

// poolShards is the fixed billing shard count: 16 shards give the
// modeled per-worker attribution a grain up to 16 workers share evenly,
// and a power of two keeps a set's shard a mask.
const poolShards = 16

// maxPoolSets bounds the pool length: postings hold set ids as int32.
const maxPoolSets = math.MaxInt32

// PoolFootprint reports where an engine's RRR pool memory went.
// SetBytes is the resident representation (the paper's Table III
// quantity), IndexBytes the inverted-index postings that CELF selection
// walks, RawBytes the 4-bytes-per-member cost of holding the
// same pool as plain []int32 slices — the compression baseline.
type PoolFootprint struct {
	SetBytes   int64
	IndexBytes int64
	RawBytes   int64
}

// TotalBytes is the full resident footprint, sets plus index.
func (f PoolFootprint) TotalBytes() int64 { return f.SetBytes + f.IndexBytes }

// CompressionRatio is raw-slice bytes over resident set bytes (>1 means
// the representation beats plain slices).
func (f PoolFootprint) CompressionRatio() float64 {
	if f.SetBytes == 0 {
		return 1
	}
	return float64(f.RawBytes) / float64(f.SetBytes)
}

// shardedPool is the Efficient engine's pool: grow and slot writes
// during generation, ensureIndexed + CELF during selection.
type shardedPool struct {
	n            int32
	count        int64
	totalMembers int64
	// sets[i] holds global set id i; the first count slots are the pool.
	// Generation workers write distinct slots, so they need no locking.
	sets []rrr.Set

	// Inverted index over the sets below indexed, in CSR layout: the ids
	// of the sets containing v are postData[postIdx[v]:postIdx[v+1]],
	// strictly ascending (what prefixBelow's binary search and a truncated
	// view's early exit rely on). The arrays are never written after they
	// are installed: Freeze hands them out, and a thawed pool's may be a
	// read-only mapping. Offsets are 64-bit: only maxPoolSets × n bounds
	// the posting total.
	postIdx  []int64 // len n+1 once built
	postData []int32
	covered  *bitset.Bitset // selection scratch over set ids, reset per call
	indexed  int64

	// prefix[i] summarizes sets [0, i): summed Bytes()/Size(), per-kind
	// counts and the running max size, extended lazily. It makes the
	// footprint, statistics and truncated-view accounting O(1) per query
	// instead of an O(pool) rescan — the warm-serving hot path asks for
	// all three on every request. Guarded by the same serialization as
	// selection (the engine runs one query at a time).
	prefix []prefixEntry
	// heapScratch/versionScratch are the CELF kernel's per-call vertex
	// arrays (the slab its heap lives in, and the gain versions),
	// retained across selections so a batch of prefix answers on a warm
	// pool (many selections per round trip) does not re-allocate 20
	// bytes per vertex per estimation round. Guarded by the same
	// one-query-at-a-time serialization as selection.
	heapScratch    []counter.GainItem
	versionScratch []int32
	// scratch is the index patch's, retained like the selection scratch.
	scratch patchScratch
	// memo remembers the CELF selections already run over this pool
	// (selmemo.go). Guarded by the same serialization as selection.
	memo selMemo
}

func newShardedPool(n int32) *shardedPool { return &shardedPool{n: n} }

func (p *shardedPool) len() int64 { return p.count }

// grow pre-sizes the slot array for ids up to target and returns the
// previous and new pool lengths. A target past maxPoolSets is refused.
func (p *shardedPool) grow(target int64) (from, to int64, err error) {
	from = p.count
	if target <= from {
		return from, from, nil
	}
	if target > maxPoolSets {
		return from, from, fmt.Errorf("imm: a pool of %d sets exceeds the %d the index's 32-bit set ids can name", target, int64(maxPoolSets))
	}
	if need := target - int64(len(p.sets)); need > 0 {
		p.sets = append(p.sets, make([]rrr.Set, need)...)
	}
	p.count = target
	return from, target, nil
}

func (p *shardedPool) addMembers(perWorker []int64) { p.totalMembers += sumOf(perWorker) }

// patchScratch is what shardedPool.patch keeps between calls, so that a
// patch allocates only the arrays it installs.
type patchScratch struct {
	// mark is all zero between patches. While one runs, a touched vertex
	// holds the number of ids it gains, with dropMark set when it also loses
	// some; laying out turns that into how many its new segment holds so far.
	mark   []int32
	drop   bitset.Bitset       // the ids being dropped, clear between patches
	bufs   [poolShards][]int32 // a decode buffer per range writer, for non-list sets
	ranges [poolShards]patchRange
}

// patchRange is one vertex range's share of a patch.
type patchRange struct {
	dropped int64             // old postings the range loses
	gained  [poolShards]int64 // postings it gains, by the shard of their set
}

// bytes is what the scratch keeps resident.
func (sc *patchScratch) bytes() int64 {
	b := 4*int64(cap(sc.mark)) + 8*int64(len(sc.drop.Words()))
	for _, buf := range sc.bufs {
		b += 4 * int64(cap(buf))
	}
	return b
}

// dropMark flags, in patchScratch.mark, a vertex that loses postings.
const dropMark = math.MinInt32

// membersIn returns set's members in [lo, hi), ascending, as a read-only
// slice, and how many members lie below lo: a window of a list's own
// storage, the words of a bitmap that cover the range decoded into buf (lo
// must be a multiple of 64, and hi one or the vertex count), anything else
// decoded whole into buf and cut. buf is returned grown.
func membersIn(set rrr.Set, lo, hi int32, buf []int32) (part []int32, below int, _ []int32) {
	var vs []int32
	switch s := set.(type) {
	case *rrr.ListSet:
		vs = s.Raw()
	case *rrr.BitmapSet:
		buf = buf[:0]
		words := s.Words()
		for _, w := range words[:lo>>6] {
			below += bits.OnesCount64(w)
		}
		for wi := int(lo >> 6); wi < min(len(words), (int(hi)+63)>>6); wi++ {
			for w := words[wi]; w != 0; w &= w - 1 {
				buf = append(buf, int32(wi<<6+bits.TrailingZeros64(w)))
			}
		}
		return buf, below, buf
	default:
		buf = set.Vertices(buf[:0])
		vs = buf
	}
	if len(vs) > 0 && vs[0] < lo {
		below, _ = slices.BinarySearch(vs, lo)
		vs = vs[below:]
	}
	if len(vs) > 0 && vs[len(vs)-1] >= hi {
		cut, _ := slices.BinarySearch(vs, hi)
		vs = vs[:cut]
	}
	return vs, below, buf
}

// patch is the one way the inverted index changes. It drops the postings
// of the sets ids (ascending, below indexed, whose previous contents are
// old), re-adds those ids from the sets now resident, and absorbs the
// un-indexed tail [indexed, count) — Stage B and the lazy build pass no
// ids, repair passes the slots it resampled. It returns, per shard, the
// member count added: the modeled work of the pass is a decode step and a
// posting append per member, billed to the shard's owner.
//
// The result is built in fresh, exactly sized arrays; the current ones
// are only read. The work is split over contiguous vertex ranges, one
// writer each in a single fork-join, so the arrays are the same at any
// worker count — they equal a from-scratch build. A writer reads every
// changed set but only the members in its range (membersIn), twice. The
// first pass counts what each vertex gains and what the ranges before gain,
// which is where the range starts in the new array. Then one ascending
// sweep takes the old offsets to the new — the run of old postings since
// the last touched vertex moves with a single copy, a segment that loses
// ids is filtered against a bitmap of them, and room is left behind the
// survivors for the vertex's gains — and the second pass inserts each
// changed set's id, ascending, at its sorted place in that room: an append
// for a tail id, a shift of the larger ids otherwise. Cost: one streaming
// pass over the n offsets, plus work proportional to the changed sets'
// members and the segments losing ids, plus a constant per changed set and
// range.
func (p *shardedPool) patch(workers int, ids []int64, old []rrr.Set) (members [poolShards]int64) {
	if p.covered == nil {
		p.covered = bitset.New(int(p.indexed))
	}
	firstTail := p.indexed
	changed := len(ids) + int(p.count-firstTail) // ids, then the tail: ascending
	if changed == 0 {
		return members
	}
	n := int(p.n)
	sc := &p.scratch
	if cap(sc.mark) < n {
		sc.mark = make([]int32, n)
	}
	mark := sc.mark[:n]
	// Every member of every set gets its posting.
	idx, data := make([]int64, n+1), make([]int32, p.totalMembers)
	idx[n] = p.totalMembers
	oldIdx, oldData := p.postIdx, p.postData
	if oldIdx == nil {
		oldIdx = make([]int64, n+1) // the pool's first build
	}
	// Vertex range r is [bounds[r], bounds[r+1]). A writer passes over every
	// changed set for the members in its range: with more ranges than a set
	// has members, most of those visits would find nothing.
	gain := p.totalMembers - int64(len(oldData))
	for _, set := range old {
		gain += int64(set.Size())
	}
	nr := max(1, min(workers, poolShards, int(gain/int64(changed))))
	bounds := splitRanges(nr, oldIdx, int64(len(oldData)))
	ranges := sc.ranges[:nr]
	clear(ranges)

	// The replaced sets, a sliver of the pool: mark their ids and vertices.
	var vs []int32
	if len(old) > 0 {
		sc.drop.Grow(int(p.indexed))
	}
	for k, set := range old {
		sc.drop.Set(int(ids[k]))
		vs, _, sc.bufs[0] = membersIn(set, 0, p.n, sc.bufs[0])
		r := 0
		for _, v := range vs {
			mark[v] |= dropMark
			for v >= bounds[r+1] {
				r++
			}
			ranges[r].dropped++
		}
	}

	sched.Static(nr, nr, func(_, r0, r1 int) {
		for r := r0; r < r1; r++ {
			// Count the gains, here and in the ranges before.
			var gained [poolShards]int64 // summed here: ranges[r]'s neighbours are being written too
			var vs []int32
			var before int
			buf := sc.bufs[r]
			var shift int64 // how far the range's first old posting moves
			for k := range changed {
				id := firstTail + int64(k-len(ids))
				if k < len(ids) {
					id = ids[k]
				}
				vs, before, buf = membersIn(p.sets[id], bounds[r], bounds[r+1], buf)
				for _, v := range vs {
					mark[v]++
				}
				gained[id%poolShards] += int64(len(vs))
				shift += int64(before)
			}
			ranges[r].gained = gained
			for q := range r {
				shift -= ranges[q].dropped
			}

			// Lay out: offsets, survivors, and room for the gains. Old
			// postings [run, lo) are pending: they all move by shift.
			lo := oldIdx[bounds[r]]
			run := lo
			for v := int(bounds[r]); v < int(bounds[r+1]); v++ {
				hi := oldIdx[v+1]
				idx[v] = lo + shift
				if c := mark[v]; c != 0 {
					from := hi // nothing dropped here: the segment rides with the run
					if c < 0 {
						from = lo
					}
					copy(data[run+shift:], oldData[run:from])
					at := from + shift
					for _, id := range oldData[from:hi] {
						if !sc.drop.Test(int(id)) {
							data[at] = id
							at++
						}
					}
					mark[v] = int32(at - idx[v])
					run, shift = hi, at+int64(c&^dropMark)-hi
				}
				lo = hi
			}
			copy(data[run+shift:], oldData[run:lo])

			// Insert, then leave the marks zero.
			for k := range changed {
				id := firstTail + int64(k-len(ids))
				if k < len(ids) {
					id = ids[k]
				}
				vs, _, buf = membersIn(p.sets[id], bounds[r], bounds[r+1], buf)
				for _, v := range vs {
					at := idx[v] + int64(mark[v])
					mark[v]++
					if k < len(ids) { // a tail id is larger than any in place
						for ; at > idx[v] && int64(data[at-1]) > id; at-- {
							data[at] = data[at-1]
						}
					}
					data[at] = int32(id)
				}
			}
			sc.bufs[r] = buf
			clear(mark[bounds[r]:bounds[r+1]])
		}
	})
	for r := range ranges {
		for s, m := range ranges[r].gained {
			members[s] += m
		}
	}
	for k := range old {
		sc.drop.Clear(int(ids[k]))
	}

	p.postIdx, p.postData = idx, data
	p.indexed = p.count
	p.covered.Grow(int(p.indexed))
	return members
}

// splitRanges cuts the vertices into nr contiguous ranges and returns
// their bounds, multiples of 64 (so that a bitmap set's words fall whole
// into one range) up to the last. Weighing a vertex by its postings plus
// one balances the copy and the offset stream together, and splits a pool
// with no index yet by vertices alone.
func splitRanges(nr int, idx []int64, postings int64) (bounds [poolShards + 1]int32) {
	n := len(idx) - 1
	for r := 1; r < nr; r++ {
		target := (postings + int64(n)) * int64(r) / int64(nr)
		bounds[r] = int32(sort.Search(n, func(v int) bool { return idx[v]+int64(v) >= target })) &^ 63
	}
	bounds[nr] = int32(n)
	return bounds
}

// indexCurrent reports whether the inverted index and coverage scratch
// already cover the whole pool — true on every warm query, and after
// fused generation, which indexes as it goes.
func (p *shardedPool) indexCurrent() bool { return p.indexed == p.count && p.covered != nil }

// ensureIndexed extends the inverted index over the sets generated since
// the last selection and charges the decode-and-append work (2 ops per
// member) to the owners of the sets' shards. Idempotent; selection skips
// it when indexCurrent says there is nothing to do.
func (p *shardedPool) ensureIndexed(workers int, ops []int64) {
	owner := shardOwners(workers)
	for s, m := range p.patch(workers, nil, nil) {
		ops[owner[s]] += 2 * m
	}
}

// prefixEntry is the running rrr.Stats of a pool prefix, in the compact
// form the lazy prefix array stores per set (lists are the remainder of
// the count).
type prefixEntry struct {
	bytes, members   int64
	bitmaps, maxSize int32
}

// statsUpTo summarizes the logically truncated view holding only global
// set ids below limit — what a pool that had stopped growing at θ=limit
// would report. The warm-serving engine uses it so a reused pool's
// result statistics match a cold run's exactly.
func (p *shardedPool) statsUpTo(limit int64) rrr.Stats {
	count := int(min(limit, p.count))
	e := p.prefixUpTo(limit)
	st := rrr.Stats{
		Count:      count,
		TotalSize:  e.members,
		MaxSize:    int(e.maxSize),
		TotalBytes: e.bytes,
		Bitmaps:    int(e.bitmaps),
		Lists:      count - int(e.bitmaps),
	}
	st.Finalize(p.n)
	return st
}

// prefixUpTo returns the summary of set ids below limit (clamped to the
// pool), growing the lazy prefix array over any sets it has not folded
// yet. Amortized O(new sets) across a pool's lifetime, O(1) afterwards.
// The fold is rrr.Stats.Add's, without its interface calls for lists.
func (p *shardedPool) prefixUpTo(limit int64) prefixEntry {
	limit = min(limit, p.count)
	if p.prefix == nil {
		p.prefix = []prefixEntry{{}}
	}
	next := len(p.prefix) - 1 // first set not yet folded
	if int64(next) >= limit {
		return p.prefix[limit]
	}
	p.prefix = slices.Grow(p.prefix, int(limit)-next)
	e := p.prefix[next]
	for i := int64(next); i < limit; i++ {
		set := p.sets[i]
		var size int
		if ls, ok := set.(*rrr.ListSet); ok {
			size = ls.Size()
			e.bytes += ls.Bytes()
		} else {
			size = set.Size()
			e.bytes += set.Bytes()
			e.bitmaps++
		}
		e.members += int64(size)
		e.maxSize = max(e.maxSize, int32(size))
		p.prefix = append(p.prefix, e)
	}
	return p.prefix[limit]
}

// membersUpTo returns Σ|R| over global set ids below limit.
func (p *shardedPool) membersUpTo(limit int64) int64 {
	if limit >= p.count {
		return p.totalMembers
	}
	return p.prefixUpTo(limit).members
}

// bytesUpTo returns the summed set representation bytes below limit.
func (p *shardedPool) bytesUpTo(limit int64) int64 { return p.prefixUpTo(limit).bytes }

// footprint reports resident pool bytes as they stand: set payloads for
// the whole pool, index bytes only for what selection actually indexed.
// A scan-mode run therefore reports IndexBytes 0 — it never builds the
// inverted view — which is the memory/selection-speed trade-off the
// harness sweep measures.
func (p *shardedPool) footprint() PoolFootprint {
	// Postings payload: 4 bytes per member. The n+1 offset array is a
	// fixed overhead excluded here so the figure stays comparable across
	// pool sizes (WarmEngine.OverheadBytes counts it).
	return PoolFootprint{
		SetBytes:   p.bytesUpTo(p.count),
		IndexBytes: 4 * int64(len(p.postData)),
		RawBytes:   4 * p.totalMembers,
	}
}

// footprintUpTo reports the footprint of the truncated view over global
// set ids below limit, as a cold pool of that size would have reported
// it after a CELF selection (index fully built over the view).
func (p *shardedPool) footprintUpTo(limit int64) PoolFootprint {
	if limit >= p.count {
		return p.footprint()
	}
	members := p.membersUpTo(limit)
	f := PoolFootprint{SetBytes: p.bytesUpTo(limit), RawBytes: 4 * members}
	// Charge index bytes only when selection actually built the inverted
	// view (a scan-mode pool never does and reports IndexBytes 0, the
	// same trade-off the full footprint reports).
	if p.indexed > 0 {
		f.IndexBytes = 4 * members
	}
	return f
}
