package imm

import (
	"math"
	"slices"

	"repro/internal/bitset"
	"repro/internal/counter"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// The sharded RRR pool behind the Efficient engine. Set ids are struck
// round-robin across a fixed number of shards (fixed so that nothing
// about the pool layout — and therefore nothing about selection —
// depends on the worker count). Each shard owns:
//
//   - the sets themselves, in whatever representation the policy chose
//     (plain lists, delta-encoded compressed lists, or bitset rows);
//   - an inverted index mapping vertex → ids of the shard's sets that
//     contain it, so coverage updates during selection walk compact
//     postings instead of re-scanning (and, for compressed sets,
//     re-decoding) every set. It changes only through poolShard.patch,
//     as the pool grows and when repair replaces resident sets, at the
//     cost of one streaming pass over the n offsets plus work
//     proportional to the sets that changed;
//   - a coverage scratch bitset reused across selection calls.
//
// Shards give index extension after generation a natural parallel grain,
// and the posting walks of selection a fixed unit of modeled per-worker
// attribution, both independent of the simulated worker count.

// poolShards is the fixed shard count. A power of two keeps the id
// mapping a mask/shift; 16 shards keep per-shard postings balanced (ids
// are striped) while giving up to 16 workers independent work.
const poolShards = 16

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

// poolShard is one stripe of the pool. Entry j holds global set id
// j*poolShards + (shard index).
type poolShard struct {
	sets []rrr.Set

	// Inverted index over sets[:indexed] in CSR layout: the local entry
	// ids whose set contains v are postData[postIdx[v]:postIdx[v+1]], in
	// ascending order. One flat payload array per shard keeps index
	// growth at two allocations per shard per patch, and posting walks
	// stream a contiguous array. Once built, selection works entirely on
	// postings and never touches (or, for compressed sets, decodes) a set
	// representation again. The arrays are never written after they are
	// installed: Freeze hands them out, and a thawed pool's may be a
	// read-only mapping.
	postIdx  []int32 // len n+1 once built
	postData []int32
	covered  *bitset.Bitset // selection scratch over entries, reset per call
	indexed  int

	postCount int64 // total postings (one per member)
}

// postings returns the local entry ids of sets[:indexed] containing v,
// ascending. Nil until the index is first built.
func (s *poolShard) postings(v int32) []int32 {
	if s.postIdx == nil {
		return nil
	}
	return s.postData[s.postIdx[v]:s.postIdx[v+1]]
}

// setMembers returns set's members, ascending, as a read-only slice: a
// list's own storage, anything else decoded into buf (returned grown).
func setMembers(set rrr.Set, buf []int32) (members, _ []int32) {
	if ls, ok := set.(*rrr.ListSet); ok {
		return ls.Raw(), buf
	}
	buf = set.Vertices(buf[:0])
	return buf, buf
}

// indexScratch is one worker's retained state for poolShard.patch, so a
// patch allocates only the two arrays it returns.
type indexScratch struct {
	// mark is all zero between patches. While one runs, a touched vertex
	// holds the number of ids it gains, with dropMark set when it also
	// loses some; the ascending pass turns that into its fill cursor.
	mark    []int32
	touched []int32       // the vertices marked, ascending: what to re-zero
	adds    []int32       // local ids to place, ascending
	drop    bitset.Bitset // the local ids being dropped, clear between patches
	buf     []int32       // decode buffer for non-list sets
}

// dropMark flags, in indexScratch.mark, a vertex that loses postings.
const dropMark = math.MinInt32

// patch is the one way the inverted index changes. It drops the postings
// of the entries in ids (ascending local ids below indexed, whose previous
// sets are old), re-adds those entries from the sets now resident, and
// absorbs the un-indexed tail [indexed, len(sets)) — Stage B and the lazy
// build pass no ids, repair passes the slots it resampled. It returns the
// member count added, the modeled work of the pass (a decode step and a
// posting append per member).
//
// The result is built in fresh arrays; the current ones are only read
// (Freeze aliases them, and a thawed pool's may be a read-only mapping).
// Two passes over the changed sets mark the touched vertices. One
// ascending pass turns a copy of the offset array into the new one —
// newIdx[v] = oldIdx[v] + shift, a streaming add — and stops only at
// touched vertices: the run of old postings since the last stop moves
// with a single copy, a segment that loses ids is filtered against a
// bitmap of them, and room is left behind the survivors for the vertex's
// gains. A last pass over the changed sets, ascending by id, inserts each
// id at its sorted place in that room: an append for a tail id, a shift
// of the larger ids otherwise. Segments so stay strictly ascending (what
// prefixBelow's binary search relies on) and the arrays equal a
// from-scratch build. Cost: one streaming pass over n offsets, plus work
// proportional to the changed sets' members and the segments losing ids.
func (s *poolShard) patch(n int32, sc *indexScratch, ids []int32, old []rrr.Set) (members int64) {
	if s.covered == nil {
		s.covered = bitset.New(s.indexed)
	}
	if len(ids) == 0 && s.indexed == len(s.sets) {
		return 0
	}
	nn := int(n)
	if cap(sc.mark) < nn {
		sc.mark = make([]int32, nn)
	}
	mark, buf := sc.mark[:nn], sc.buf
	var vs []int32
	if len(ids) > 0 {
		sc.drop.Grow(s.indexed)
		sc.drop.SetMany(ids)
	}
	var dropped int64
	for _, set := range old {
		vs, buf = setMembers(set, buf)
		for _, v := range vs {
			mark[v] |= dropMark
		}
		dropped += int64(len(vs))
	}
	adds := append(sc.adds[:0], ids...)
	for j := s.indexed; j < len(s.sets); j++ {
		adds = append(adds, int32(j))
	}
	for _, j := range adds {
		vs, buf = setMembers(s.sets[j], buf)
		for _, v := range vs {
			mark[v]++
		}
		members += int64(len(vs))
	}

	idx := slices.Clone(s.postIdx)
	if idx == nil {
		idx = make([]int32, nn+1)
	}
	data := make([]int32, int64(len(s.postData))+members-dropped)
	touched := sc.touched[:0]
	// Old postings [run, lo) are pending: they all move by shift.
	var run, shift int32
	for v, c := range mark {
		lo := idx[v]
		idx[v] = lo + shift
		if c == 0 {
			continue
		}
		touched = append(touched, int32(v))
		hi := idx[v+1] // not yet shifted
		if c > 0 {
			lo = hi // nothing dropped here: the segment rides with the run
		}
		copy(data[run+shift:], s.postData[run:lo])
		w := lo + shift
		for _, id := range s.postData[lo:hi] {
			if !sc.drop.Test(int(id)) {
				data[w] = id
				w++
			}
		}
		mark[v] = w
		run, shift = hi, w+(c&^dropMark)-hi
	}
	copy(data[run+shift:], s.postData[run:])
	idx[nn] += shift

	for _, j := range adds {
		vs, buf = setMembers(s.sets[j], buf)
		for _, v := range vs {
			w := mark[v]
			mark[v] = w + 1
			for ; w > idx[v] && data[w-1] > j; w-- {
				data[w] = data[w-1]
			}
			data[w] = j
		}
	}
	for _, v := range touched {
		mark[v] = 0
	}
	sc.drop.ClearMany(ids)
	sc.touched, sc.adds, sc.buf = touched, adds, buf

	s.postIdx, s.postData = idx, data
	s.postCount = int64(len(data))
	s.indexed = len(s.sets)
	s.covered.Grow(s.indexed)
	return members
}

// extend absorbs entries [indexed, len(sets)) into the index: patch with
// nothing replaced.
func (s *poolShard) extend(n int32, sc *indexScratch) int64 { return s.patch(n, sc, nil, nil) }

// shardedPool is the Efficient engine's pool: grow/put during
// generation, ensureIndexed + CELF during selection.
type shardedPool struct {
	n            int32
	count        int64
	totalMembers int64
	shards       [poolShards]poolShard
	// flat caches the id-ordered view for scan-mode selection. Slots
	// are write-once, so the cache only ever extends — never
	// invalidates.
	flat []rrr.Set
	// prefix[i] summarizes sets [0, i): summed Bytes()/Size(), per-kind
	// counts and the running max size, extended lazily like flat. It
	// makes the footprint, statistics and truncated-view accounting O(1)
	// per query instead of an O(pool) rescan — the warm-serving hot path
	// asks for all three on every request. Guarded by the same
	// serialization as selection (the engine runs one query at a time).
	prefix []prefixEntry
	// heapScratch/versionScratch are the CELF kernel's per-call vertex
	// arrays (the slab its region heaps live in, and the gain versions),
	// retained across selections so a batch of prefix answers on a warm
	// pool (many selections per round trip) does not re-allocate 20
	// bytes per vertex per estimation round. Guarded by the same
	// one-query-at-a-time serialization as selection.
	heapScratch    []counter.GainItem
	versionScratch []int32
	// scratch holds one indexScratch per worker that patches shards,
	// retained like the selection scratch above.
	scratch []indexScratch
	// memo remembers the CELF selections already run over this pool
	// (selmemo.go). Guarded by the same serialization as selection.
	memo selMemo
}

func newShardedPool(n int32) *shardedPool { return &shardedPool{n: n} }

// shardOf maps a global set id to (shard, local entry id).
func shardOf(i int64) (int, int) { return int(i % poolShards), int(i / poolShards) }

// localLimit returns how many of shard s's entries hold global ids below
// limit — the per-shard horizon of a logically truncated pool view. Ids
// are striped round-robin, so shard s holds ids s, s+poolShards, ...
func localLimit(s int, limit int64) int {
	if int64(s) >= limit {
		return 0
	}
	return int((limit-1-int64(s))/poolShards) + 1
}

func (p *shardedPool) len() int64 { return p.count }

// grow pre-sizes every shard for ids up to target and returns the
// previous and new pool lengths.
func (p *shardedPool) grow(target int64) (from, to int64) {
	from = p.count
	if target <= from {
		return from, from
	}
	for s := range p.shards {
		// Entries shard s must hold for ids < target.
		need := int((target - int64(s) + poolShards - 1) / poolShards)
		sh := &p.shards[s]
		if need > len(sh.sets) {
			sh.sets = append(sh.sets, make([]rrr.Set, need-len(sh.sets))...)
		}
	}
	p.count = target
	return from, target
}

// put stores the set for global id i. Distinct ids map to distinct
// slots, so concurrent generation workers need no locking.
func (p *shardedPool) put(i int64, set rrr.Set) {
	s, j := shardOf(i)
	p.shards[s].sets[j] = set
}

// get returns the set for global id i.
func (p *shardedPool) get(i int64) rrr.Set {
	s, j := shardOf(i)
	return p.shards[s].sets[j]
}

func (p *shardedPool) addMembers(perWorker []int64) {
	for _, m := range perWorker {
		p.totalMembers += m
	}
}

// indexCurrent reports whether every shard's inverted index and
// coverage scratch already cover the whole pool — true on every warm
// query, and after fused generation, which indexes as it goes.
func (p *shardedPool) indexCurrent() bool {
	for s := range p.shards {
		if sh := &p.shards[s]; sh.indexed != len(sh.sets) || sh.covered == nil {
			return false
		}
	}
	return true
}

// ensureIndexed extends every shard's inverted index over the entries
// generated since the last selection, in parallel across shards, and
// charges the decode-and-append work (2 ops per member) to the
// executing workers. Idempotent; selection skips the fork-join when
// indexCurrent says there is nothing to do.
func (p *shardedPool) ensureIndexed(workers int, ops []int64) {
	sc := p.indexScratches(workers)
	sched.Static(workers, poolShards, func(w, s0, s1 int) {
		for s := s0; s < s1; s++ {
			ops[w] += 2 * p.shards[s].extend(p.n, &sc[w])
		}
	})
}

// indexScratches returns the retained patch scratch, one per worker.
func (p *shardedPool) indexScratches(workers int) []indexScratch {
	if len(p.scratch) < workers {
		p.scratch = append(p.scratch, make([]indexScratch, workers-len(p.scratch))...)
	}
	return p.scratch
}

// prefixEntry is the running rrr.Stats of a pool prefix, in the compact
// form the lazy prefix array stores per set (lists are the remainder of
// the count).
type prefixEntry struct {
	bytes, members      int64
	bitmaps, compressed int32
	maxSize             int32
}

// stats summarizes the whole pool.
func (p *shardedPool) stats() rrr.Stats { return p.statsUpTo(p.count) }

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
		Compressed: int(e.compressed),
		Lists:      count - int(e.bitmaps) - int(e.compressed),
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
	s, j := shardOf(int64(next))
	for range int(limit) - next {
		set := p.shards[s].sets[j]
		var size int
		if ls, ok := set.(*rrr.ListSet); ok {
			size = ls.Size()
			e.bytes += ls.Bytes()
		} else {
			size = set.Size()
			e.bytes += set.Bytes()
			switch set.Kind() {
			case "bitmap":
				e.bitmaps++
			case "compressed":
				e.compressed++
			}
		}
		e.members += int64(size)
		e.maxSize = max(e.maxSize, int32(size))
		p.prefix = append(p.prefix, e)
		if s++; s == poolShards {
			s, j = 0, j+1
		}
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
	f := PoolFootprint{SetBytes: p.bytesUpTo(p.count)}
	for s := range p.shards {
		// Postings payload: 4 bytes per member. The index really is CSR
		// now (postIdx/postData); the n+1 offset array is a fixed
		// per-shard overhead excluded here so the figure stays
		// comparable across pool sizes.
		f.IndexBytes += 4 * p.shards[s].postCount
	}
	f.RawBytes = 4 * p.totalMembers
	return f
}

// footprintUpTo reports the footprint of the truncated view over global
// set ids below limit, as a cold pool of that size would have reported
// it after a CELF selection (index fully built over the view).
func (p *shardedPool) footprintUpTo(limit int64) PoolFootprint {
	if limit >= p.count {
		return p.footprint()
	}
	f := PoolFootprint{SetBytes: p.bytesUpTo(limit)}
	members := p.membersUpTo(limit)
	// Charge index bytes only when selection actually built the inverted
	// view (a scan-mode pool never does and reports IndexBytes 0, the
	// same trade-off the full footprint reports).
	for s := range p.shards {
		if p.shards[s].indexed > 0 {
			f.IndexBytes = 4 * members
			break
		}
	}
	f.RawBytes = 4 * members
	return f
}

// flatten returns the id-ordered []rrr.Set view the scan-mode selection
// and the round-trip tests consume, extending the cached view over any
// sets generated since the last call. Callers must not mutate it.
func (p *shardedPool) flatten() []rrr.Set {
	for i := int64(len(p.flat)); i < p.count; i++ {
		p.flat = append(p.flat, p.get(i))
	}
	return p.flat
}
