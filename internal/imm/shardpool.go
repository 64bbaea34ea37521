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

// The RRR pool behind the Efficient engine: the sets in set-id order, each
// a sorted list or a bitset row as the policy chose for its size (setStore,
// store.go), and one inverted index mapping a vertex to the sets that
// contain it (postings), so selection reads one vertex's postings instead
// of re-scanning every set. The index is also the pool's occurrence count:
// a vertex's posting count is the gain CELF starts it at. It changes only
// through shardedPool.patch.
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

// postings is the inverted index over the sets below the pool's indexed
// count. idx is a CSR offset array over occurrence counts: vertex v is in
// idx[v+1]−idx[v] sets. Its postings are stored as the set policy would
// store a set of that size over indexed ids (rrr.Policy.Dense): a row of
// words bits over set ids in rows, or its ids, strictly ascending, in
// data. Each run is in vertex order. rowAt[v] counts the row vertices
// before v (nil when no vertex keeps a row) and rowBase[k] the postings
// that rows before row k hold, so a list starts at idx[v]−rowBase[rowAt[v]].
// The arrays are never written after they are installed: Freeze hands idx,
// data and rows out, and a thawed pool's may be a read-only mapping.
// Offsets are 64-bit: only maxPoolSets × n bounds the posting total.
type postings struct {
	idx     []int64 // len n+1 once built
	rowAt   []int32 // len n+1, or nil
	rowBase []int64 // len rows+1 with rowAt
	data    []int32
	rows    []uint64
	words   int64 // per row
}

// count is v's occurrence count over the indexed sets.
func (ix *postings) count(v int32) int64 { return ix.idx[v+1] - ix.idx[v] }

// isRow reports whether v keeps a row.
func (ix *postings) isRow(v int32) bool { return ix.rowAt != nil && ix.rowAt[v+1] > ix.rowAt[v] }

// listStart is where v's list starts, or would.
func (ix *postings) listStart(v int32) int64 {
	if ix.rowAt == nil {
		return ix.idx[v]
	}
	return ix.idx[v] - ix.rowBase[ix.rowAt[v]]
}

// at returns v's postings, read-only: its row, or its list.
func (ix *postings) at(v int32) (list []int32, row []uint64) {
	if ix.isRow(v) {
		k := int64(ix.rowAt[v])
		return nil, ix.rows[k*ix.words : (k+1)*ix.words]
	}
	lo := ix.listStart(v)
	return ix.data[lo : lo+ix.count(v)], nil
}

// patched is v's count once a patch has run, given its mark d
// (patchScratch.mark), and whether it loses postings: the ids it gains
// less the ids in drop it holds.
func (ix *postings) patched(v int32, d int64, drop *bitset.Bitset) (int64, bool) {
	c := ix.count(v) + d&^dropMark
	if d >= 0 {
		return c, false
	}
	list, row := ix.at(v)
	if row != nil {
		for wi, w := range drop.Words() {
			c -= int64(bits.OnesCount64(w & row[wi]))
		}
	}
	for _, id := range list {
		if drop.Test(int(id)) {
			c--
		}
	}
	return c, true
}

// bytes is what the rows and lists hold.
func (ix *postings) bytes() int64 { return 4*int64(len(ix.data)) + 8*int64(len(ix.rows)) }

// layOut derives rowAt and rowBase from idx for an index over indexed
// sets under policy, and returns how many list postings and row words the
// vertices' kinds call for; ok is false, and the index unusable, when the
// offsets decrease.
func (ix *postings) layOut(policy rrr.Policy, indexed int64) (lists, words int64, ok bool) {
	n := int32(len(ix.idx) - 1)
	ix.words = (indexed + 63) / 64
	minRow := policy.MinDense(int32(indexed))
	ix.rowAt, ix.rowBase = nil, []int64{0}
	for v, prev := int32(0), ix.idx[0]; v < n; v++ {
		next := ix.idx[v+1]
		c := next - prev
		if c < 0 {
			return 0, 0, false
		}
		if c >= minRow {
			if ix.rowAt == nil { // the first row: the vertices before keep lists
				ix.rowAt = make([]int32, n+1)
			}
			ix.rowBase = append(ix.rowBase, ix.rowBase[len(ix.rowBase)-1]+c)
		} else {
			lists += c
		}
		if ix.rowAt != nil {
			ix.rowAt[v+1] = int32(len(ix.rowBase) - 1)
		}
		prev = next
	}
	rows := int64(len(ix.rowBase) - 1)
	if rows == 0 {
		ix.rowBase = nil
	}
	return lists, rows * ix.words, true
}

// shardedPool is the Efficient engine's pool: extension during
// generation, ensureIndexed + CELF during selection.
type shardedPool struct {
	n            int32
	count        int64
	totalMembers int64
	// sets holds the pool, set id i at position i.
	sets setStore

	post    postings       // over the sets below indexed
	covered *bitset.Bitset // selection scratch over set ids, reset per call
	indexed int64

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

func newShardedPool(n int32, policy rrr.Policy) *shardedPool {
	return &shardedPool{n: n, sets: newSetStore(n, policy)}
}

func (p *shardedPool) len() int64 { return p.count }

// grow checks that the pool may hold target sets and returns the slots
// reaching it adds, [from, to). A target past maxPoolSets is refused.
func (p *shardedPool) grow(target int64) (from, to int64, err error) {
	from = p.count
	if target <= from {
		return from, from, nil
	}
	if target > maxPoolSets {
		return from, from, fmt.Errorf("imm: a pool of %d sets exceeds the %d the index's 32-bit set ids can name", target, int64(maxPoolSets))
	}
	return from, target, nil
}

// extend installs the sets [count, len(sizes)): sizes begins with the
// pool's own, and runs hold the new sets' payloads in set-id order.
func (p *shardedPool) extend(sizes []int32, runs []Chunk) {
	p.sets.extend(sizes, runs)
	p.count = int64(len(sizes))
}

func (p *shardedPool) addMembers(perWorker []int64) { p.totalMembers += sumOf(perWorker) }

// patchScratch is what shardedPool.patch keeps between calls, so that a
// patch allocates only the arrays it installs.
type patchScratch struct {
	// mark is all zero between patches. While one runs, a touched vertex
	// holds the number of ids it gains, with dropMark set when it also
	// loses some; laying out turns that into where its next id goes in
	// the new lists, or for a new row ^ its offset in the new rows.
	mark   []int64
	drop   bitset.Bitset       // the ids being dropped, clear between patches
	bufs   [poolShards][]int32 // a decode buffer per range writer, for non-list sets
	ranges [poolShards]patchRange
	// next is the index being built. The one closure a patch forks reads
	// counted: false while it counts the ranges, true once they are placed.
	next    postings
	counted bool
}

// patchRange is one vertex range's share of a patch.
type patchRange struct {
	dropped int64 // old postings the range loses
	// Its postings, list postings and rows under the new kinds; once laid
	// out, those of the ranges before it.
	postings, lists, rows int64
}

// bytes is what the scratch keeps resident.
func (sc *patchScratch) bytes() int64 {
	b := 8*int64(cap(sc.mark)) + 8*int64(len(sc.drop.Words()))
	for _, buf := range sc.bufs {
		b += 4 * int64(cap(buf))
	}
	return b
}

// dropMark flags, in patchScratch.mark, a vertex that loses postings.
const dropMark = math.MinInt64

// membersIn returns the members in [lo, hi) of the set whose payload is
// list or row, ascending, as a read-only slice: a window of the list, or
// the row's words that cover the range decoded into buf (lo must be a
// multiple of 64, and hi one or the vertex count). buf is returned grown.
func membersIn(list []int32, row []uint64, lo, hi int32, buf []int32) (part, _ []int32) {
	if row != nil {
		buf = appendRow(buf[:0], row[lo>>6:min(len(row), (int(hi)+63)>>6)], int(lo>>6))
		return buf, buf
	}
	vs := list
	if len(vs) > 0 && vs[0] < lo {
		cut, _ := slices.BinarySearch(vs, lo)
		vs = vs[cut:]
	}
	if len(vs) > 0 && vs[len(vs)-1] >= hi {
		cut, _ := slices.BinarySearch(vs, hi)
		vs = vs[:cut]
	}
	return vs, buf
}

// patch is the one way the inverted index changes. It drops the postings
// of the sets ids (ascending, below indexed, whose previous contents old
// holds), re-adds those ids from the sets now resident, and absorbs the
// un-indexed tail [indexed, count) — Stage B and the lazy build pass no
// ids, repair passes the slots it resampled. It returns, per shard, the
// member count added: the modeled work of the pass is a decode step and a
// posting append per member, billed to the shard's owner.
//
// The result is built in fresh, exactly sized arrays; the current ones
// are only read. The work is split over contiguous vertex ranges, one
// writer each, so the arrays are the same at any worker count — they
// equal a from-scratch build. A writer reads every changed set but only
// the members in its range (membersIn), twice; a tail of mostly bitmap
// sets it reads 64 set ids at a time, transposed (bitBlock), so that a
// vertex's word of the block is its postings among them. A writer first
// counts each vertex's new occurrence count, which picks its kind for the
// new indexed count: either kind may become the other. The ranges' totals
// place each range in the new arrays, and the writers, forked again
// through the same closure, lay their ranges out in one ascending sweep
// — a run of list vertices that keep their postings moves with a single
// copy; a vertex that changes copies, widens, filters or converts its old
// postings, leaving room for its gains — and then inserts each changed
// set's id: a bit in a row, or at its sorted place in a list (an append
// for a tail id, a shift of the larger ids otherwise). Cost: a pass over
// the n offsets and the old rows, plus work proportional to the changed
// sets' members and the lists losing ids, plus a constant per changed set
// and range.
func (p *shardedPool) patch(workers int, ids []int64, old *setStore) (members [poolShards]int64) {
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
		sc.mark = make([]int64, n)
	}
	mark := sc.mark[:n]
	from := &p.post
	if from.idx == nil {
		from = &postings{idx: make([]int64, n+1)} // the pool's first build
	}
	// Vertex range r is [bounds[r], bounds[r+1]). A writer passes over every
	// changed set for the members in its range: with more ranges than a set
	// has members, most of those visits would find nothing.
	gain := p.totalMembers - from.idx[n]
	for _, id := range ids {
		gain += int64(old.sizes[id])
	}
	nr := max(1, min(workers, poolShards, int(gain/int64(changed))))
	bounds := splitRanges(nr, from.idx)
	ranges := sc.ranges[:nr]
	clear(ranges)

	// The replaced sets, a sliver of the pool: mark their ids and vertices.
	if len(ids) > 0 {
		sc.drop.Grow(int(p.indexed))
	}
	var oc cursor
	var vs []int32
	for _, id := range ids {
		sc.drop.Set(int(id))
		vs, sc.bufs[0] = old.members(&oc, id, sc.bufs[0])
		r := 0
		for _, v := range vs {
			mark[v] |= dropMark
			for v >= bounds[r+1] {
				r++
			}
			ranges[r].dropped++
		}
	}
	dropped := sc.drop.Words()

	minRow := p.sets.policy.MinDense(int32(p.count))
	// reach is what a vertex must gain to turn a list into a row: an old
	// list holds fewer than the old threshold's postings.
	reach := int64(math.MaxInt64)
	if minRow != math.MaxInt64 {
		reach = minRow
		if p.post.idx != nil {
			reach -= p.sets.policy.MinDense(int32(firstTail)) - 1
		}
	}
	// The member count each changed set adds, billed by its shard.
	for k := range changed {
		id := changedID(ids, firstTail, k)
		members[id%poolShards] += int64(p.sets.sizes[id])
	}
	// A tail whose sets are mostly bitmaps is walked in transposed blocks:
	// a row's words go into a block whole, where the set-by-set walk
	// decodes them member by member. Over list sets the blocks do not pay.
	tail := p.count - firstTail
	blocked := tail > 0 && 2*int64(p.sets.upTo(p.count).bitmaps-p.sets.upTo(firstTail).bitmaps) >= tail
	perSet := changed
	if blocked {
		perSet = len(ids)
	}
	next := &sc.next
	sc.counted = false
	pass := func(_, r0, r1 int) {
		for r := r0; r < r1; r++ {
			lo, hi := bounds[r], bounds[r+1]
			if !sc.counted {
				var vs []int32
				buf := sc.bufs[r]
				var c cursor
				var gained, most int64 // the postings gained, and the most one vertex gains
				for k := range perSet {
					list, row := p.sets.set(&c, changedID(ids, firstTail, k))
					vs, buf = membersIn(list, row, lo, hi, buf)
					for _, v := range vs {
						mark[v]++
						most = max(most, mark[v]&^dropMark)
					}
					gained += int64(len(vs))
				}
				if blocked {
					var b bitBlock
					c = cursor{}
					for j0 := firstTail &^ 63; j0 < p.count; j0 += 64 {
						b.load(&p.sets, &c, j0, firstTail, lo)
						for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
							for i, x := range b.transposed(wi) {
								if x != 0 { // past the vertex count, always
									v := wi<<6 + int32(i)
									mark[v] += int64(bits.OnesCount64(x))
									most = max(most, mark[v]&^dropMark)
									gained += int64(bits.OnesCount64(x))
								}
							}
						}
					}
				}
				// Every vertex keeps a list unless one kept a row or gains
				// enough to reach the threshold; an untouched list stays
				// one, as the threshold only rises.
				pr := patchRange{postings: from.idx[hi] - from.idx[lo] + gained - ranges[r].dropped}
				pr.lists = pr.postings
				sweep := from.rowAt != nil && from.rowAt[hi] > from.rowAt[lo] || most >= reach
				for v := lo; sweep && v < hi; v++ {
					d := mark[v]
					if d == 0 && minRow > 0 && !from.isRow(v) {
						continue
					}
					if nc, _ := from.patched(v, d, &sc.drop); nc >= minRow {
						pr.rows++
						pr.lists -= nc
					}
				}
				ranges[r] = pr
				sc.bufs[r] = buf
				continue
			}

			pr := ranges[r]
			at, la, k := pr.postings, pr.lists, pr.rows // new offset, list position, row
			k0, rb0 := int32(k), at-la                  // the range's first row, and the row postings before it
			rb := rb0
			ol := from.listStart(lo) // old list position
			run, shift := ol, la-ol  // old list postings [run, ol) are pending: they all move by shift
			end := from.idx[lo]      // where v's old postings end, in count
			for v := lo; v < hi; v++ {
				next.idx[v] = at
				if next.rowAt != nil {
					next.rowAt[v] = int32(k)
				}
				c, d := -end, mark[v]
				end = from.idx[v+1]
				c += end
				oldRow := from.isRow(v)
				if d == 0 && !oldRow && c < minRow { // the list rides with the run
					at, ol, la = at+c, ol+c, la+c
					continue
				}
				nc, lost := c+d, false
				if d < 0 {
					nc, lost = from.patched(v, d, &sc.drop)
				}
				at += nc
				newRow := nc >= minRow
				if !lost && !oldRow && !newRow { // the list rides with the run, room for its gains behind it
					ol += c
					copy(next.data[run+shift:], from.data[run:ol])
					mark[v] = la + c
					la += nc
					run, shift = ol, la-ol
					continue
				}
				copy(next.data[run+shift:], from.data[run:ol])
				olist, orow := from.at(v)
				ol += int64(len(olist))
				if newRow {
					row := next.rows[k*next.words : (k+1)*next.words]
					copy(row, orow)
					if lost && orow != nil {
						for wi, w := range dropped {
							row[wi] &^= w
						}
					}
					for _, id := range olist {
						if !lost || !sc.drop.Test(int(id)) {
							row[id>>6] |= 1 << (id & 63)
						}
					}
					mark[v] = ^(k * next.words)
					rb += nc
					k++
					next.rowBase[k] = rb
				} else {
					seg := next.data[la : la+nc]
					fill := 0
					for wi, w := range orow {
						if lost && wi < len(dropped) {
							w &^= dropped[wi]
						}
						for ; w != 0; w &= w - 1 {
							seg[fill] = int32(wi<<6 + bits.TrailingZeros64(w))
							fill++
						}
					}
					if !lost {
						fill += copy(seg, olist)
					} else {
						for _, id := range olist {
							if !sc.drop.Test(int(id)) {
								seg[fill] = id
								fill++
							}
						}
					}
					mark[v] = la + int64(fill)
					la += nc
				}
				run, shift = ol, la-ol
			}
			copy(next.data[run+shift:], from.data[run:ol])

			// Insert, then leave the marks zero.
			buf := sc.bufs[r]
			var vs []int32
			var c cursor
			for kk := range perSet {
				id := changedID(ids, firstTail, kk)
				list, row := p.sets.set(&c, id)
				vs, buf = membersIn(list, row, lo, hi, buf)
				for _, v := range vs {
					at := mark[v]
					if at < 0 {
						next.rows[^at+id>>6] |= 1 << (id & 63)
						continue
					}
					mark[v]++
					if kk < len(ids) { // a tail id is larger than any in place
						// v's list starts past the postings of the rows before
						// it; rowBase holds those before the range's first row
						// only once its writer is done, so rb0 stands in.
						start := next.idx[v]
						if next.rowAt != nil {
							rbv := rb0
							if kv := next.rowAt[v]; kv != k0 {
								rbv = next.rowBase[kv]
							}
							start -= rbv
						}
						for ; at > start && int64(next.data[at-1]) > id; at-- {
							next.data[at] = next.data[at-1]
						}
					}
					next.data[at] = int32(id)
				}
			}
			if blocked {
				var b bitBlock
				c = cursor{}
				for j0 := firstTail &^ 63; j0 < p.count; j0 += 64 {
					b.load(&p.sets, &c, j0, firstTail, lo)
					for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
						for i, x := range b.transposed(wi) {
							if x == 0 {
								continue
							}
							v := wi<<6 + int32(i)
							at := mark[v]
							if at < 0 {
								next.rows[^at+j0>>6] |= x
								continue
							}
							mark[v] += int64(bits.OnesCount64(x))
							for ; x != 0; x &= x - 1 {
								next.data[at] = int32(j0) + int32(bits.TrailingZeros64(x))
								at++
							}
						}
					}
				}
			}
			sc.bufs[r] = buf
			clear(mark[lo:hi])
		}
	}
	sched.Static(nr, nr, pass)
	*next = postings{words: (p.count + 63) / 64}
	var total, lists, rows int64
	for r := range ranges {
		pr := &ranges[r]
		pr.postings, total = total, total+pr.postings
		pr.lists, lists = lists, lists+pr.lists
		pr.rows, rows = rows, rows+pr.rows
	}
	next.idx, next.data = make([]int64, n+1), make([]int32, lists)
	next.idx[n] = total
	if rows > 0 {
		next.rowAt, next.rowBase, next.rows = make([]int32, n+1), make([]int64, rows+1), make([]uint64, rows*next.words)
		next.rowAt[n] = int32(rows)
	}
	sc.counted = true
	sched.Static(nr, nr, pass)
	for _, id := range ids {
		sc.drop.Clear(int(id))
	}

	p.post, *next = *next, postings{}
	p.indexed = p.count
	p.covered.Grow(int(p.indexed))
	return members
}

// bitBlock walks the tail sets among the 64 set ids [j0, j0+64) over one
// vertex range, a 64-vertex word at a time, ascending.
type bitBlock struct {
	lists [64][]int32  // a list set's members not yet walked
	rows  [64][]uint64 // a row set's row
	words [64]uint64
	j0    int64
}

// load fills b with block j0's sets at or past from, up to the pool's
// length, for a range starting at vertex lo; c walks the store.
func (b *bitBlock) load(st *setStore, c *cursor, j0, from int64, lo int32) {
	*b = bitBlock{j0: j0}
	for i := max(j0, from) - j0; i < 64 && j0+i < int64(len(st.sizes)); i++ {
		list, row := st.set(c, j0+i)
		if len(list) > 0 && list[0] < lo {
			cut, _ := slices.BinarySearch(list, lo)
			list = list[cut:]
		}
		b.lists[i], b.rows[i] = list, row
	}
}

// transposed returns, for each vertex 64·wi+b of word wi, the block's sets
// that hold it: bit i is set j0+i. Words must be asked for ascending.
func (b *bitBlock) transposed(wi int32) *[64]uint64 {
	end := (wi + 1) << 6
	for i := range b.words {
		var x uint64
		if row := b.rows[i]; row != nil {
			x = row[wi]
		} else {
			list := b.lists[i]
			for len(list) > 0 && list[0] < end {
				x |= 1 << (list[0] & 63)
				list = list[1:]
			}
			b.lists[i] = list
		}
		b.words[i] = x
	}
	transpose64(&b.words)
	return &b.words
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of a[i]
// becomes bit i of a[j]. Each round swaps the off-diagonal blocks of
// every 2j×2j block.
func transpose64(a *[64]uint64) {
	m := uint64(0x0000_0000_ffff_ffff)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << j
		}
		m ^= m << (j >> 1)
	}
}

// changedID is the id of a patch's k-th changed set: ids, then the tail
// from firstTail on.
func changedID(ids []int64, firstTail int64, k int) int64 {
	if k < len(ids) {
		return ids[k]
	}
	return firstTail + int64(k-len(ids))
}

// splitRanges cuts the vertices into nr contiguous ranges and returns
// their bounds, multiples of 64 (so that a bitmap set's words fall whole
// into one range) up to the last. Weighing a vertex by its postings plus
// one balances the copy and the offset stream together, and splits a pool
// with no index yet by vertices alone.
func splitRanges(nr int, idx []int64) (bounds [poolShards + 1]int32) {
	n := len(idx) - 1
	for r := 1; r < nr; r++ {
		target := (idx[n] + int64(n)) * int64(r) / int64(nr)
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

// statsUpTo summarizes the view holding only global set ids below limit.
// The warm-serving engine uses it so a reused pool's result statistics
// match a cold run's exactly.
func (p *shardedPool) statsUpTo(limit int64) rrr.Stats { return p.sets.stats(min(limit, p.count)) }

// membersUpTo returns Σ|R| over global set ids below limit.
func (p *shardedPool) membersUpTo(limit int64) int64 {
	if limit >= p.count {
		return p.totalMembers
	}
	return p.sets.upTo(limit).members
}

// footprint reports the resident pool bytes as they stand: set payloads
// for the whole pool, and the index's rows and lists as stored — only
// for what selection actually indexed. A scan-mode run therefore reports
// IndexBytes 0 — it never builds the inverted view. The n+1 offsets are
// a fixed overhead WarmEngine.OverheadBytes counts.
func (p *shardedPool) footprint() PoolFootprint {
	return PoolFootprint{
		SetBytes:   p.sets.bytes(p.sets.upTo(p.count)),
		IndexBytes: p.post.bytes(),
		RawBytes:   4 * p.totalMembers,
	}
}

// footprintUpTo reports the footprint of the view over global set ids
// below limit as a cold pool of that size reports it after a CELF
// selection: index bytes at 4 a posting — like RawBytes, the plain-slice
// measure, so that the figure does not depend on the vertices' kinds —
// and only when selection built the inverted view (a scan-mode pool never
// does and reports IndexBytes 0, the memory/selection-speed trade-off the
// harness sweep measures).
func (p *shardedPool) footprintUpTo(limit int64) PoolFootprint {
	if limit >= p.count {
		f := p.footprint()
		f.IndexBytes = 0
		if p.post.idx != nil {
			f.IndexBytes = 4 * p.post.idx[p.n]
		}
		return f
	}
	e := p.sets.upTo(limit)
	f := PoolFootprint{SetBytes: p.sets.bytes(e), RawBytes: 4 * e.members}
	if p.indexed > 0 {
		f.IndexBytes = 4 * e.members
	}
	return f
}
