package imm

import (
	"math/bits"
	"slices"

	"repro/internal/rrr"
)

// setStore holds a pool's sets in set-id order, as .impool v7 lays them
// out: sizes[i] is set i's member count, and the policy's Dense(n, size)
// names its representation — a run of sorted members in lists, or a row
// of (n+63)/64 words in rows. A set's payload starts where those of its
// kind before it end. One summary per block of blockSets sets records
// where, with the statistics a truncated view reports: locating a set or
// summarizing a prefix reads a block summary and at most blockSets−1
// sizes. An installed element is never written — extension appends, and
// repair builds fresh arrays — so Freeze hands the arrays out as they are,
// and a thawed store aliases a read-only mapping with capacities clipped.
type setStore struct {
	n      int32
	words  int64 // per bitmap row
	policy rrr.Policy
	sizes  []int32
	lists  []int32
	rows   []uint64
	blocks []blockSum // blocks[b] summarizes sets [0, b·blockSets)
}

func newSetStore(n int32, policy rrr.Policy) setStore {
	return setStore{n: n, words: (int64(n) + 63) / 64, policy: policy, blocks: []blockSum{{}}}
}

// blockSets is the summary grain, a power of two.
const blockSets = 64

// blockSum summarizes the sets before a block.
type blockSum struct {
	members int64 // their sizes summed
	lists   int64 // the list sets' sizes summed: where the block's first list starts
	bitmaps int32 // the bitmap sets: the block's first row
	maxSize int32
}

func (st *setStore) dense(size int32) bool { return st.policy.Dense(st.n, int(size)) }

// add folds one set of the given size into a summary.
func (st *setStore) add(e blockSum, size int32) blockSum {
	e.members += int64(size)
	if st.dense(size) {
		e.bitmaps++
	} else {
		e.lists += int64(size)
	}
	e.maxSize = max(e.maxSize, size)
	return e
}

// upTo summarizes sets [0, i).
func (st *setStore) upTo(i int64) blockSum {
	e := st.blocks[i/blockSets]
	for _, size := range st.sizes[i&^(blockSets-1) : i] {
		e = st.add(e, size)
	}
	return e
}

// bytes is what the sets e summarizes take: 4 a list member, a row a bitmap.
func (st *setStore) bytes(e blockSum) int64 { return 4*e.lists + 8*st.words*int64(e.bitmaps) }

// stats summarizes the view of the store's first count sets — what a pool
// that had stopped growing at θ=count would report.
func (st *setStore) stats(count int64) rrr.Stats {
	e := st.upTo(count)
	s := rrr.Stats{
		Count:      int(count),
		TotalSize:  e.members,
		MaxSize:    int(e.maxSize),
		TotalBytes: st.bytes(e),
		Bitmaps:    int(e.bitmaps),
		Lists:      int(count) - int(e.bitmaps),
	}
	s.Finalize(st.n)
	return s
}

// summarize re-derives the block summaries from set from on.
func (st *setStore) summarize(from int64) {
	b := from / blockSets
	st.blocks = st.blocks[:b+1]
	e := st.blocks[b]
	for i := b * blockSets; i < int64(len(st.sizes)); i++ {
		e = st.add(e, st.sizes[i])
		if (i+1)%blockSets == 0 {
			st.blocks = append(st.blocks, e)
		}
	}
}

// extend installs the sets sizes holds after the store's own, their
// payloads arriving as chunks in set-id order.
func (st *setStore) extend(sizes []int32, runs []Chunk) {
	from := int64(len(st.sizes))
	for _, r := range runs {
		st.lists, st.rows = append(st.lists, r.Lists...), append(st.rows, r.Rows...)
	}
	st.sizes = sizes
	st.summarize(from)
}

// replaced returns the store with the sets ids (ascending) replaced by
// sets of sizes[k] members, whose payloads next holds in id order. st is
// only read, so it still holds the replaced sets.
func (st *setStore) replaced(ids []int64, sizes []int32, next Chunk) setStore {
	out := *st
	out.sizes = slices.Clone(st.sizes)
	var lr [][]int32 // runs: the old payloads between replaced sets, and the new ones
	var rr [][]uint64
	var c cursor
	var ol, or, il, ir int64 // read positions: old lists and rows, new lists and rows
	for k, id := range ids {
		list, row := st.set(&c, id)
		lr = append(lr, st.lists[ol:c.list-int64(len(list))])
		rr = append(rr, st.rows[or:c.row*st.words-int64(len(row))])
		ol, or = c.list, c.row*st.words
		if size := int64(sizes[k]); st.dense(sizes[k]) {
			rr, ir = append(rr, next.Rows[ir:ir+st.words]), ir+st.words
		} else {
			lr, il = append(lr, next.Lists[il:il+size]), il+size
		}
		out.sizes[id] = sizes[k]
	}
	out.lists = slices.Concat(append(lr, st.lists[ol:])...)
	out.rows = slices.Concat(append(rr, st.rows[or:])...)
	b := ids[0] / blockSets
	out.blocks = append(make([]blockSum, 0, len(st.blocks)), st.blocks[:b+1]...)
	out.summarize(ids[0])
	return out
}

// views returns every set's members as a window of lists, for a store
// whose policy keeps no rows: one slice per set, built once, where a
// cursor would re-derive each set's place on every walk.
func (st *setStore) views() [][]int32 {
	out := make([][]int32, len(st.sizes))
	var at int64
	for i, size := range st.sizes {
		end := at + int64(size)
		out[i], at = st.lists[at:end:end], end
	}
	return out
}

// cursor walks a store in ascending set-id order from set 0.
type cursor struct {
	next, list, row int64 // set next's payload starts at lists[list], or is row row
}

// set returns set i's members when it is a list, else its row, read-only,
// and leaves c past it. A cursor's calls should ascend: a step back, or
// into a later block, restarts from i's block summary.
func (st *setStore) set(c *cursor, i int64) (list []int32, row []uint64) {
	if i < c.next || i/blockSets != c.next/blockSets {
		e := st.blocks[i/blockSets]
		*c = cursor{next: i &^ (blockSets - 1), list: e.lists, row: int64(e.bitmaps)}
	}
	for ; c.next <= i; c.next++ {
		if size := int64(st.sizes[c.next]); !st.dense(int32(size)) {
			list, row = st.lists[c.list:c.list+size], nil
			c.list += size
		} else {
			list, row = nil, st.rows[c.row*st.words:(c.row+1)*st.words]
			c.row++
		}
	}
	return list, row
}

// members returns set i's members, ascending: a window of lists, or its
// row decoded into buf (returned grown).
func (st *setStore) members(c *cursor, i int64, buf []int32) (vs, _ []int32) {
	list, row := st.set(c, i)
	if row == nil {
		return list, buf
	}
	buf = appendRow(buf[:0], row, 0)
	return buf, buf
}

// appendRow appends the vertices words holds, ascending; words starts at
// word first of its row.
func appendRow(dst []int32, words []uint64, first int) []int32 {
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32((first+wi)<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// has reports whether the set whose payload is list or row holds v.
func has(list []int32, row []uint64, v int32) bool {
	if row != nil {
		return row[v>>6]>>(v&63)&1 != 0
	}
	_, ok := slices.BinarySearch(list, v)
	return ok
}
