package rrr

// Arena is a bump allocator for RRR set storage: vertex payloads and
// ListSet headers are carved out of large blocks instead of being
// allocated per set, turning the two allocations the materializing path
// pays per list set (the vertex copy and the header) into amortized block
// allocations. Its one generator is imm.GenerateSlotsFused; the engines'
// pools store their sets in flat arrays and use no arena.
//
// Lifetime: sets built from an arena alias its blocks, so the arena must
// outlive every set carved from it. Reset rewinds the arena for reuse;
// after Reset, previously returned sets observe overwritten storage (copy
// one out with Vertices to keep it).
//
// An Arena is single-owner: no method is safe for concurrent use.
type Arena struct {
	// blocks hold vertex payloads. blocks[bi][:off] is live; blocks
	// before bi are full. Blocks are never moved or freed (Reset only
	// rewinds the cursor), so carved slices stay valid.
	blocks [][]int32
	bi     int
	off    int

	// hdrs are ListSet header slabs with the same cursor discipline.
	hdrs [][]ListSet
	hbi  int
	hoff int
}

const (
	// arenaBlockInts sizes vertex blocks (256 KiB). Large enough that
	// block allocation is rare, small enough that a 1-worker run on a
	// tiny graph doesn't strand megabytes.
	arenaBlockInts = 64 << 10
	// arenaHdrCount sizes header slabs.
	arenaHdrCount = 4 << 10
	// listSetHeaderBytes is the accounting size of one ListSet header
	// (a slice header on 64-bit).
	listSetHeaderBytes = 24
)

// NewArena returns an empty arena. Blocks are allocated on demand.
func NewArena() *Arena { return &Arena{} }

// alloc returns a length-n slice of arena storage. Requests larger than
// the block size get a dedicated exact-size block so no space is
// stranded.
func (a *Arena) alloc(n int) []int32 {
	if n > arenaBlockInts {
		// Dedicated block, inserted before the cursor so the current
		// block's free tail stays usable.
		blk := make([]int32, n)
		a.blocks = append(a.blocks, nil)
		copy(a.blocks[a.bi+1:], a.blocks[a.bi:])
		a.blocks[a.bi] = blk
		a.bi++
		return blk
	}
	for {
		if a.bi < len(a.blocks) {
			blk := a.blocks[a.bi]
			if a.off+n <= len(blk) {
				s := blk[a.off : a.off+n : a.off+n]
				a.off += n
				return s
			}
			a.bi++
			a.off = 0
			continue
		}
		a.blocks = append(a.blocks, make([]int32, arenaBlockInts))
	}
}

// newHeader returns a pointer to a fresh ListSet header in arena
// storage.
func (a *Arena) newHeader() *ListSet {
	if a.hbi == len(a.hdrs) {
		a.hdrs = append(a.hdrs, make([]ListSet, arenaHdrCount))
	}
	h := &a.hdrs[a.hbi][a.hoff]
	a.hoff++
	if a.hoff == arenaHdrCount {
		a.hbi++
		a.hoff = 0
	}
	return h
}

// NewSortedList copies an already-sorted unique member slice into arena
// storage and returns a ListSet header also living in the arena. The
// returned set is valid until the arena is Reset.
func (a *Arena) NewSortedList(sorted []int32) *ListSet {
	vs := a.alloc(len(sorted))
	copy(vs, sorted)
	h := a.newHeader()
	h.verts = vs
	return h
}

// Reset rewinds the arena, keeping its blocks for reuse. Every set
// previously carved from the arena becomes invalid: its storage will be
// overwritten by subsequent allocations.
func (a *Arena) Reset() {
	a.bi, a.off = 0, 0
	a.hbi, a.hoff = 0, 0
}

// Bytes returns the total capacity the arena holds, live or not.
func (a *Arena) Bytes() int64 {
	var b int64
	for _, blk := range a.blocks {
		b += int64(len(blk)) * 4
	}
	b += int64(len(a.hdrs)) * arenaHdrCount * listSetHeaderBytes
	return b
}
