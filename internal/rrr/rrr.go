// Package rrr implements the random reverse-reachable (RRR) set storage
// used by the IMM engines, including the paper's adaptive representation:
// sparse sets are sorted vertex lists (cheap to sort, O(log n)
// membership, 4 bytes/vertex), dense sets are bitmaps (O(1) membership,
// n/8 bytes regardless of occupancy). EFFICIENTIMM switches per set based
// on a size threshold so that the giant SCC-driven sets get bitmap
// treatment while the long tail of small sets stays compact.
//
// Key types: Set (the representation-agnostic interface: Size, Contains,
// ForEach, Bytes), ListSet and BitmapSet, with Policy/BuildScratch as the
// single representation-choice dispatch every generation path shares.
// Whatever the representation, a Set's member sequence is the sorted
// unique vertex list — the invariant that makes pools interchangeable
// without affecting selection.
package rrr

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/bitset"
)

// Set is one random reverse-reachable set over a graph with a fixed
// vertex count.
type Set interface {
	// Contains reports whether vertex v is in the set.
	Contains(v int32) bool
	// Size returns the number of vertices in the set.
	Size() int
	// ForEach calls fn for each vertex in ascending order.
	ForEach(fn func(v int32))
	// Vertices appends the members in ascending order to dst.
	Vertices(dst []int32) []int32
	// Bytes returns the exact memory footprint of the representation.
	Bytes() int64
	// Kind names the representation ("list" or "bitmap").
	Kind() string
}

// ListSet is a sorted vertex list — Ripples' only representation, and
// EFFICIENTIMM's choice below the density threshold.
type ListSet struct {
	verts []int32 // sorted ascending, unique
}

// NewListSet builds a ListSet from vertices, sorting and deduplicating a
// copy.
func NewListSet(vertices []int32) *ListSet {
	vs := append([]int32(nil), vertices...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	// Dedup in place.
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return &ListSet{verts: out}
}

// newListSetSorted adopts an already-sorted unique slice without copying;
// used by the sampling hot path, which produces sorted output itself.
func newListSetSorted(vertices []int32) *ListSet { return &ListSet{verts: vertices} }

// Contains uses binary search, the O(log n) probe the paper charges the
// baseline for.
func (s *ListSet) Contains(v int32) bool {
	i := sort.Search(len(s.verts), func(i int) bool { return s.verts[i] >= v })
	return i < len(s.verts) && s.verts[i] == v
}

// Size returns the member count.
func (s *ListSet) Size() int { return len(s.verts) }

// ForEach visits members in ascending order.
func (s *ListSet) ForEach(fn func(v int32)) {
	for _, v := range s.verts {
		fn(v)
	}
}

// Vertices appends the members to dst. The appended elements are copies;
// unlike Raw, the returned slice never aliases the set's backing
// storage beyond dst's own capacity.
func (s *ListSet) Vertices(dst []int32) []int32 { return append(dst, s.verts...) }

// Bytes is 4 bytes per member.
func (s *ListSet) Bytes() int64 { return int64(len(s.verts)) * 4 }

// Kind returns "list".
func (s *ListSet) Kind() string { return "list" }

// Raw exposes the sorted member slice for streaming kernels. It aliases
// the set's backing storage: read it only while the set is valid, and
// never write to it.
func (s *ListSet) Raw() []int32 { return s.verts }

// BitmapSet is a dense bitmap over the vertex space with a cached
// cardinality, EFFICIENTIMM's choice above the density threshold.
type BitmapSet struct {
	bits *bitset.Bitset
	size int
}

// NewBitmapSet builds a BitmapSet over n vertices from the given members.
func NewBitmapSet(n int32, vertices []int32) *BitmapSet {
	b := bitset.New(int(n))
	size := 0
	for _, v := range vertices {
		if !b.TestAndSet(int(v)) {
			size++
		}
	}
	return &BitmapSet{bits: b, size: size}
}

// NewBitmapSetUnique builds a BitmapSet from a duplicate-free member
// list, skipping NewBitmapSet's per-bit test-and-set: bits are OR-folded
// word-at-a-time (bitset.SetMany). The generation paths use it because
// sampler output is deduplicated by the visited bitmap by construction.
func NewBitmapSetUnique(n int32, unique []int32) *BitmapSet {
	b := bitset.New(int(n))
	b.SetMany(unique)
	return &BitmapSet{bits: b, size: len(unique)}
}

// Contains is a single bit probe.
func (s *BitmapSet) Contains(v int32) bool { return s.bits.Test(int(v)) }

// Size returns the cached cardinality.
func (s *BitmapSet) Size() int { return s.size }

// ForEach visits members in ascending order.
func (s *BitmapSet) ForEach(fn func(v int32)) {
	s.bits.ForEach(func(i int) { fn(int32(i)) })
}

// Vertices appends the members to dst.
func (s *BitmapSet) Vertices(dst []int32) []int32 { return s.bits.AppendIndices(dst) }

// Bytes is one bit per graph vertex, rounded to whole words.
func (s *BitmapSet) Bytes() int64 { return int64(len(s.bits.Words())) * 8 }

// Kind returns "bitmap".
func (s *BitmapSet) Kind() string { return "bitmap" }

// Words exposes the backing words for trace-driven cache simulation.
func (s *BitmapSet) Words() []uint64 { return s.bits.Words() }

// Policy decides representations for new sets.
type Policy struct {
	// Adaptive enables per-set switching. When false every set is a
	// ListSet (the Ripples behaviour).
	Adaptive bool
	// DensityThreshold is the |set|/n fraction above which a bitmap is
	// used. The paper derives the break-even point from equal footprint:
	// a list costs 32 bits/member, a bitmap 1 bit/vertex, so footprint
	// parity is at density 1/32 ≈ 3%. The default of 1/16 biases toward
	// lists, accounting for the bitmap's lost sort-free iteration.
	DensityThreshold float64
}

// DefaultPolicy returns the adaptive policy with the 1/16 threshold.
func DefaultPolicy() Policy { return Policy{Adaptive: true, DensityThreshold: 1.0 / 16} }

// ListOnlyPolicy returns the Ripples-style fixed representation.
func ListOnlyPolicy() Policy { return Policy{Adaptive: false} }

// Dense reports whether a set of size members over n vertices is stored
// as a bitmap under the policy. Every path that picks a representation
// asks here, so pools built by different kernels agree set-for-set.
func (p Policy) Dense(n int32, size int) bool {
	return p.Adaptive && n > 0 && float64(size) >= p.DensityThreshold*float64(n)
}

// MinDense returns the least size Dense(n, size) holds for — it holds for
// every size from it on — or math.MaxInt64 when it holds for no size up to
// n. A loop over many sizes compares against it instead of asking Dense.
func (p Policy) MinDense(n int32) int64 {
	if !p.Dense(n, int(n)) {
		return math.MaxInt64
	}
	size := int64(math.Ceil(p.DensityThreshold * float64(n)))
	for size > 0 && p.Dense(n, int(size-1)) {
		size--
	}
	for !p.Dense(n, int(size)) {
		size++
	}
	return size
}

// BuildScratch materializes a set from an unsorted, unique scratch
// buffer — the sampler's reusable output — choosing the representation
// per the policy. The buffer may be reordered in place but is never
// retained, so callers reuse it across sets; only the list
// representation pays a copy (a bitmap sets bits in its own storage).
// It is the copy-out generators' one representation dispatch.
func (p Policy) BuildScratch(n int32, buf []int32) Set {
	if p.Dense(n, len(buf)) {
		return NewBitmapSetUnique(n, buf) // needs no order
	}
	slices.Sort(buf)
	return newListSetSorted(append([]int32(nil), buf...))
}

// BuildArena is BuildScratch with arena-resident list storage:
// imm.GenerateSlotsFused's representation dispatch. List sets — the common
// case — are copied into a's bump-allocated blocks with their headers
// carved from the same arena, eliminating both per-set allocations.
// Bitmap sets still build private storage (they are the rare dense
// tail).
// The buffer may be reordered in place but is never retained. A nil
// arena degrades to BuildScratch. Representation choice is identical to
// BuildScratch, so fused and materialized sets agree.
func (p Policy) BuildArena(n int32, buf []int32, a *Arena) Set {
	if a == nil {
		return p.BuildScratch(n, buf)
	}
	if p.Dense(n, len(buf)) {
		return NewBitmapSetUnique(n, buf) // needs no order
	}
	slices.Sort(buf)
	return a.NewSortedList(buf)
}

// Stats summarizes a collection of sets, driving Table I (coverage) and
// the Twitter7 footprint analysis.
type Stats struct {
	Count       int
	TotalSize   int64
	MaxSize     int
	TotalBytes  int64
	Bitmaps     int
	Lists       int
	AvgCoverage float64 // mean |set|/n
	MaxCoverage float64 // max |set|/n
}

// Add folds one set into the running totals; Finalize then derives the
// averages. Summarize composes the two for a slice of sets.
func (st *Stats) Add(s Set) {
	sz := s.Size()
	st.Count++
	st.TotalSize += int64(sz)
	if sz > st.MaxSize {
		st.MaxSize = sz
	}
	st.TotalBytes += s.Bytes()
	if s.Kind() == "bitmap" {
		st.Bitmaps++
	} else {
		st.Lists++
	}
}

// Finalize computes the coverage ratios once every set has been Added.
func (st *Stats) Finalize(n int32) {
	if n > 0 && st.Count > 0 {
		st.AvgCoverage = float64(st.TotalSize) / float64(st.Count) / float64(n)
		st.MaxCoverage = float64(st.MaxSize) / float64(n)
	}
}

// Summarize computes Stats over sets on a graph with n vertices.
func Summarize(n int32, sets []Set) Stats {
	var st Stats
	for _, s := range sets {
		st.Add(s)
	}
	st.Finalize(n)
	return st
}

// FootprintBytes computes the storage needed for a hypothetical workload
// of count sets of meanSize vertices over an n-vertex graph under the
// policy, without materializing anything. This is the analytical model
// behind the Twitter7 OOM row of Table III: Ripples must hold every set
// as a list, while the adaptive policy prices dense sets as bitmaps only
// when cheaper.
func (p Policy) FootprintBytes(n int32, count int64, meanSize float64) int64 {
	listBytes := meanSize * 4
	if !p.Adaptive {
		return int64(listBytes * float64(count))
	}
	bitmapBytes := float64((int64(n) + 63) / 64 * 8)
	if meanSize >= p.DensityThreshold*float64(n) && bitmapBytes < listBytes {
		return int64(bitmapBytes * float64(count))
	}
	return int64(listBytes * float64(count))
}

// String renders the stats for logs.
func (st Stats) String() string {
	return fmt.Sprintf("sets=%d avg|R|=%.1f max|R|=%d avgCov=%.1f%% maxCov=%.1f%% bytes=%d (lists=%d bitmaps=%d)",
		st.Count, float64(st.TotalSize)/float64(max(st.Count, 1)), st.MaxSize,
		st.AvgCoverage*100, st.MaxCoverage*100, st.TotalBytes, st.Lists, st.Bitmaps)
}
