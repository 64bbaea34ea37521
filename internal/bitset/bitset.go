// Package bitset implements dense fixed-size bit vectors.
//
// Two variants are provided. Bitset is the plain single-owner vector used
// for per-worker visited maps during reverse BFS. Atomic wraps the same
// storage with atomic word operations for the rare structures that are
// written concurrently (for example shared coverage marks during seed
// selection). Keeping the two variants separate keeps the hot sequential
// path free of atomic overhead.
package bitset

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitset is a fixed-size dense bit vector. The zero value is an empty
// set of size 0; use New for a sized set.
type Bitset struct {
	words []uint64
	n     int
}

// New returns a Bitset capable of holding n bits, all clear.
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Bitset{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromWords adopts an existing word slice as a Bitset holding n bits,
// without copying. The slice must hold exactly (n+63)/64 words; bits at
// positions >= n must be clear. The pool-snapshot thaw path uses this to
// alias bitmap rows straight out of a memory-mapped file, so callers
// adopting shared storage must treat the set as read-only.
func FromWords(words []uint64, n int) *Bitset {
	b := new(Bitset)
	b.Adopt(words, n)
	return b
}

// Adopt is FromWords into an existing Bitset (one the caller carved out
// of a slab), replacing whatever it held.
func (b *Bitset) Adopt(words []uint64, n int) {
	if n < 0 {
		panic("bitset: negative size")
	}
	if len(words) != (n+wordBits-1)/wordBits {
		panic("bitset: FromWords word count mismatch")
	}
	b.words, b.n = words, n
}

// Len returns the number of bits the set can hold.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) {
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// TestAndSet sets bit i and reports whether it was already set.
func (b *Bitset) TestAndSet(i int) bool {
	w := &b.words[i/wordBits]
	mask := uint64(1) << uint(i%wordBits)
	old := *w&mask != 0
	*w |= mask
	return old
}

// Grow extends the set so it can hold at least n bits, preserving the
// bits already set. Shrinking is a no-op. The incremental structures
// that track a growing RRR pool (per-shard coverage marks) grow in place
// instead of reallocating a fresh set every θ round.
func (b *Bitset) Grow(n int) {
	if n <= b.n {
		return
	}
	words := (n + wordBits - 1) / wordBits
	if words > len(b.words) {
		grown := make([]uint64, words)
		copy(grown, b.words)
		b.words = grown
	}
	b.n = n
}

// Reset clears every bit. It touches every word, so for sparse occupancy
// prefer ClearList.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// ClearList clears exactly the listed bits. When only a few bits are set
// this is far cheaper than Reset — the IMM sampling loop reuses one
// visited bitmap per worker across millions of BFS runs and clears only
// the vertices the last run touched.
func (b *Bitset) ClearList(idx []int32) {
	for _, i := range idx {
		b.Clear(int(i))
	}
}

// SetMany sets every listed bit. Runs of indices that fall in the same
// word are folded into a single OR, so the common case — a sorted or
// locality-friendly list, such as an RRR member list or BFS discovery
// order — is set word-at-a-time instead of bit-at-a-time. Duplicates are
// harmless (OR is idempotent); callers tracking cardinality must pass a
// unique list.
func (b *Bitset) SetMany(idx []int32) {
	for i := 0; i < len(idx); {
		wi := int(idx[i]) / wordBits
		mask := uint64(1) << uint(int(idx[i])%wordBits)
		i++
		for i < len(idx) && int(idx[i])/wordBits == wi {
			mask |= 1 << uint(int(idx[i])%wordBits)
			i++
		}
		b.words[wi] |= mask
	}
}

// ClearMany clears every listed bit, folding same-word runs into a single
// AND-NOT the way SetMany folds sets. The fused sampling kernel uses it
// to wipe the visited bitmap from the traversal's discovery list, whose
// word locality (CSR neighbor order) makes the fold effective.
func (b *Bitset) ClearMany(idx []int32) {
	for i := 0; i < len(idx); {
		wi := int(idx[i]) / wordBits
		mask := uint64(1) << uint(int(idx[i])%wordBits)
		i++
		for i < len(idx) && int(idx[i])/wordBits == wi {
			mask |= 1 << uint(int(idx[i])%wordBits)
			i++
		}
		b.words[wi] &^= mask
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Union sets b to b ∪ other. Both sets must have the same length.
func (b *Bitset) Union(other *Bitset) {
	if b.n != other.n {
		panic("bitset: size mismatch in Union")
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Intersects reports whether b and other share any set bit.
func (b *Bitset) Intersects(other *Bitset) bool {
	if b.n != other.n {
		panic("bitset: size mismatch in Intersects")
	}
	for i, w := range other.words {
		if b.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*wordBits + bit)
			w &= w - 1
		}
	}
}

// AppendIndices appends the indices of all set bits to dst and returns
// the extended slice.
func (b *Bitset) AppendIndices(dst []int32) []int32 {
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(wi*wordBits+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// Words exposes the raw backing words for bulk operations such as cache
// simulation address generation. The caller must not resize it.
func (b *Bitset) Words() []uint64 { return b.words }

// Clone returns a deep copy of b.
func (b *Bitset) Clone() *Bitset {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// Atomic is a dense bit vector safe for concurrent Set/Test. Bit clears
// are not synchronized with sets and must be externally quiesced, which
// matches its use as a write-once coverage mark within a selection round.
type Atomic struct {
	words []uint64
	n     int
}

// NewAtomic returns an Atomic bitset holding n bits, all clear.
func NewAtomic(n int) *Atomic {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Atomic{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits the set can hold.
func (a *Atomic) Len() int { return a.n }

// Set atomically sets bit i.
func (a *Atomic) Set(i int) {
	w := &a.words[i/wordBits]
	mask := uint64(1) << uint(i%wordBits)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// TestAndSet atomically sets bit i and reports whether it was already set.
func (a *Atomic) TestAndSet(i int) bool {
	w := &a.words[i/wordBits]
	mask := uint64(1) << uint(i%wordBits)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return true
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return false
		}
	}
}

// Test atomically reports whether bit i is set.
func (a *Atomic) Test(i int) bool {
	return atomic.LoadUint64(&a.words[i/wordBits])&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits. It is only exact while no
// concurrent writers are active.
func (a *Atomic) Count() int {
	c := 0
	for i := range a.words {
		c += bits.OnesCount64(atomic.LoadUint64(&a.words[i]))
	}
	return c
}

// Reset clears all bits. Callers must quiesce writers first.
func (a *Atomic) Reset() {
	for i := range a.words {
		atomic.StoreUint64(&a.words[i], 0)
	}
}
