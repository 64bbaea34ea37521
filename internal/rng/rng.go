// Package rng provides small, fast, deterministic pseudo-random number
// generators for parallel workloads.
//
// The IMM sampling phase draws billions of random numbers from many
// workers at once. Sharing math/rand's global source would serialize the
// workers on its lock and destroy reproducibility, so each worker owns an
// independent xoshiro256** stream seeded through SplitMix64, following the
// recommendation of the xoshiro authors. Streams with distinct seeds are
// statistically independent for our purposes and a (seed, worker) pair
// always yields the same sequence, which keeps every experiment in this
// repository replayable.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the seeding generator recommended for initializing
// xoshiro state. It is also a decent standalone 64-bit generator.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 implements the xoshiro256** 1.0 generator of Blackman and
// Vigna. It has a 2^256-1 period and passes BigCrush; the zero value is
// invalid and must be seeded through New or Seed.
//
// The state is four scalar words rather than an array so that Next and
// Uint64 inline and a by-value copy is four plain locals: the samplers
// draw from a local copy for the length of one RRR set and store it back
// once.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from seed via SplitMix64, per the
// reference implementation's seeding procedure.
func New(seed uint64) *Xoshiro256 {
	var x Xoshiro256
	x.Seed(seed)
	return &x
}

// NewStream returns the worker'th independent stream for a base seed.
// Distinct workers receive generators whose state words are derived from
// disjoint SplitMix64 sequences, so their outputs do not overlap in
// practice.
func NewStream(seed uint64, worker int) *Xoshiro256 {
	var x Xoshiro256
	x.SeedStream(seed, worker)
	return &x
}

// SeedStream re-initializes x in place to the exact state NewStream
// (seed, worker) constructs. Hot paths that draw one short stream per
// work item (the fused generation kernel seeds one per RRR slot) reuse
// a single generator through this instead of allocating per item.
func (x *Xoshiro256) SeedStream(seed uint64, worker int) {
	x.Seed(seed ^ (0xa0761d6478bd642f * (uint64(worker) + 1)))
}

// Seed resets the generator state from seed.
func (x *Xoshiro256) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	x.s0, x.s1, x.s2, x.s3 = sm.Next(), sm.Next(), sm.Next(), sm.Next()
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		x.s0 = 0x9e3779b97f4a7c15 // all-zero state is the one forbidden point
	}
}

// Next is the xoshiro256** step: it returns the next 64 random bits and
// the state after them. It is the one spelling of the step. A kernel
// that passes the generator by value and takes it back keeps the four
// words in registers for the length of its loop, where the pointer
// methods would load and store them through memory on every draw.
func (x Xoshiro256) Next() (uint64, Xoshiro256) {
	result := bits.RotateLeft64(x.s1*5, 7) * 9
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return result, x
}

// Uint64 returns the next 64 random bits. (The named result keeps it,
// and so Float32 and Float64, within the compiler's inlining budget.)
func (x *Xoshiro256) Uint64() (v uint64) {
	v, *x = x.Next()
	return v
}

// Float64 returns a uniform value in [0, 1) with 53 random bits,
// using the standard shift-and-scale construction.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform value in [0, 1) with 24 random bits.
func (x *Xoshiro256) Float32() float32 {
	return float32(x.Uint64()>>40) / (1 << 24)
}

// Uint32n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method, which avoids the modulo bias of naive `% n` and the
// division of the classic bounded draw.
func (x *Xoshiro256) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("rng: Uint32n with n == 0")
	}
	v := uint32(x.Uint64())
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < n {
		thresh := -n % n
		for low < thresh {
			v = uint32(x.Uint64())
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return uint32(prod >> 32)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	if n <= math.MaxUint32 {
		return int(x.Uint32n(uint32(n)))
	}
	// Rare large-range path: rejection sample over 64 bits.
	mask := uint64(1)<<bitsFor(uint64(n)) - 1
	for {
		v := x.Uint64() & mask
		if v < uint64(n) {
			return int(v)
		}
	}
}

// Bernoulli reports true with probability p.
func (x *Xoshiro256) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	}
	return x.Float64() < p
}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls
// to Uint64. It can be used to carve non-overlapping subsequences out of
// a single seed when stream independence must be provable rather than
// statistical.
func (x *Xoshiro256) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= x.s0
				s1 ^= x.s1
				s2 ^= x.s2
				s3 ^= x.s3
			}
			x.Uint64()
		}
	}
	x.s0, x.s1, x.s2, x.s3 = s0, s1, s2, s3
}

func bitsFor(v uint64) uint {
	var b uint
	for v != 0 {
		v >>= 1
		b++
	}
	return b
}
