package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 1234567 from the public-domain C
	// implementation of SplitMix64.
	s := NewSplitMix64(1234567)
	want := []uint64{
		0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("SplitMix64(1234567) step %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	seen := map[uint64]int{}
	for w := 0; w < 16; w++ {
		s := NewStream(7, w)
		for i := 0; i < 64; i++ {
			v := s.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("streams %d and %d emitted identical value %#x", prev, w, v)
			}
			seen[v] = w
		}
	}
}

func TestStreamReproducible(t *testing.T) {
	a := NewStream(99, 3)
	b := NewStream(99, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("stream not reproducible at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	x := New(5)
	for i := 0; i < 100000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	x := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += x.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestUint32nBounds(t *testing.T) {
	x := New(17)
	for _, n := range []uint32{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 2000; i++ {
			if v := x.Uint32n(n); v >= n {
				t.Fatalf("Uint32n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint32nUniform(t *testing.T) {
	x := New(23)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[x.Uint32n(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d has %d draws, want about %.0f", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliEdges(t *testing.T) {
	x := New(3)
	for i := 0; i < 100; i++ {
		if x.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !x.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	x := New(31)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if x.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, rate)
	}
}

func TestJumpDisjoint(t *testing.T) {
	a := New(77)
	b := New(77)
	b.Jump()
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[a.Uint64()] = true
	}
	for i := 0; i < 1000; i++ {
		if seen[b.Uint64()] {
			t.Fatalf("jumped stream collided with base stream at step %d", i)
		}
	}
}

func TestIntnRangeProperty(t *testing.T) {
	x := New(41)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := x.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroStateRecovery(t *testing.T) {
	var x Xoshiro256
	x.Seed(0) // SplitMix64(0) yields nonzero words, but guard anyway
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		t.Fatal("seeded generator has all-zero state")
	}
	out := x.Uint64()
	_ = out
}

func BenchmarkUint64(b *testing.B) {
	x := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = x.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	x := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = x.Float64()
	}
	_ = sink
}

func TestSeedStreamMatchesNewStream(t *testing.T) {
	var x Xoshiro256
	for _, slot := range []int{0, 1, 7, 123456} {
		fresh := NewStream(99, slot)
		x.SeedStream(99, slot) // in-place reuse across slots
		for i := 0; i < 16; i++ {
			if a, b := fresh.Uint64(), x.Uint64(); a != b {
				t.Fatalf("slot %d draw %d: SeedStream %d != NewStream %d", slot, i, b, a)
			}
		}
	}
}

// TestNextMatchesUint64 holds the value step to the reference
// xoshiro256** sequence from state {1, 2, 3, 4} (the C implementation's
// first outputs) and to Uint64's sequence from a seeded state: same
// outputs, and the state Next returns is the one Uint64 leaves behind.
func TestNextMatchesUint64(t *testing.T) {
	x := Xoshiro256{1, 2, 3, 4}
	for i, want := range []uint64{0x2d00, 0, 0x5a007080, 0x10e0000000009d80, 0x10e0b61ce1009d80, 0x870021ce143ad00} {
		var got uint64
		if got, x = x.Next(); got != want {
			t.Fatalf("reference step %d: Next = %#x, want %#x", i, got, want)
		}
	}
	if want := (Xoshiro256{0xc060100412050281, 0x706014140a0305, 0xc07030000a040007, 0x60306800100183c1}); x != want {
		t.Fatalf("state after 6 steps %+v, want %+v", x, want)
	}
	ptr, val := NewStream(99, 3), *NewStream(99, 3)
	for i := 0; i < 1000; i++ {
		var got uint64
		got, val = val.Next()
		if want := ptr.Uint64(); got != want || val != *ptr {
			t.Fatalf("step %d: Next = %#x with state %+v; Uint64 = %#x with %+v", i, got, val, want, *ptr)
		}
	}
}
