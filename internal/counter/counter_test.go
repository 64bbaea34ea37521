package counter

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestIncDecGet(t *testing.T) {
	c := New(10)
	c.Inc(3)
	c.Inc(3)
	c.Dec(3)
	if got := c.Get(3); got != 1 {
		t.Fatalf("Get = %d, want 1", got)
	}
	if got := c.Get(0); got != 0 {
		t.Fatalf("untouched counter = %d", got)
	}
}

func TestConcurrentIncrementsExact(t *testing.T) {
	const n, workers, per = 128, 8, 10000
	c := New(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewStream(1, w)
			for i := 0; i < per; i++ {
				c.Inc(int32(r.Intn(n)))
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for v := int32(0); v < n; v++ {
		total += c.Get(v)
	}
	if total != workers*per {
		t.Fatalf("total = %d, want %d (no lost updates)", total, workers*per)
	}
}

func TestArgMaxMatchesSequential(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 30; trial++ {
		n := int32(r.Intn(500) + 1)
		c := New(n)
		for i := 0; i < 2000; i++ {
			c.Inc(int32(r.Intn(int(n))))
		}
		seq := c.SequentialArgMax()
		for _, p := range []int{1, 2, 4, 7, 16} {
			par := c.ArgMax(p)
			if par.Count != seq.Count {
				t.Fatalf("trial %d p=%d: parallel count %d != sequential %d", trial, p, par.Count, seq.Count)
			}
			if c.Get(par.Vertex) != seq.Count {
				t.Fatalf("trial %d p=%d: argmax vertex %d does not hold max", trial, p, par.Vertex)
			}
		}
	}
}

func TestArgMaxDeterministicTieBreak(t *testing.T) {
	c := New(100)
	c.Inc(10)
	c.Inc(50)
	c.Inc(90)
	// All tied at 1; both reductions must pick the lowest id... the
	// sequential scan keeps the first maximum.
	seq := c.SequentialArgMax()
	if seq.Vertex != 10 {
		t.Fatalf("sequential tie-break picked %d", seq.Vertex)
	}
	for _, p := range []int{1, 2, 4, 16} {
		if got := c.ArgMax(p); got.Vertex != 10 {
			t.Fatalf("p=%d tie-break picked %d, want 10", p, got.Vertex)
		}
	}
}

func TestArgMaxEmptyAndTiny(t *testing.T) {
	if got := New(0).ArgMax(4); got.Vertex != -1 {
		t.Fatalf("empty argmax = %+v", got)
	}
	c := New(1)
	c.Inc(0)
	if got := c.ArgMax(8); got.Vertex != 0 || got.Count != 1 {
		t.Fatalf("single argmax = %+v", got)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	c := New(5)
	c.Inc(2)
	s := c.Snapshot(nil)
	if len(s) != 5 || s[2] != 1 {
		t.Fatalf("snapshot = %v", s)
	}
	c.Reset()
	if c.Get(2) != 0 {
		t.Fatal("Reset failed")
	}
	if s[2] != 1 {
		t.Fatal("snapshot aliased to live counter")
	}
	// Reuse path.
	c.Inc(4)
	s2 := c.Snapshot(s)
	if s2[4] != 1 || s2[2] != 0 {
		t.Fatalf("reused snapshot = %v", s2)
	}
}

func TestArgMaxProperty(t *testing.T) {
	f := func(raw []uint8, pRaw uint8) bool {
		c := New(256)
		for _, v := range raw {
			c.Inc(int32(v))
		}
		p := int(pRaw%16) + 1
		got := c.ArgMax(p)
		if len(raw) == 0 {
			return got.Count == 0
		}
		// got must hold the true maximum count.
		var maxCount int64
		for v := int32(0); v < 256; v++ {
			if c.Get(v) > maxCount {
				maxCount = c.Get(v)
			}
		}
		return got.Count == maxCount && c.Get(got.Vertex) == maxCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChooseRebuild(t *testing.T) {
	// Heavy skew: covered sets hold nearly everything → rebuild wins.
	if !ChooseRebuild(1_000_000, 1_000, 10_000) {
		t.Fatal("should rebuild under heavy skew")
	}
	// Light seed: covered few → decrement wins.
	if ChooseRebuild(1_000, 1_000_000, 10_000) {
		t.Fatal("should decrement when coverage is light")
	}
}

func TestUpdateStrategyString(t *testing.T) {
	if Decrement.String() != "decrement" || Rebuild.String() != "rebuild" || AdaptiveUpdate.String() != "adaptive" {
		t.Fatal("String() wrong")
	}
}

func BenchmarkInc(b *testing.B) {
	c := New(1 << 16)
	for i := 0; i < b.N; i++ {
		c.Inc(int32(i & (1<<16 - 1)))
	}
}

func BenchmarkArgMax(b *testing.B) {
	c := New(1 << 18)
	r := rng.New(1)
	for i := 0; i < 1<<18; i++ {
		c.Inc(int32(r.Intn(1 << 18)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ArgMax(4)
	}
}

func TestGainHeapOrdering(t *testing.T) {
	h := NewGainHeap([]GainItem{{3, 5}, {9, 2}, {3, 1}, {9, 7}, {0, 0}})
	h.Init()
	want := []GainItem{{9, 2}, {9, 7}, {3, 1}, {3, 5}, {0, 0}}
	for i, w := range want {
		got, ok := h.Pop()
		if !ok || got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("pop from empty heap succeeded")
	}
	if _, ok := h.Top(); ok {
		t.Fatal("top of empty heap succeeded")
	}
}

func TestGainHeapUpdateTop(t *testing.T) {
	h := NewGainHeap([]GainItem{{10, 4}, {8, 1}, {6, 9}})
	h.Init()
	h.UpdateTop(7) // 10@4 decays to 7@4: 8@1 must surface
	if top, _ := h.Top(); top != (GainItem{8, 1}) {
		t.Fatalf("top after decay = %+v", top)
	}
	h.UpdateTop(7) // 8@1 decays to 7@1: ties with 7@4, lower id wins
	if top, _ := h.Top(); top != (GainItem{7, 1}) {
		t.Fatalf("tie-break top = %+v", top)
	}
}

func TestGainHeapMatchesArgMaxOrder(t *testing.T) {
	// Popping a fully fresh heap must enumerate vertices in exactly the
	// order repeated ArgMax-with-retirement would visit them.
	r := rng.NewStream(31, 2)
	n := int32(300)
	c := New(n)
	for i := 0; i < 4000; i++ {
		c.Inc(int32(r.Uint64() % uint64(n)))
	}
	items := make([]GainItem, n)
	for v := range items {
		items[v] = GainItem{Gain: c.Get(int32(v)), Vertex: int32(v)}
	}
	h := NewGainHeap(items)
	h.Init()
	raw := c.Raw()
	for i := 0; i < int(n); i++ {
		got, ok := h.Pop()
		if !ok {
			t.Fatal("heap exhausted early")
		}
		best := c.ArgMax(3)
		if best.Vertex != got.Vertex || best.Count != got.Gain {
			t.Fatalf("pop %d: heap %+v vs argmax %+v", i, got, best)
		}
		raw[best.Vertex] = -1
	}
}
