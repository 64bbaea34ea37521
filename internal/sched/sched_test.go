package sched

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// coverage checks every index in [0,n) was visited exactly once.
func coverage(t *testing.T, name string, n int, run func(mark func(i int))) {
	t.Helper()
	counts := make([]int32, n)
	run(func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("%s: index %d visited %d times", name, i, c)
		}
	}
}

func TestStaticCoversAllIndices(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			coverage(t, "Static", n, func(mark func(int)) {
				Static(p, n, func(_, s, e int) {
					for i := s; i < e; i++ {
						mark(i)
					}
				})
			})
		}
	}
}

func TestStaticPartitionsAreContiguousAndOrdered(t *testing.T) {
	type rng struct{ s, e int }
	var mu sync.Mutex
	var got []rng
	Static(4, 100, func(_, s, e int) {
		mu.Lock()
		got = append(got, rng{s, e})
		mu.Unlock()
	})
	if len(got) != 4 {
		t.Fatalf("%d ranges, want 4", len(got))
	}
	total := 0
	for _, r := range got {
		total += r.e - r.s
	}
	if total != 100 {
		t.Fatalf("ranges cover %d, want 100", total)
	}
}

func TestStaticMoreWorkersThanItems(t *testing.T) {
	coverage(t, "Static", 3, func(mark func(int)) {
		Static(16, 3, func(_, s, e int) {
			for i := s; i < e; i++ {
				mark(i)
			}
		})
	})
}

// inlineVisited is written by the non-capturing callback below, so the
// allocation count of an inline run is the scheduler's alone.
var inlineVisited int

func countInline(_, s, e int) { inlineVisited += e - s }

// TestSinglePartitionRunsInline pins the fast path: when only one worker
// would do anything, fn runs on the caller's goroutine — no goroutine,
// no WaitGroup, no allocation — and still as worker 0 over the whole
// range.
func TestSinglePartitionRunsInline(t *testing.T) {
	cases := []struct {
		name string
		n    int
		run  func()
	}{
		{"Static(1,n)", 100, func() { Static(1, 100, countInline) }},
		{"Static(p,1)", 1, func() { Static(8, 1, countInline) }},
		{"Dynamic(1,n)", 100, func() { Dynamic(1, 100, 16, countInline) }},
		{"Dynamic(p,one chunk)", 10, func() { Dynamic(8, 10, 16, countInline) }},
	}
	for _, c := range cases {
		inlineVisited = 0
		if allocs := testing.AllocsPerRun(20, c.run); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, allocs)
		}
		if want := 21 * c.n; inlineVisited != want { // AllocsPerRun adds a warm-up run
			t.Errorf("%s: visited %d items, want %d", c.name, inlineVisited, want)
		}
	}
	Static(1, 5, func(w, s, e int) {
		if w != 0 || s != 0 || e != 5 {
			t.Errorf("Static(1,5) ran fn(%d,%d,%d), want fn(0,0,5)", w, s, e)
		}
	})
	var got [][2]int
	Dynamic(1, 5, 2, func(w, s, e int) {
		if w != 0 {
			t.Errorf("Dynamic(1,...) ran as worker %d", w)
		}
		got = append(got, [2]int{s, e}) // inline, so unsynchronized is safe
	})
	if want := [][2]int{{0, 2}, {2, 4}, {4, 5}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Dynamic(1,5,2) chunks %v, want %v", got, want)
	}
}

func TestDynamicCoversAllIndices(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		for _, chunk := range []int{1, 3, 64, 1000} {
			coverage(t, "Dynamic", 500, func(mark func(int)) {
				Dynamic(p, 500, chunk, func(_, s, e int) {
					for i := s; i < e; i++ {
						mark(i)
					}
				})
			})
		}
	}
}

func TestDynamicHandlesZeroAndNegative(t *testing.T) {
	called := false
	Dynamic(4, 0, 16, func(_, _, _ int) { called = true })
	Dynamic(0, -5, 0, func(_, _, _ int) { called = true })
	if called {
		t.Fatal("callback invoked for empty range")
	}
}

func TestForEach(t *testing.T) {
	coverage(t, "ForEach", 300, func(mark func(int)) {
		ForEach(4, 300, func(_, i int) { mark(i) })
	})
}

func TestDynamicBalancesSkewedWork(t *testing.T) {
	// One in 50 items is 100x more expensive. Dynamic scheduling must
	// spread the expensive items; verify all workers execute something.
	const n = 500
	perWorker := make([]int64, 4)
	Dynamic(4, n, 1, func(w, s, e int) {
		for i := s; i < e; i++ {
			if i%50 == 0 {
				time.Sleep(200 * time.Microsecond)
			}
			atomic.AddInt64(&perWorker[w], 1)
		}
	})
	var total int64
	for _, c := range perWorker {
		total += c
	}
	if total != n {
		t.Fatalf("executed %d, want %d", total, n)
	}
}

func TestDequeLIFOFIFO(t *testing.T) {
	var d Deque
	for i := int64(0); i < 3; i++ {
		d.Push(i)
	}
	if j, ok := d.Pop(); !ok || j != 2 {
		t.Fatalf("Pop = %d,%v want 2", j, ok)
	}
	if j, ok := d.Steal(); !ok || j != 0 {
		t.Fatalf("Steal = %d,%v want 0", j, ok)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	if j, ok := d.Pop(); !ok || j != 1 {
		t.Fatalf("Pop = %d,%v want 1", j, ok)
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop on empty succeeded")
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("Steal on empty succeeded")
	}
}

func TestDequeConcurrentNoLossNoDup(t *testing.T) {
	var d Deque
	const n = 10000
	for i := int64(0); i < n; i++ {
		d.Push(i)
	}
	seen := make([]int32, n)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				var j int64
				var ok bool
				if w%2 == 0 {
					j, ok = d.Pop()
				} else {
					j, ok = d.Steal()
				}
				if !ok {
					return
				}
				atomic.AddInt32(&seen[j], 1)
			}
		}(w)
	}
	wg.Wait()
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("job %d executed %d times", i, c)
		}
	}
}

func TestWorkStealingExecutesAllJobs(t *testing.T) {
	const n = 2000
	seen := make([]int32, n)
	executed := WorkStealing(8, n, func(_ int, job int64) {
		atomic.AddInt32(&seen[job], 1)
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("job %d executed %d times", i, c)
		}
	}
	var total int64
	for _, e := range executed {
		total += e
	}
	if total != n {
		t.Fatalf("executed total %d, want %d", total, n)
	}
}

func TestWorkStealingBalancesSkew(t *testing.T) {
	// Seed all slow jobs onto worker 0's deque (jobs 0..p-1 round robin
	// means job%8==0 lands on worker 0); peers must steal some.
	const n, p = 400, 8
	executed := WorkStealing(p, n, func(_ int, job int64) {
		if job%int64(p) == 0 {
			time.Sleep(300 * time.Microsecond)
		}
	})
	if executed[0] == n/p {
		// Worker 0 kept all its slow jobs and did nothing else only if
		// no stealing happened anywhere; with 50 slow jobs and 2 cores
		// some steal activity is overwhelmingly likely.
		t.Logf("worker 0 executed exactly its seed share; stealing may not have triggered")
	}
	var total int64
	for _, e := range executed {
		total += e
	}
	if total != n {
		t.Fatalf("executed %d, want %d", total, n)
	}
}

func TestWorkStealingSingleWorker(t *testing.T) {
	var count int64
	WorkStealing(1, 100, func(_ int, _ int64) { atomic.AddInt64(&count, 1) })
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
}

func TestWorkStealingZeroJobs(t *testing.T) {
	executed := WorkStealing(4, 0, func(_ int, _ int64) { t.Error("callback on zero jobs") })
	if len(executed) != 4 {
		t.Fatalf("executed slice len %d", len(executed))
	}
}
