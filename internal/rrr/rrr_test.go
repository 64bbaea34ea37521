package rrr

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestListSetBasics(t *testing.T) {
	s := NewListSet([]int32{5, 1, 3, 1, 5})
	if s.Size() != 3 {
		t.Fatalf("Size = %d, want 3 after dedup", s.Size())
	}
	for _, v := range []int32{1, 3, 5} {
		if !s.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	for _, v := range []int32{0, 2, 4, 6} {
		if s.Contains(v) {
			t.Fatalf("phantom %d", v)
		}
	}
	if s.Kind() != "list" || s.Bytes() != 12 {
		t.Fatalf("Kind/Bytes = %s/%d", s.Kind(), s.Bytes())
	}
}

func TestListSetOrderedIteration(t *testing.T) {
	s := NewListSet([]int32{9, 2, 7})
	var got []int32
	s.ForEach(func(v int32) { got = append(got, v) })
	if len(got) != 3 || got[0] != 2 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("ForEach order = %v", got)
	}
	vs := s.Vertices([]int32{100})
	if len(vs) != 4 || vs[0] != 100 || vs[1] != 2 {
		t.Fatalf("Vertices = %v", vs)
	}
}

func TestBitmapSetBasics(t *testing.T) {
	s := NewBitmapSet(100, []int32{5, 1, 3, 1})
	if s.Size() != 3 {
		t.Fatalf("Size = %d", s.Size())
	}
	if !s.Contains(1) || s.Contains(2) {
		t.Fatal("membership wrong")
	}
	if s.Kind() != "bitmap" {
		t.Fatal("Kind wrong")
	}
	// 100 bits → 2 words → 16 bytes, independent of occupancy.
	if s.Bytes() != 16 {
		t.Fatalf("Bytes = %d, want 16", s.Bytes())
	}
}

func TestRepresentationsAgreeProperty(t *testing.T) {
	f := func(raw []uint16, probe uint16) bool {
		const n = 1 << 16
		verts := make([]int32, len(raw))
		for i, r := range raw {
			verts[i] = int32(r)
		}
		list := NewListSet(verts)
		bm := NewBitmapSet(n, verts)
		if list.Size() != bm.Size() {
			return false
		}
		if list.Contains(int32(probe)) != bm.Contains(int32(probe)) {
			return false
		}
		a := list.Vertices(nil)
		b := bm.Vertices(nil)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicySwitching(t *testing.T) {
	p := DefaultPolicy()
	const n = 1600
	small := make([]int32, 50) // density 1/32 < 1/16 → list
	for i := range small {
		small[i] = int32(i)
	}
	dense := make([]int32, 200) // density 1/8 > 1/16 → bitmap
	for i := range dense {
		dense[i] = int32(i)
	}
	if got := p.Build(n, small); got.Kind() != "list" {
		t.Fatalf("small set stored as %s", got.Kind())
	}
	if got := p.Build(n, dense); got.Kind() != "bitmap" {
		t.Fatalf("dense set stored as %s", got.Kind())
	}
}

func TestListOnlyPolicyNeverBitmaps(t *testing.T) {
	p := ListOnlyPolicy()
	all := make([]int32, 1000)
	for i := range all {
		all[i] = int32(i)
	}
	if got := p.Build(1000, all); got.Kind() != "list" {
		t.Fatalf("list-only policy produced %s", got.Kind())
	}
}

func TestPolicyBuildAdoptsSortedSlice(t *testing.T) {
	p := ListOnlyPolicy()
	verts := []int32{1, 5, 9}
	s := p.Build(100, verts)
	if !s.Contains(5) || s.Size() != 3 {
		t.Fatal("adopted slice semantics wrong")
	}
}

func TestSummarize(t *testing.T) {
	const n = 100
	sets := []Set{
		NewListSet([]int32{1, 2, 3}),
		NewListSet([]int32{4}),
		NewBitmapSet(n, []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}),
	}
	st := Summarize(n, sets)
	if st.Count != 3 || st.TotalSize != 14 || st.MaxSize != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Lists != 2 || st.Bitmaps != 1 {
		t.Fatalf("kind counts = %+v", st)
	}
	if st.MaxCoverage != 0.1 {
		t.Fatalf("MaxCoverage = %v", st.MaxCoverage)
	}
	wantAvg := 14.0 / 3 / 100
	if diff := st.AvgCoverage - wantAvg; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("AvgCoverage = %v, want %v", st.AvgCoverage, wantAvg)
	}
	if st.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(100, nil)
	if st.Count != 0 || st.AvgCoverage != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestFootprintModelAdaptiveWins(t *testing.T) {
	// Twitter7-scale: 41.6M vertices, dense sets of ~60% coverage.
	const n = int32(41_652_230)
	meanSize := 0.6 * float64(n)
	const count = 10000
	ripples := ListOnlyPolicy().FootprintBytes(n, count, meanSize)
	adaptive := DefaultPolicy().FootprintBytes(n, count, meanSize)
	if adaptive >= ripples {
		t.Fatalf("adaptive footprint %d not below list-only %d", adaptive, ripples)
	}
	// The ratio must approach 32x (4 bytes/member vs 1 bit/vertex at 60%
	// coverage ≈ 19.2x).
	if ratio := float64(ripples) / float64(adaptive); ratio < 10 {
		t.Fatalf("footprint ratio = %v, want > 10", ratio)
	}
}

func TestFootprintModelSparseKeepsLists(t *testing.T) {
	const n = int32(1 << 20)
	sparse := 100.0 // tiny sets
	a := DefaultPolicy().FootprintBytes(n, 1000, sparse)
	l := ListOnlyPolicy().FootprintBytes(n, 1000, sparse)
	if a != l {
		t.Fatalf("sparse adaptive %d != list-only %d", a, l)
	}
}

func TestLargeRandomSetsConsistency(t *testing.T) {
	r := rng.New(7)
	const n = 10000
	verts := make([]int32, 0, 3000)
	for i := 0; i < 3000; i++ {
		verts = append(verts, int32(r.Intn(n)))
	}
	list := NewListSet(verts)
	bm := NewBitmapSet(n, verts)
	sorted := append([]int32(nil), verts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 0; i < 100; i++ {
		v := int32(r.Intn(n))
		want := false
		for _, s := range sorted {
			if s == v {
				want = true
				break
			}
		}
		if list.Contains(v) != want || bm.Contains(v) != want {
			t.Fatalf("membership of %d wrong", v)
		}
	}
}

// TestMinDense holds MinDense to Dense: below it no size is dense, from it
// on every size is.
func TestMinDense(t *testing.T) {
	for _, p := range []Policy{DefaultPolicy(), ListOnlyPolicy(), {Adaptive: true, DensityThreshold: 1.0 / 3}, {Adaptive: true, DensityThreshold: 1.5}, {Adaptive: true}} {
		for _, n := range []int32{0, 1, 2, 3, 15, 16, 17, 63, 64, 100, 1000, 4099} {
			m := p.MinDense(n)
			for size := 0; size <= int(n); size++ {
				if got, want := p.Dense(n, size), int64(size) >= m; got != want {
					t.Fatalf("%+v n=%d: Dense(%d) = %v, MinDense %d", p, n, size, got, m)
				}
			}
		}
	}
}
