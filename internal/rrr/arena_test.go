package rrr

import (
	"testing"
)

func TestArenaNewSortedListCopies(t *testing.T) {
	a := NewArena()
	src := []int32{1, 4, 9}
	s := a.NewSortedList(src)
	src[0] = 99 // caller scratch reuse must not leak into the set
	if got := s.Raw(); got[0] != 1 || got[1] != 4 || got[2] != 9 {
		t.Fatalf("arena list aliases caller scratch: %v", got)
	}
	if s.Size() != 3 || !s.Contains(4) || s.Contains(2) {
		t.Fatal("arena-backed list misbehaves as a Set")
	}
}

func TestArenaResetReusesStorage(t *testing.T) {
	a := NewArena()
	first := a.NewSortedList([]int32{10, 20, 30})
	detached := first.Detach()
	grown := a.Bytes()

	a.Reset()
	// The next set lands in the same block the first occupied.
	second := a.NewSortedList([]int32{7, 8, 9})
	if a.Bytes() != grown {
		t.Fatalf("Reset grew the arena: %d -> %d", grown, a.Bytes())
	}
	if raw := first.Raw(); raw[0] != 7 {
		t.Fatalf("expected first set's storage to be overwritten after Reset, got %v", raw)
	}
	if d := detached.Raw(); d[0] != 10 || d[1] != 20 || d[2] != 30 {
		t.Fatalf("Detach()ed copy did not survive arena reuse: %v", d)
	}
	if second.Raw()[2] != 9 {
		t.Fatal("post-reset set corrupt")
	}
}

func TestArenaLargeAllocation(t *testing.T) {
	a := NewArena()
	before := a.NewSortedList([]int32{1, 2}) // occupy a cursor block first
	big := make([]int32, arenaBlockInts+100) // forces the dedicated-block path
	for i := range big {
		big[i] = int32(i)
	}
	s := a.NewSortedList(big)
	after := a.NewSortedList([]int32{5, 6, 7}) // must keep bumping in the old block
	if s.Size() != len(big) || s.Raw()[len(big)-1] != int32(len(big)-1) {
		t.Fatal("dedicated-block list corrupt")
	}
	if before.Raw()[0] != 1 || after.Raw()[0] != 5 {
		t.Fatal("dedicated-block insertion disturbed bump allocation")
	}
	if a.SlackBytes() < 0 || a.Bytes() < int64(4*len(big)) {
		t.Fatalf("accounting wrong: bytes=%d slack=%d", a.Bytes(), a.SlackBytes())
	}
}

func TestBuildArenaMatchesBuildScratch(t *testing.T) {
	const n = 128
	policies := []Policy{
		{Adaptive: false},
		DefaultPolicy(),
	}
	inputs := [][]int32{
		{3, 1, 2},                          // sparse: list
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 10}, // dense enough for adaptive bitmap
	}
	for pi, p := range policies {
		for ii, in := range inputs {
			a := NewArena()
			scratch := p.BuildScratch(n, append([]int32(nil), in...))
			arena := p.BuildArena(n, append([]int32(nil), in...), a)
			nilArena := p.BuildArena(n, append([]int32(nil), in...), nil)
			for _, got := range []Set{arena, nilArena} {
				if got.Kind() != scratch.Kind() {
					t.Fatalf("policy %d input %d: kind %s != scratch kind %s", pi, ii, got.Kind(), scratch.Kind())
				}
				if got.Size() != scratch.Size() {
					t.Fatalf("policy %d input %d: size diverged", pi, ii)
				}
				want := scratch.Vertices(nil)
				have := got.Vertices(nil)
				for i := range want {
					if want[i] != have[i] {
						t.Fatalf("policy %d input %d: members %v != %v", pi, ii, have, want)
					}
				}
			}
		}
	}
}

func TestDetachBreaksAliasing(t *testing.T) {
	s := newListSetSorted([]int32{1, 2, 3})
	d := s.Detach()
	s.verts[0] = 42
	if d.Raw()[0] != 1 {
		t.Fatal("Detach shares backing storage")
	}
}
