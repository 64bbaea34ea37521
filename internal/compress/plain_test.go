package compress

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

func plainRoundTrip(t *testing.T, verts []int32) {
	t.Helper()
	data := AppendPlain(nil, verts)
	got, err := DecodePlain(data, nil)
	if err != nil {
		t.Fatalf("DecodePlain(%v): %v", verts, err)
	}
	if len(got) != len(verts) {
		t.Fatalf("round trip length %d != %d", len(got), len(verts))
	}
	for i := range verts {
		if got[i] != verts[i] {
			t.Fatalf("round trip mismatch at %d: %d != %d", i, got[i], verts[i])
		}
	}
	if c, err := PlainCount(data); err != nil || c != len(verts) {
		t.Fatalf("PlainCount = %d, %v; want %d", c, err, len(verts))
	}
}

func TestPlainRoundTrip(t *testing.T) {
	plainRoundTrip(t, nil)
	plainRoundTrip(t, []int32{0})
	plainRoundTrip(t, []int32{0, 1, 2, 3})
	plainRoundTrip(t, []int32{7})
	plainRoundTrip(t, []int32{0, 1<<30 + 17})
	plainRoundTrip(t, []int32{5, 1000, 1001, 1 << 20})
}

func TestPlainRoundTripRandom(t *testing.T) {
	r := rng.NewStream(99, 0)
	for trial := 0; trial < 50; trial++ {
		n := int(r.Uint64()%2000) + 1
		seen := map[int32]bool{}
		var verts []int32
		for len(verts) < n {
			v := int32(r.Uint64() % (1 << 22))
			if !seen[v] {
				seen[v] = true
				verts = append(verts, v)
			}
		}
		sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
		plainRoundTrip(t, verts)
	}
}

func TestPlainBeatsSliceOnClusteredIDs(t *testing.T) {
	// Consecutive-ish ids (the common RRR shape after BFS over a
	// community): one byte per member, 4x below the slice cost.
	verts := make([]int32, 4000)
	for i := range verts {
		verts[i] = int32(i * 3)
	}
	data := AppendPlain(nil, verts)
	if int64(len(data))*2 >= int64(len(verts))*4 {
		t.Fatalf("plain encoding %dB not at least 2x below slice %dB", len(data), len(verts)*4)
	}
}

func TestPlainTruncation(t *testing.T) {
	data := AppendPlain(nil, []int32{3, 900, 40000})
	if _, err := DecodePlain(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	for cut := 1; cut < len(data); cut++ {
		if _, err := DecodePlain(data[:cut], nil); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

// TestPlainCountRejectsImpossibleCounts pins that a count no payload of
// this length could hold is an error: callers size buffers from it, and
// the bytes may come from a peer (every member costs at least a byte).
func TestPlainCountRejectsImpossibleCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"2^40 members, no payload", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}},
		{"2^63 members overflows int", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
		{"one member, no payload", []byte{1}},
		{"three members, two bytes", []byte{3, 0, 0}},
	} {
		if c, err := PlainCount(tc.data); err == nil {
			t.Errorf("%s: PlainCount = %d, want an error", tc.name, c)
		}
	}
	if c, err := PlainCount([]byte{2, 0, 0}); err != nil || c != 2 {
		t.Errorf("exact fit: PlainCount = %d, %v; want 2", c, err)
	}
}
