package compress

import (
	"encoding/binary"
	"math"
	"slices"
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

// TestPlainRejectsMembersPastInt32 pins that a delta carrying a member
// past math.MaxInt32 is an error, not a wrapped int32: whether the cast
// would land negative or on a plausible vertex id.
func TestPlainRejectsMembersPastInt32(t *testing.T) {
	for _, delta := range []uint64{1 << 31, 1<<32 + 1, 1<<64 - 1} {
		data := binary.AppendUvarint([]byte{2, 3}, delta) // members 3 and 3+delta+1
		if got, err := DecodePlain(data, nil); err == nil {
			t.Errorf("delta %d: decoded %v, want an error", delta, got)
		}
	}
	plainRoundTrip(t, []int32{3, math.MaxInt32})
}

// TestPlainRejectsImpossibleCounts pins that a count no payload of this
// length could hold is an error, and decodes nothing it was not given:
// the bytes may come from a peer (every member costs at least a byte).
func TestPlainRejectsImpossibleCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"2^40 members, no payload", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}},
		{"2^63 members overflows int", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
		{"one member, no payload", []byte{1}},
		{"three members, two bytes", []byte{3, 0, 0}},
	} {
		if got, err := DecodePlain(tc.data, nil); err == nil || len(got) >= len(tc.data) {
			t.Errorf("%s: DecodePlain = %d members, %v; want an error", tc.name, len(got), err)
		}
	}
	if got, err := DecodePlain([]byte{2, 0, 0}, nil); err != nil || len(got) != 2 {
		t.Errorf("exact fit: DecodePlain = %v, %v; want 2 members", got, err)
	}
}

// TestPlainRejectsTrailingBytes pins that a payload is one set exactly:
// bytes after the count-th member are an error, whether they would
// decode as more members or not.
func TestPlainRejectsTrailingBytes(t *testing.T) {
	for _, set := range [][]int32{{}, {3, 5}, {0, 1, 1 << 30}} {
		data := AppendPlain(nil, set)
		plainRoundTrip(t, set)
		for _, pad := range [][]byte{{0}, {0xff, 0x01}, data} {
			if got, err := DecodePlain(append(slices.Clip(data), pad...), nil); err == nil {
				t.Errorf("%v padded with %x: decoded %v, want an error", set, pad, got)
			}
		}
	}
}
