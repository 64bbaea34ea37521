package ingest

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/graph"
)

func TestDeltaRoundTrip(t *testing.T) {
	cases := []graph.Delta{
		{},
		{Seed: 99},
		{Add: []graph.Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}, Seed: 7},
		{Add: []graph.Edge{{Src: 1, Dst: 2}}, AddProb: []float32{0.5}, Seed: 7},
		{Remove: []graph.Edge{{Src: 9, Dst: 0}}},
		{
			Add:     []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 2}, {Src: 5, Dst: 5}},
			AddProb: []float32{0, 0.25, 1},
			Remove:  []graph.Edge{{Src: 1, Dst: 0}, {Src: 1, Dst: 0}},
			Seed:    ^uint64(0),
		},
	}
	for i, d := range cases {
		var buf bytes.Buffer
		if err := WriteDelta(&buf, d); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		got, info, err := ReadDelta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("case %d: read: %v", i, err)
		}
		if !reflect.DeepEqual(normalizeDelta(got), normalizeDelta(d)) {
			t.Fatalf("case %d: round trip diverged:\n got %+v\nwant %+v", i, got, d)
		}
		if info.Seed != d.Seed || info.Adds != int64(len(d.Add)) || info.Removes != int64(len(d.Remove)) {
			t.Fatalf("case %d: info %+v does not match delta", i, info)
		}
		if info.Bytes != int64(buf.Len()) {
			t.Fatalf("case %d: info.Bytes %d != stream length %d", i, info.Bytes, buf.Len())
		}
		// Canonical: re-encoding the decoded value reproduces the bytes.
		var buf2 bytes.Buffer
		if err := WriteDelta(&buf2, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("case %d: encoding is not canonical", i)
		}
	}
}

// normalizeDelta maps empty slices to nil so DeepEqual compares values,
// not allocation accidents.
func normalizeDelta(d graph.Delta) graph.Delta {
	if len(d.Add) == 0 {
		d.Add = nil
	}
	if len(d.AddProb) == 0 {
		d.AddProb = nil
	}
	if len(d.Remove) == 0 {
		d.Remove = nil
	}
	return d
}

func TestDeltaFileRoundTrip(t *testing.T) {
	d := graph.Delta{
		Add:    []graph.Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}},
		Remove: []graph.Edge{{Src: 0, Dst: 1}},
		Seed:   11,
	}
	path := t.TempDir() + "/t" + DeltaExt
	if err := WriteDeltaFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadDeltaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeDelta(got), normalizeDelta(d)) {
		t.Fatalf("file round trip diverged: %+v", got)
	}
}

func TestDeltaCorruptionDetected(t *testing.T) {
	d := graph.Delta{Add: []graph.Edge{{Src: 1, Dst: 2}}, Remove: []graph.Edge{{Src: 3, Dst: 4}}, Seed: 5}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one payload byte: the section CRC must catch it.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0x40
	if _, _, err := ReadDelta(bytes.NewReader(flipped)); err == nil {
		t.Fatal("payload corruption went undetected")
	}

	// Flip a header byte (seed field): the header CRC must catch it.
	flipped = append([]byte(nil), raw...)
	flipped[17] ^= 0x01
	if _, _, err := ReadDelta(bytes.NewReader(flipped)); err == nil {
		t.Fatal("header corruption went undetected")
	}

	// Truncation must fail cleanly.
	if _, _, err := ReadDelta(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated stream went undetected")
	}

	// Wrong magic.
	flipped = append([]byte(nil), raw...)
	flipped[0] = 'X'
	if _, _, err := ReadDelta(bytes.NewReader(flipped)); err == nil {
		t.Fatal("bad magic went undetected")
	}

	// Unknown version.
	flipped = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(flipped[8:], 99)
	if _, _, err := ReadDelta(bytes.NewReader(flipped)); err == nil {
		t.Fatal("unknown version went undetected")
	}
}

func TestDedupeDeltaOptions(t *testing.T) {
	if !DedupeStrict.DeltaOptions().Strict {
		t.Fatal("DedupeStrict must map to strict delta application")
	}
	if DedupeSilent.DeltaOptions().Strict {
		t.Fatal("DedupeSilent must map to non-strict delta application")
	}
}

// FuzzDeltaRoundTrip feeds arbitrary bytes to the reader (it must fail
// cleanly or parse) and, when the bytes decode, requires
// decode→encode→decode to be a fixed point; it also round-trips
// structured deltas built from the fuzz input.
func FuzzDeltaRoundTrip(f *testing.F) {
	var seedBuf bytes.Buffer
	_ = WriteDelta(&seedBuf, graph.Delta{
		Add:     []graph.Edge{{Src: 1, Dst: 2}},
		AddProb: []float32{0.5},
		Remove:  []graph.Edge{{Src: 3, Dst: 4}},
		Seed:    7,
	})
	f.Add(seedBuf.Bytes())
	f.Add([]byte("IMDELTA\x1a"))
	f.Add([]byte{})
	seedOtherFormats(f, "imdelta")
	f.Fuzz(func(t *testing.T, data []byte) {
		d, _, err := ReadDelta(bytes.NewReader(data))
		if err == nil {
			var buf bytes.Buffer
			if err := WriteDelta(&buf, d); err != nil {
				t.Fatalf("re-encode of decoded delta failed: %v", err)
			}
			d2, _, err := ReadDelta(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(normalizeDelta(d), normalizeDelta(d2)) {
				t.Fatal("decode→encode→decode is not a fixed point")
			}
		}

		// Structured round trip: carve edges out of the raw bytes.
		var sd graph.Delta
		for i := 0; i+8 <= len(data) && len(sd.Add) < 64; i += 8 {
			sd.Add = append(sd.Add, graph.Edge{
				Src: int32(binary.LittleEndian.Uint32(data[i:])),
				Dst: int32(binary.LittleEndian.Uint32(data[i+4:])),
			})
		}
		if len(data) > 0 {
			sd.Seed = uint64(data[0]) | uint64(len(data))<<8
		}
		var buf bytes.Buffer
		if err := WriteDelta(&buf, sd); err != nil {
			t.Fatalf("structured write failed: %v", err)
		}
		got, _, err := ReadDelta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("structured read failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeDelta(got), normalizeDelta(sd)) {
			t.Fatal("structured round trip diverged")
		}
	})
}
