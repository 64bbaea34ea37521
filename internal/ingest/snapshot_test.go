package ingest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func snapshotFixture(t testing.TB, model graph.Model) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6), model, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g := snapshotFixture(t, model)
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g, 5); err != nil {
			t.Fatal(err)
		}
		if got, want := int64(buf.Len()), SnapshotSize(g); got != want {
			t.Fatalf("%v: snapshot size %d, SnapshotSize predicts %d", model, got, want)
		}
		g2, info, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(g, g2) {
			t.Fatalf("%v: round trip not byte-identical", model)
		}
		if info.Model != model || info.Seed != 5 || info.N != g.N || info.M != g.M || info.Version != SnapshotVersion {
			t.Fatalf("header metadata wrong: %+v", info)
		}
	}
}

func TestSnapshotCanonicalBytes(t *testing.T) {
	g := snapshotFixture(t, graph.IC)
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, g, 5); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, g, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot encoding is not canonical")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	g := snapshotFixture(t, graph.LT)
	path := filepath.Join(t.TempDir(), "g"+SnapshotExt)
	if err := WriteSnapshotFile(path, g, 5); err != nil {
		t.Fatal(err)
	}
	g2, info, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(g, g2) {
		t.Fatal("file round trip not byte-identical")
	}
	if info.Bytes != SnapshotSize(g) {
		t.Fatalf("info.Bytes = %d, want %d", info.Bytes, SnapshotSize(g))
	}
}

func TestSnapshotCorruption(t *testing.T) {
	g := snapshotFixture(t, graph.IC)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g, 5); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	payloadBase := int(alignUp(tableEnd(len(snapSections(g)))))

	corrupt := func(off int, flip byte) []byte {
		c := append([]byte(nil), valid...)
		c[off] ^= flip
		return c
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"bad magic", corrupt(0, 0xff), "bad magic"},
		{"wrong version", corrupt(8, 0x02), "version"},
		{"header bit flip", corrupt(24, 0x01), "checksum"}, // n changed → header crc fails first
		{"table bit flip", corrupt(headerSize+8, 0x01), "checksum"},
		{"payload bit flip", corrupt(payloadBase+3, 0x40), "section 0 checksum"},
		{"last payload bit flip", corrupt(len(valid)-1, 0x40), "checksum"},
		{"truncated header", valid[:20], "truncated"},
		{"truncated payload", valid[:len(valid)-100], "truncated"},
		{"empty", nil, "truncated"},
	}
	for _, c := range cases {
		_, _, err := ReadSnapshot(bytes.NewReader(c.data))
		if err == nil {
			t.Errorf("%s: corruption not detected", c.name)
			continue
		}
		if c.want != "" && !bytes.Contains([]byte(err.Error()), []byte(c.want)) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSnapshotOfIngestedGraph(t *testing.T) {
	// The full loop the CI datasets job exercises: text → ingest →
	// snapshot → reload is byte-identical to the ingested graph.
	g, _, err := Bytes([]byte(messyEdgeList), Options{Workers: 4, Model: graph.LT, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, g, 9); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(g, g2) {
		t.Fatal("ingest→snapshot→reload changed the graph")
	}
}

// checkSectionsAgainstEncoder holds a written container image against
// the element-wise little-endian encoder, the oracle for the in-place
// writer: every section's bytes and the CRC its table entry records
// must be what encoding the section element by element produces.
func checkSectionsAgainstEncoder(t testing.TB, image []byte, secs []section) {
	t.Helper()
	end := alignUp(tableEnd(len(secs)))
	for i, sec := range secs {
		var want bytes.Buffer
		if err := sec.encodeTo(&want); err != nil {
			t.Fatal(err)
		}
		off := place(end, sec.byteLen())
		end = off + sec.byteLen()
		if got := image[off:end]; !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("section %d: written bytes differ from the element-wise encoding (%d vs %d bytes)", i, len(got), want.Len())
		}
		entry := image[headerSize+i*entrySize:]
		if got, want := binary.LittleEndian.Uint32(entry[24:]), crc32.Checksum(want.Bytes(), castagnoli); got != want {
			t.Fatalf("section %d: table CRC %#x, element-wise encoding has %#x", i, got, want)
		}
	}
}

// TestSnapshotWriterMatchesElementEncoder pins the .imsnap bytes to the
// element-wise encoder for both models (LT adds the InAccum section, IC
// leaves it empty) and gates the writer's allocations: it checksums and
// writes each array in place, so what it allocates — the header, the
// layout, one write buffer — does not grow with the graph.
func TestSnapshotWriterMatchesElementEncoder(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g, err := gen.RMAT(gen.DefaultRMAT(9, 6), model, 3)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g, 3); err != nil {
			t.Fatal(err)
		}
		checkSectionsAgainstEncoder(t, buf.Bytes(), snapSections(g))

		allocs := testing.AllocsPerRun(10, func() {
			if err := WriteSnapshot(io.Discard, g, 3); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Fatalf("%v: WriteSnapshot allocates %.0f objects per write, want at most 4", model, allocs)
		}
	}
}
