package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
)

// goldenDeltas are the .imdelta images TestContainerGoldenBytes pins.
var goldenDeltas = []struct {
	name  string
	delta graph.Delta
}{
	{"implicit", graph.Delta{Add: []graph.Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}, Remove: []graph.Edge{{Src: 5, Dst: 6}}, Seed: 7}},
	{"explicit", graph.Delta{Add: []graph.Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}, AddProb: []float32{0.25, 0.5}, Remove: []graph.Edge{{Src: 5, Dst: 6}}, Seed: 7}},
	{"empty", graph.Delta{}},
}

type namedImage struct {
	name string // format/fixture
	data []byte
}

// containerImages writes a valid image of every fixture the goldens
// cover: .imsnap of the IC and LT fixtures, .imdelta of goldenDeltas,
// .impool of every poolShapes state.
func containerImages(t testing.TB) []namedImage {
	t.Helper()
	var out []namedImage
	add := func(name string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, namedImage{name, buf.Bytes()})
	}
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g := snapshotFixture(t, model)
		add("imsnap/"+model.String(), func(b *bytes.Buffer) error { return WriteSnapshot(b, g, 5) })
	}
	for _, d := range goldenDeltas {
		add("imdelta/"+d.name, func(b *bytes.Buffer) error { return WriteDelta(b, d.delta) })
	}
	for i, c := range poolShapes {
		st := poolShapeState(t, i)
		add("impool/"+c.name, func(b *bytes.Buffer) error { return WritePoolSnapshot(b, st) })
	}
	return out
}

// seedOtherFormats adds every fixture image of the formats other than
// own ("imsnap", "imdelta" or "impool") to a fuzz target's corpus.
func seedOtherFormats(f *testing.F, own string) {
	for _, im := range containerImages(f) {
		if !strings.HasPrefix(im.name, own+"/") {
			f.Add(im.data)
		}
	}
}

// TestContainerGoldenBytes pins the on-disk bytes of all three formats
// to sha256 digests recorded before the formats shared a container
// codec (the .impool ones re-recorded at format version 4): a codec
// change that moves a single byte of any image fails here, where the
// canonicality tests (same build, same bytes) cannot.
func TestContainerGoldenBytes(t *testing.T) {
	want := map[string]string{
		"imsnap/IC":           "6792fa55bfc9c99240fc7490ae4beeb4284ac2b64f7e67032c378f6d767b7044",
		"imsnap/LT":           "9621d7685b648a8103fb588ecd935c830284e3393a014dd80a5cc6d46568b459",
		"imdelta/implicit":    "a73ee1d1c207eac37bc3c81d7cc9c5999e82dfed2518e72842caca25f5193715",
		"imdelta/explicit":    "94b92b122165eef48bafa42eab9f692e8d9bdc27d64f9cb2b89ed04e1bfc54cc",
		"imdelta/empty":       "3074790baa5a2d9c770555fce4581752fdcefb1c4faf62b62e00484d3652085c",
		"impool/lists":        "7e14d016f805d4df9cc622cd0b5080c42daad031cd5b5bbe96afdd6a7dc490e3",
		"impool/bitmaps":      "ba68a45e089970b76356722a5d0b0bfa73ded715817928bf79832be2ef8d42ce",
		"impool/unindexed":    "fe8403362db64a3165659665d41a8537e0f8d066abe670916a092bdab657c99d",
		"impool/empty shards": "b1d2c9ca94a7c24355478c0631dfa7f686777d6ec549bc2236b0c70f832ea680",
	}
	images := containerImages(t)
	if len(images) != len(want) {
		t.Fatalf("%d images for %d goldens", len(images), len(want))
	}
	for _, im := range images {
		sum := sha256.Sum256(im.data)
		if h := hex.EncodeToString(sum[:]); h != want[im.name] {
			t.Errorf("%s: sha256 %s, golden %s", im.name, h, want[im.name])
		}
	}
}

// TestPoolVersion4RetainsSections pins how .impool version 4 grew out
// of version 3: the per-entry kind and compressed-payload sections were
// dropped, and every section version 3 kept — the metadata block, each
// shard's Sizes, ListData and BitmapData, the index and the memo — keeps
// its element size, byte length and payload CRC. The digests cover those
// three table columns of all 53 sections and were recorded from the
// version-3 images of the same fixtures, over the sections version 4
// retains. Only the table's length, and so every offset, moved.
func TestPoolVersion4RetainsSections(t *testing.T) {
	want := map[string]string{
		"impool/lists":        "075ee393979bd4c41b665a2a52529df8bc9cda0dd6825f73b4b263559836f936",
		"impool/bitmaps":      "a7b67058c075354b99812fba14b50d0ed4a6f03bc5e6b74bf91ae1b27a10667f",
		"impool/unindexed":    "5e970da01a3f7190272465ebe6790144f3dda0f05c0eb3238d9aae46870f7cf3",
		"impool/empty shards": "ce22003215c0730241759e822e06d2ea4a2b13c56f6b22d7da17a27c9769fba8",
	}
	le := binary.LittleEndian
	seen := 0
	for _, im := range containerImages(t) {
		golden, ok := want[im.name]
		if !ok {
			continue
		}
		seen++
		if n := le.Uint32(im.data[40:]); n != 53 {
			t.Fatalf("%s: %d sections, version 4 has 53", im.name, n)
		}
		entry := func(i int) []byte { return im.data[headerSize+i*entrySize:] }
		h := sha256.New()
		for i := 0; i < poolSectionN; i++ {
			e := entry(i)
			var cols [16]byte
			le.PutUint32(cols[0:], le.Uint32(e[4:]))   // element size
			le.PutUint64(cols[4:], le.Uint64(e[16:]))  // byte length
			le.PutUint32(cols[12:], le.Uint32(e[24:])) // payload CRC
			h.Write(cols[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != golden {
			t.Errorf("%s: retained sections digest %s, recorded %s", im.name, got, golden)
		}
	}
	if seen != len(want) {
		t.Fatalf("%d of %d fixtures present", seen, len(want))
	}
}

// containerReader is one public reader of a format, fed a whole image.
type containerReader struct {
	name    string
	read    func(t *testing.T, image []byte) error
	shallow bool // reads the header, the table and section 0 only
}

// TestContainerCorruption drives one table of container damage through
// every public reader of all three formats: each must refuse it with the
// format's error and a message naming what is wrong.
func TestContainerCorruption(t *testing.T) {
	_, _, pool := poolFixture(t, true, 3)
	var snap, delta, pl bytes.Buffer
	if err := WriteSnapshot(&snap, snapshotFixture(t, graph.IC), 5); err != nil {
		t.Fatal(err)
	}
	if err := WriteDelta(&delta, goldenDeltas[1].delta); err != nil {
		t.Fatal(err)
	}
	if err := WritePoolSnapshot(&pl, pool); err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		name     string
		image    []byte
		sections int
		err      error
		readers  []containerReader
	}{
		{"imsnap", snap.Bytes(), 7, snapSchema.err, []containerReader{{"ReadSnapshot", func(_ *testing.T, b []byte) error {
			_, _, err := ReadSnapshot(bytes.NewReader(b))
			return err
		}, false}}},
		{"imdelta", delta.Bytes(), 3, deltaSchema.err, []containerReader{{"ReadDelta", func(_ *testing.T, b []byte) error {
			_, _, err := ReadDelta(bytes.NewReader(b))
			return err
		}, false}}},
		{"impool", pl.Bytes(), poolSectionN, ErrPoolSnapshot, []containerReader{
			{"ReadPoolSnapshot", func(_ *testing.T, b []byte) error {
				_, _, err := ReadPoolSnapshot(bytes.NewReader(b))
				return err
			}, false},
			{"MapPoolSnapshot", func(t *testing.T, b []byte) error {
				path := filepath.Join(t.TempDir(), "p"+PoolSnapshotExt)
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
				_, _, release, err := MapPoolSnapshot(path)
				if err == nil {
					release()
				}
				return err
			}, false},
			{"ReadPoolSnapshotInfo", func(_ *testing.T, b []byte) error {
				_, err := ReadPoolSnapshotInfo(bytes.NewReader(b))
				return err
			}, true},
		}},
	}
	// Damage to the first table entry, or to the last section's, resealed
	// under a fresh header CRC so that only the table checks can see it.
	at := func(i, field int) int { return headerSize + i*entrySize + field }
	cases := []struct {
		name   string
		damage func(image []byte, n int) []byte
		want   string
		deep   bool // past section 0
	}{
		{"empty", func([]byte, int) []byte { return nil }, "truncated header", false},
		{"truncated header", func(b []byte, _ int) []byte { return b[:20] }, "truncated header", false},
		{"truncated table", func(b []byte, n int) []byte { return b[:tableEnd(n)-entrySize/2] }, "truncated header", false},
		{"truncated payload", func(b []byte, _ int) []byte { return b[:len(b)-3] }, "truncated", true},
		{"bad magic", func(b []byte, _ int) []byte { b[0] ^= 0xff; return b }, "bad magic", false},
		{"wrong version", func(b []byte, _ int) []byte { b[8]++; return b }, "unsupported version", false},
		{"header bit flip", func(b []byte, _ int) []byte { b[17] ^= 0x01; return b }, "header checksum mismatch", false},
		{"table bit flip", func(b []byte, n int) []byte { b[at(0, 8)] ^= 0x01; return b }, "header checksum mismatch", false},
		{"first payload bit flip", func(b []byte, n int) []byte { b[alignUp(tableEnd(n))] ^= 0x40; return b }, "section 0 checksum mismatch", false},
		{"last payload bit flip", func(b []byte, _ int) []byte { b[len(b)-1] ^= 0x40; return b }, "checksum mismatch", true},
		{"nonzero padding", func(b []byte, n int) []byte { b[tableEnd(n)] = 1; return b }, "nonzero padding before section 0", false},
		{"non-canonical offset", func(b []byte, n int) []byte {
			off := at(n-1, 8)
			binary.LittleEndian.PutUint64(b[off:], binary.LittleEndian.Uint64(b[off:])+64)
			rewriteHeaderCRC(b, n)
			return b
		}, "breaks canonical layout", false},
		{"wrong section count", func(b []byte, n int) []byte {
			binary.LittleEndian.PutUint32(b[40:], uint32(n+1))
			rewriteHeaderCRC(b, n)
			return b
		}, "sections, want", false},
		{"element-size mismatch", func(b []byte, n int) []byte {
			binary.LittleEndian.PutUint32(b[at(0, 4):], 2)
			rewriteHeaderCRC(b, n)
			return b
		}, "section 0 table entry mismatch", false},
		{"byte length not an element multiple", func(b []byte, n int) []byte {
			off := at(0, 16)
			binary.LittleEndian.PutUint64(b[off:], binary.LittleEndian.Uint64(b[off:])+1)
			rewriteHeaderCRC(b, n)
			return b
		}, "not a multiple of", false},
	}
	for _, f := range formats {
		for _, c := range cases {
			image := c.damage(bytes.Clone(f.image), f.sections)
			for _, r := range f.readers {
				if r.shallow && c.deep {
					continue // beyond what this reader reads
				}
				err := r.read(t, image)
				if !errors.Is(err, f.err) || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s %s via %s: got %v, want %q mentioning %q", f.name, c.name, r.name, err, f.err, c.want)
				}
			}
		}
	}
}

// allocatedBytes is testing.AllocsPerRun for bytes: the average heap
// bytes one call of f allocates.
func allocatedBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStreamReaderAllocs gates what the stream readers allocate besides
// the arrays they return: the header, the table and a few small values,
// never a buffer per section (a reader that took one chunk per section
// would spend 64 KiB on each of a pool's 52 payloads).
func TestStreamReaderAllocs(t *testing.T) {
	g := snapshotFixture(t, graph.LT)
	var snap bytes.Buffer
	if err := WriteSnapshot(&snap, g, 5); err != nil {
		t.Fatal(err)
	}
	arrays := int64(0)
	for _, s := range snapSections(g) {
		arrays += s.byteLen()
	}
	_, _, st := poolFixture(t, true, 0)
	var pool bytes.Buffer
	if err := WritePoolSnapshot(&pool, st); err != nil {
		t.Fatal(err)
	}
	var r bytes.Reader
	cases := []struct {
		name      string
		read      func() error
		arrays    int64 // bytes of what the reader returns
		maxAllocs float64
	}{
		{"ReadSnapshot", func() error {
			r.Reset(snap.Bytes())
			_, _, err := ReadSnapshot(&r)
			return err
		}, arrays, 16},
		{"ReadPoolSnapshotInfo", func() error {
			r.Reset(pool.Bytes())
			_, err := ReadPoolSnapshotInfo(&r)
			return err
		}, 0, 8},
	}
	for _, c := range cases {
		if err := c.read(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() { _ = c.read() })
		extra := allocatedBytes(20, func() { _ = c.read() }) - float64(c.arrays)
		if allocs > c.maxAllocs || extra > chunk/4 {
			t.Errorf("%s: %.0f allocations and %.0f bytes besides its arrays, want at most %.0f and %d",
				c.name, allocs, extra, c.maxAllocs, chunk/4)
		}
		t.Logf("%s: %.0f allocations, %.0f bytes besides its arrays", c.name, allocs, extra)
	}
}
