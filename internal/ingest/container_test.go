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
// codec (the .impool ones re-recorded at format version 5): a codec
// change that moves a single byte of any image fails here, where the
// canonicality tests (same build, same bytes) cannot.
func TestContainerGoldenBytes(t *testing.T) {
	want := map[string]string{
		"imsnap/IC":           "6792fa55bfc9c99240fc7490ae4beeb4284ac2b64f7e67032c378f6d767b7044",
		"imsnap/LT":           "9621d7685b648a8103fb588ecd935c830284e3393a014dd80a5cc6d46568b459",
		"imdelta/implicit":    "a73ee1d1c207eac37bc3c81d7cc9c5999e82dfed2518e72842caca25f5193715",
		"imdelta/explicit":    "94b92b122165eef48bafa42eab9f692e8d9bdc27d64f9cb2b89ed04e1bfc54cc",
		"imdelta/empty":       "3074790baa5a2d9c770555fce4581752fdcefb1c4faf62b62e00484d3652085c",
		"impool/lists":        "8841dddc4845ae8f2c75416ba23a9541492af84222ea7a03041f9f1a85fc7b42",
		"impool/bitmaps":      "dee6d3e8af5dd0d40c36cea085b76b888544e333bfb76fb42a8670a017e39551",
		"impool/unindexed":    "631840203a52a0a83e73a980461cd16dc308534370fcc8fd0075bd6923fad73b",
		"impool/empty shards": "6680f59c2e4273b35879724b5779b45d9c396703816eb218b7783a7da96020b3",
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

// TestPoolVersion5RetainsContent pins how .impool version 5 grew out of
// version 4: the 16 shards' Sizes, ListData and BitmapData sections became
// one of each in set-id order, the metadata block lost its shard-count
// word, and nothing else moved. want holds the sha256 of each of the 8
// section payloads, in file order, recorded from the version-4 images of
// the same fixtures: the metadata block's first 6 words, the three set
// sections de-striped into id order, and the index and memo sections as
// version 4 stored them.
func TestPoolVersion5RetainsContent(t *testing.T) {
	want := map[string][poolSectionN]string{
		"impool/lists": {
			"397592d99815fd51c9e622713ceceec8a51eee20889834f5eedb8193304cd1ee",
			"e1cee89055067d13209073831eb937437ddbc7f97e7a77b077ffda26fecefaf7",
			"8d13d556af2f17d6b369cb5f37924e016fad452a5427b67433850fa17bcf186e",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"41124916b0e7db13bde9ab497fe4953bf821266a7614cd6a8b376782d5361cf3",
			"b90e9b0a40b96a3a94ca51d96143a6b170b41983f63af445605ce7a3ecc99844",
			"f5c7bd9149b53e9b25d64fbf49c4f23e20ecd0c1211b1e3a09700e56d648b90f",
			"69d0990549f2f14c9ecb1a7c76d4b7a16302db9057d7db1afac57d5f57dbaad4",
		},
		"impool/bitmaps": {
			"397592d99815fd51c9e622713ceceec8a51eee20889834f5eedb8193304cd1ee",
			"e1cee89055067d13209073831eb937437ddbc7f97e7a77b077ffda26fecefaf7",
			"a731de31dc5b0e0325e220f797ba34d225aca05cb12d8b4406a400e5359c5750",
			"17c4453241c76f6f86298a5b15b9594a83d2d2dc136293572375e60ce4b2060c",
			"41124916b0e7db13bde9ab497fe4953bf821266a7614cd6a8b376782d5361cf3",
			"b90e9b0a40b96a3a94ca51d96143a6b170b41983f63af445605ce7a3ecc99844",
			"f5c7bd9149b53e9b25d64fbf49c4f23e20ecd0c1211b1e3a09700e56d648b90f",
			"69d0990549f2f14c9ecb1a7c76d4b7a16302db9057d7db1afac57d5f57dbaad4",
		},
		"impool/unindexed": {
			"397592d99815fd51c9e622713ceceec8a51eee20889834f5eedb8193304cd1ee",
			"e1cee89055067d13209073831eb937437ddbc7f97e7a77b077ffda26fecefaf7",
			"8d13d556af2f17d6b369cb5f37924e016fad452a5427b67433850fa17bcf186e",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		},
		"impool/empty shards": {
			"349ddee1b4b32f27419be8be451769aa8a57a7377cb5ea62a47e0d184907bdfc",
			"694be54e022aaadd2f039689bbaf74648d94dec95150a5bb968900e22fd3b768",
			"0a91ad7044998ad53e2dce6c0bb8bc6907bef2472817c0c6c6a4fc585377dc66",
			"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			"c1e7ef5f24ca97bfcea5ad3443f410852fa860ebb206e0f3cb3c85ce419d6674",
			"70b1138e3b193343678910605df545cc26c5366ff3e032732b3863bb6cd2cea4",
			"38b016981b12725a5b2d265f31800aebeaf48aafef69b1b3d99eb4a7943d218a",
			"29fb729aa4c43733a224ff0f5a96c040255d506fa3719813f21009ff994312f0",
		},
	}
	le := binary.LittleEndian
	seen := 0
	for _, im := range containerImages(t) {
		golden, ok := want[im.name]
		if !ok {
			continue
		}
		seen++
		if n := le.Uint32(im.data[40:]); n != poolSectionN {
			t.Fatalf("%s: %d sections, version 5 has %d", im.name, n, poolSectionN)
		}
		for i := range poolSectionN {
			e := im.data[headerSize+i*entrySize:]
			off, n := int64(le.Uint64(e[8:])), int64(le.Uint64(e[16:]))
			sum := sha256.Sum256(im.data[off : off+n])
			if got := hex.EncodeToString(sum[:]); got != golden[i] {
				t.Errorf("%s: section %d payload sha256 %s, recorded %s", im.name, i, got, golden[i])
			}
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
