package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
)

// poolFixture runs a small warm query under the default options and
// freezes the resulting pool, returning the graph it is bound to
// alongside the state. With bitmaps the graph is a 64-vertex IC one, on
// which some sets and postings are bitmap rows; without, a 256-vertex LT
// one, on which every set and every posting is a list.
func poolFixture(t testing.TB, bitmaps bool, epoch int64) (*graph.Graph, imm.Options, *imm.PoolState) {
	t.Helper()
	model := graph.LT
	if bitmaps {
		model = graph.IC
	}
	return poolFixtureOn(t, model, epoch, func(*imm.Options) {}, imm.BatchQuery{K: 4, Epsilon: 0.5})
}

// poolFixtureWith is poolFixture's IC pool under options shape adjusts.
func poolFixtureWith(t testing.TB, epoch int64, shape func(*imm.Options)) (*graph.Graph, imm.Options, *imm.PoolState) {
	t.Helper()
	return poolFixtureAsking(t, epoch, shape, imm.BatchQuery{K: 4, Epsilon: 0.5})
}

// memoQueries are three distinct shapes: a pool that answered them all
// remembers about a dozen selections.
var memoQueries = []imm.BatchQuery{{K: 4, Epsilon: 0.5}, {K: 9, Epsilon: 0.4}, {K: 2, Epsilon: 0.7}}

// poolFixtureAsking is poolFixtureWith after queries, in order.
func poolFixtureAsking(t testing.TB, epoch int64, shape func(*imm.Options), queries ...imm.BatchQuery) (*graph.Graph, imm.Options, *imm.PoolState) {
	t.Helper()
	return poolFixtureOn(t, graph.IC, epoch, shape, queries...)
}

// fixtureGraph is the graph poolFixture freezes model's pool on.
func fixtureGraph(t testing.TB, model graph.Model) *graph.Graph {
	t.Helper()
	scale := 6
	if model == graph.LT {
		scale = 8
	}
	g, err := gen.RMAT(gen.DefaultRMAT(scale, 5), model, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// poolFixtureOn is poolFixtureAsking on model's fixture graph.
func poolFixtureOn(t testing.TB, model graph.Model, epoch int64, shape func(*imm.Options), queries ...imm.BatchQuery) (*graph.Graph, imm.Options, *imm.PoolState) {
	t.Helper()
	g := fixtureGraph(t, model)
	opt := imm.Defaults()
	opt.Workers = 2
	opt.Seed = 11
	opt.MaxTheta = 4000
	shape(&opt)
	we, err := imm.NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := we.AnswerBatch(opt, []imm.BatchQuery{q}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := we.Freeze(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if (st.Count == 0) != (len(queries) == 0) {
		t.Fatalf("fixture froze %d sets after %d queries", st.Count, len(queries))
	}
	return g, opt, st
}

func i32eq(a, b []int32) bool {
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

// equalPoolState compares two states field by field, treating nil and
// empty slices as equal (the reader yields nil for empty sections).
func equalPoolState(a, b *imm.PoolState) bool {
	if a.N != b.N || a.M != b.M || a.Model != b.Model || a.Epoch != b.Epoch ||
		a.GraphSum != b.GraphSum || a.Seed != b.Seed ||
		a.Count != b.Count || a.TotalMembers != b.TotalMembers {
		return false
	}
	if !slices.Equal(a.PostIdx, b.PostIdx) || !i32eq(a.PostData, b.PostData) || !slices.Equal(a.PostRows, b.PostRows) {
		return false
	}
	if !slices.EqualFunc(a.Memo, b.Memo, func(x, y imm.PoolMemoEntry) bool {
		return x.Limit == y.Limit && x.K == y.K && x.Workers == y.Workers && x.Base == y.Base &&
			slices.Equal(x.Seeds, y.Seeds) && x.Coverage == y.Coverage && x.Ops == y.Ops
	}) {
		return false
	}
	return i32eq(a.Sizes, b.Sizes) && i32eq(a.ListData, b.ListData) && slices.Equal(a.BitmapData, b.BitmapData)
}

func TestPoolSnapshotRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		bitmaps bool
	}{
		{"lists", false},
		{"adaptive", true},
	}
	for _, c := range cases {
		g, opt, st := poolFixture(t, c.bitmaps, 4)
		var buf bytes.Buffer
		if err := WritePoolSnapshot(&buf, st); err != nil {
			t.Fatalf("%s: write: %v", c.name, err)
		}
		if got, want := int64(buf.Len()), PoolSnapshotSize(st); got != want {
			t.Fatalf("%s: snapshot is %d bytes, PoolSnapshotSize predicts %d", c.name, got, want)
		}
		got, info, err := ReadPoolSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", c.name, err)
		}
		if !equalPoolState(st, got) {
			t.Fatalf("%s: round trip changed the pool state", c.name)
		}
		if info.Seed != st.Seed || info.N != st.N || info.M != st.M || info.Epoch != 4 ||
			info.Count != st.Count || info.TotalMembers != st.TotalMembers ||
			info.Model != st.Model || info.GraphSum != st.GraphSum ||
			info.Bytes != int64(buf.Len()) {
			t.Fatalf("%s: info %+v does not match state", c.name, info)
		}
		if bitmaps := len(st.BitmapData) > 0; bitmaps != c.bitmaps {
			t.Fatalf("%s: fixture holds bitmap rows: %v", c.name, bitmaps)
		}

		// Canonical: a second encode of the same state is byte-identical.
		var buf2 bytes.Buffer
		if err := WritePoolSnapshot(&buf2, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: encoding is not canonical", c.name)
		}

		// The decoded state must bind and thaw against its own graph.
		if err := ValidatePoolGraph(got, g, 4); err != nil {
			t.Fatalf("%s: decoded state rejected by its own graph: %v", c.name, err)
		}
		if _, err := imm.ThawWarmEngine(g, opt, got); err != nil {
			t.Fatalf("%s: decoded state failed to thaw: %v", c.name, err)
		}
	}
}

func TestPoolSnapshotFileAndInfo(t *testing.T) {
	_, _, st := poolFixture(t, true, 2)
	path := filepath.Join(t.TempDir(), "p"+PoolSnapshotExt)
	if err := WritePoolSnapshotFile(path, st); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadPoolSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPoolState(st, got) {
		t.Fatal("file round trip changed the pool state")
	}
	info, err := ReadPoolSnapshotInfoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 2 || info.Count != st.Count || info.Seed != st.Seed ||
		info.Bytes != PoolSnapshotSize(st) {
		t.Fatalf("header-only info %+v does not match state", info)
	}
}

func TestPoolSnapshotMmap(t *testing.T) {
	g, opt, st := poolFixture(t, true, 0)
	path := filepath.Join(t.TempDir(), "p"+PoolSnapshotExt)
	if err := WritePoolSnapshotFile(path, st); err != nil {
		t.Fatal(err)
	}
	mapped, info, err := MapPoolSnapshotFile(path)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	if !equalPoolState(st, mapped) {
		t.Fatal("mapped state differs from frozen state")
	}
	if info.Count != st.Count {
		t.Fatalf("mapped info %+v wrong", info)
	}
	// The mapped (possibly aliased, read-only) state must thaw into a
	// working engine: this is the promotion path.
	if _, err := imm.ThawWarmEngine(g, opt, mapped); err != nil {
		t.Fatalf("mapped state failed to thaw: %v", err)
	}
}

// TestMappedPoolNeverWritten holds the engine to the mapping's PROT_READ:
// pools thawed from a mapped .impool are extended past the file's Count,
// repaired after a delta — once after the extension, once straight over
// the mapped arrays — and frozen and written again, with memory faults
// turned into panics, and every answer on the way equals a cold Run's.
func TestMappedPoolNeverWritten(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	g, opt, st := poolFixture(t, true, 0)
	path := filepath.Join(t.TempDir(), "p"+PoolSnapshotExt)
	if err := WritePoolSnapshotFile(path, st); err != nil {
		t.Fatal(err)
	}
	mapped, _, release, err := MapPoolSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	d := graph.Delta{Add: []graph.Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}, Seed: 7}
	for v := int32(0); v < g.N && len(d.Remove) < 3; v++ {
		if g.OutIndex[v] < g.OutIndex[v+1] {
			d.Remove = append(d.Remove, graph.Edge{Src: v, Dst: g.OutEdges[g.OutIndex[v]]})
		}
	}
	ng, drep, err := graph.ApplyDelta(g, d, graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	big := imm.BatchQuery{K: 12, Epsilon: 0.3}
	for _, extend := range []bool{true, false} {
		eng, err := imm.ThawWarmEngine(g, opt, mapped)
		if err != nil {
			t.Fatal(err)
		}
		answer := func(label string, g *graph.Graph, q imm.BatchQuery) {
			t.Helper()
			o := opt
			o.K, o.Epsilon = q.K, q.Epsilon
			rep, err := eng.AnswerBatch(o, []imm.BatchQuery{q})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := imm.Run(g, o)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Answers[0].Res; !slices.Equal(got.Seeds, cold.Seeds) || got.Theta != cold.Theta ||
				got.Coverage != cold.Coverage || got.SetStats != cold.SetStats || got.Pool != cold.Pool {
				t.Fatalf("extend=%v, %s: answered %v (θ %d), cold %v (θ %d)", extend, label, got.Seeds, got.Theta, cold.Seeds, cold.Theta)
			}
		}
		if extend {
			answer("past the file's sets", g, big)
			if eng.PhysicalSets() <= st.Count {
				t.Fatalf("the query did not extend the pool past its %d sets", st.Count)
			}
		}
		rr, err := eng.ApplyDelta(ng, drep)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Resampled == 0 || rr.FullResample {
			t.Fatalf("extend=%v: the delta should resample some sets in place, got %+v", extend, rr)
		}
		answer("after the delta", ng, big)
		frozen, err := eng.Freeze(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := WritePoolSnapshot(io.Discard, frozen); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolSnapshotMmapRejectsCorruption(t *testing.T) {
	_, _, st := poolFixture(t, false, 0)
	var buf bytes.Buffer
	if err := WritePoolSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	dir := t.TempDir()

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-1] ^= 0x40
	for name, data := range map[string][]byte{
		"flip.impool":  flipped,
		"trunc.impool": raw[:len(raw)-64],
		"tiny.impool":  raw[:16],
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapPoolSnapshotFile(path); !errors.Is(err, ErrPoolSnapshot) {
			t.Fatalf("%s: got %v, want ErrPoolSnapshot", name, err)
		}
	}
}

// rewriteHeaderCRC recomputes the checksum of a header and its table of
// sections entries in place, so a test can alter header fields and
// still reach the deeper checks.
func rewriteHeaderCRC(data []byte, sections int) {
	crc := crc32.Checksum(data[:44], castagnoli)
	crc = crc32.Update(crc, castagnoli, data[headerSize:tableEnd(sections)])
	binary.LittleEndian.PutUint32(data[44:], crc)
}

// rewriteMetaWord alters one int64 of the metadata section and repairs
// the section CRC in its table entry plus the header CRC, so only the
// semantic metadata check can reject the result.
func rewriteMetaWord(data []byte, word int, v int64) { rewriteSectionWord(data, 0, word, v) }

// rewriteSectionWord is rewriteMetaWord for any int64 section.
func rewriteSectionWord(data []byte, sec, word int, v int64) {
	le := binary.LittleEndian
	e := data[headerSize+sec*entrySize:]
	off, n := int64(le.Uint64(e[8:])), int64(le.Uint64(e[16:]))
	le.PutUint64(data[off+int64(8*word):], uint64(v))
	le.PutUint32(e[24:], crc32.Checksum(data[off:off+n], castagnoli))
	rewriteHeaderCRC(data, poolSectionN)
}

// TestPoolSnapshotCorruption covers the header words and metadata the
// pool schema refuses; the container's own cases (truncation, magic,
// version, bit flips, table layout) are TestContainerCorruption's.
func TestPoolSnapshotCorruption(t *testing.T) {
	_, _, st := poolFixture(t, true, 3)
	var buf bytes.Buffer
	if err := WritePoolSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(fn func(data []byte)) []byte {
		c := append([]byte(nil), valid...)
		fn(c)
		return c
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"version 1", mutate(func(d []byte) { binary.LittleEndian.PutUint32(d[8:], 1) }), "unsupported version 1"},
		{"unknown flags", mutate(func(d []byte) {
			d[12] |= 0x04
			rewriteHeaderCRC(d, poolSectionN)
		}), "unknown flags"},
		{"version 3's compressed-kind flag", mutate(func(d []byte) {
			d[12] |= 0x01
			rewriteHeaderCRC(d, poolSectionN)
		}), "unknown flags 0x1"},
		{"version 6's adaptive flag", mutate(func(d []byte) {
			d[12] |= 0x02
			rewriteHeaderCRC(d, poolSectionN)
		}), "unknown flags 0x2"},
		{"section count mismatch", mutate(func(d []byte) {
			binary.LittleEndian.PutUint32(d[40:], 53)
			rewriteHeaderCRC(d, poolSectionN)
		}), "53 sections, want 9"},
		{"unknown model", mutate(func(d []byte) { rewriteMetaWord(d, 4, 42) }), "model"},
		{"negative members", mutate(func(d []byte) { rewriteMetaWord(d, 2, -1) }), "negative"},
		{"member sum mismatch", mutate(func(d []byte) { rewriteMetaWord(d, 2, st.TotalMembers+1) }), "member sum"},
	}
	for _, c := range cases {
		_, _, err := ReadPoolSnapshot(bytes.NewReader(c.data))
		if !errors.Is(err, ErrPoolSnapshot) {
			t.Errorf("%s: got %v, want ErrPoolSnapshot", c.name, err)
			continue
		}
		if c.want != "" && !bytes.Contains([]byte(err.Error()), []byte(c.want)) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		// The header-only info reader must reject header/meta damage the
		// same way (member sums are checked against payloads it never reads).
		if _, err := ReadPoolSnapshotInfo(bytes.NewReader(c.data)); err == nil && c.name != "member sum mismatch" {
			t.Errorf("%s: info reader accepted corrupt header", c.name)
		}
	}
}

// TestPoolSnapshotIndexValidation pins the audit of the pool's one
// inverted index: a state whose bytes are intact (every checksum holds)
// but whose index is not a well-formed CSR over the pool is refused by
// both readers.
func TestPoolSnapshotIndexValidation(t *testing.T) {
	_, _, st := poolFixture(t, false, 0)
	n := int(st.N)
	// A vertex with at least two postings, and the last one with any.
	two, last := -1, -1
	for v := 0; v < n; v++ {
		if st.PostIdx[v+1]-st.PostIdx[v] >= 2 && two < 0 {
			two = v
		}
		if st.PostIdx[v+1] > st.PostIdx[v] {
			last = v
		}
	}
	if two < 0 {
		t.Fatal("fixture has no vertex in two sets")
	}
	cases := []struct {
		name   string
		mutate func(idx []int64, data []int32) ([]int64, []int32)
		want   string
	}{
		{"offsets start past zero", func(idx []int64, data []int32) ([]int64, []int32) { idx[0] = 1; return idx, data }, "span"},
		{"offsets decrease", func(idx []int64, data []int32) ([]int64, []int32) {
			idx[two+1] = idx[two] - 1
			return idx, data
		}, "decrease"},
		{"offset past the postings", func(idx []int64, data []int32) ([]int64, []int32) {
			idx[last] = int64(len(data)) + 1
			return idx, data
		}, "overrun"},
		{"offsets stop short", func(idx []int64, data []int32) ([]int64, []int32) { idx[n]--; return idx, data }, "span"},
		{"id beyond the pool", func(idx []int64, data []int32) ([]int64, []int32) {
			data[idx[last+1]-1] = int32(st.Count)
			return idx, data
		}, "out of range"},
		{"negative id", func(idx []int64, data []int32) ([]int64, []int32) { data[idx[two]] = -1; return idx, data }, "out of range"},
		{"unsorted segment", func(idx []int64, data []int32) ([]int64, []int32) {
			lo := idx[two]
			data[lo], data[lo+1] = data[lo+1], data[lo]
			return idx, data
		}, "unsorted"},
		{"duplicated id", func(idx []int64, data []int32) ([]int64, []int32) {
			data[idx[two]+1] = data[idx[two]]
			return idx, data
		}, "duplicated"},
		{"a posting short of the members", func(idx []int64, data []int32) ([]int64, []int32) {
			for v := last + 1; v <= n; v++ {
				idx[v]--
			}
			return idx, data[:len(data)-1]
		}, "span"},
		{"offsets without postings", func(idx []int64, data []int32) ([]int64, []int32) { return make([]int64, n+1), nil }, "span"},
		{"postings without offsets", func(idx []int64, data []int32) ([]int64, []int32) { return nil, data }, "without an offset table"},
		{"offset table of the wrong length", func(idx []int64, data []int32) ([]int64, []int32) { return idx[:n], data }, "offset bytes"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		bad := *st
		bad.PostIdx, bad.PostData = c.mutate(slices.Clone(st.PostIdx), slices.Clone(st.PostData))
		path := filepath.Join(dir, "bad"+PoolSnapshotExt)
		if err := WritePoolSnapshotFile(path, &bad); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, _, err := ReadPoolSnapshotFile(path)
		_, _, mapErr := MapPoolSnapshotFile(path)
		for _, err := range []error{err, mapErr} {
			if !errors.Is(err, ErrPoolSnapshot) || !bytes.Contains([]byte(err.Error()), []byte(c.want)) {
				t.Errorf("%s: got %v, want ErrPoolSnapshot mentioning %q", c.name, err, c.want)
			}
		}
	}

	// A pool of sets freezes with its index: a v7 image without one is
	// refused. Every checksum holds.
	unindexed := *st
	unindexed.PostIdx, unindexed.PostData, unindexed.PostRows = nil, nil, nil
	path := filepath.Join(dir, "unindexed"+PoolSnapshotExt)
	if err := WritePoolSnapshotFile(path, &unindexed); err != nil {
		t.Fatal(err)
	}
	_, _, readErr := ReadPoolSnapshotFile(path)
	_, _, mapErr := MapPoolSnapshotFile(path)
	for _, err := range []error{readErr, mapErr} {
		if !errors.Is(err, ErrPoolSnapshot) || !strings.Contains(err.Error(), "without an index") {
			t.Errorf("non-empty pool without an index: got %v, want ErrPoolSnapshot", err)
		}
	}

	// A pool of no sets freezes without an index; one with an (empty)
	// index would thaw and freeze back to different bytes.
	empty := *st
	empty.Count, empty.TotalMembers, empty.Memo = 0, 0, nil
	empty.Sizes, empty.ListData, empty.BitmapData = nil, nil, nil
	empty.PostIdx, empty.PostData = make([]int64, n+1), nil
	var buf bytes.Buffer
	if err := WritePoolSnapshot(&buf, &empty); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadPoolSnapshot(&buf); !errors.Is(err, ErrPoolSnapshot) || !strings.Contains(err.Error(), "empty pool") {
		t.Errorf("index over an empty pool: got %v, want ErrPoolSnapshot", err)
	}
}

// TestPoolSnapshotRowValidation pins the audit of the index's posting
// rows: a row whose popcount is not its vertex's count, one with a bit at
// or past the pool length, and row words the counts do not call for are
// refused by both readers, every checksum intact.
func TestPoolSnapshotRowValidation(t *testing.T) {
	_, _, st := poolFixtureWith(t, 0, func(opt *imm.Options) { opt.MaxTheta = 300 })
	words := (st.Count + 63) / 64
	if len(st.PostRows) == 0 || st.Count%64 == 0 {
		t.Fatalf("fixture holds %d row words over %d sets", len(st.PostRows), st.Count)
	}
	last := int(words - 1) // the first row's last word, which ends at the pool length
	top := uint64(1)<<(st.Count%64) - 1
	if st.PostRows[last]&top == 0 {
		t.Fatal("fixture's first row has no set in its last word")
	}
	cases := []struct {
		name   string
		mutate func(rows []uint64) []uint64
		want   string
	}{
		{"a bit short of the count", func(rows []uint64) []uint64 { rows[last] &= rows[last] - 1; return rows }, "popcount"},
		{"a bit past the pool", func(rows []uint64) []uint64 {
			rows[last] = rows[last]&(rows[last]-1) | (top + 1)
			return rows
		}, "past"},
		{"a row too many", func(rows []uint64) []uint64 { return append(rows, rows[:words]...) }, "larger than the counts"},
		{"a row too few", func(rows []uint64) []uint64 { return rows[:len(rows)-int(words)] }, "overrun"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		bad := *st
		bad.PostRows = c.mutate(slices.Clone(st.PostRows))
		path := filepath.Join(dir, "bad"+PoolSnapshotExt)
		if err := WritePoolSnapshotFile(path, &bad); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, _, err := ReadPoolSnapshotFile(path)
		_, _, mapErr := MapPoolSnapshotFile(path)
		for _, err := range []error{err, mapErr} {
			if !errors.Is(err, ErrPoolSnapshot) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: got %v, want ErrPoolSnapshot mentioning %q", c.name, err, c.want)
			}
		}
	}
}

// TestPoolSnapshotSizeAcrossThreshold pins that a set's size names its
// representation: a Sizes entry moved across the density threshold —
// every checksum intact, the member total adjusted to match — reads its
// payload from the other blob, which both readers refuse with
// ErrPoolSnapshot and ThawWarmEngine, handed the same state in memory,
// with imm.ErrPoolIncompatible, each naming a set at or after the moved
// one (every set before it reads what it did).
func TestPoolSnapshotSizeAcrossThreshold(t *testing.T) {
	g, opt, st := poolFixture(t, true, 0)
	policy := imm.PolicyFromOptions(opt)
	dense := int32(math.Ceil(policy.DensityThreshold * float64(st.N))) // the smallest bitmap row
	if !policy.Dense(st.N, int(dense)) || policy.Dense(st.N, int(dense-1)) {
		t.Fatalf("threshold size %d is not where the policy switches", dense)
	}
	cases := []struct {
		name    string
		isDense bool  // the representation of the entry moved
		to      int32 // its new size
	}{
		{"list moved up", false, dense},
		{"bitmap moved down", true, dense - 1},
	}
	dir := t.TempDir()
	setID := regexp.MustCompile(`\bset (\d+) `)
	for _, c := range cases {
		i := slices.IndexFunc(st.Sizes, func(size int32) bool { return policy.Dense(st.N, int(size)) == c.isDense })
		if i < 0 {
			t.Fatalf("%s: fixture holds no such set", c.name)
		}
		bad := *st
		sizes := slices.Clone(st.Sizes)
		bad.TotalMembers += int64(c.to - sizes[i])
		sizes[i] = c.to
		bad.Sizes = sizes
		path := filepath.Join(dir, "bad"+PoolSnapshotExt)
		if err := WritePoolSnapshotFile(path, &bad); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		names := func(err error) bool {
			m := setID.FindStringSubmatch(err.Error())
			if m == nil {
				return false
			}
			id, _ := strconv.ParseInt(m[1], 10, 64)
			return id >= int64(i) && id < st.Count
		}
		_, _, readErr := ReadPoolSnapshotFile(path)
		_, _, release, mapErr := MapPoolSnapshot(path)
		if mapErr == nil {
			release()
		}
		for _, err := range []error{readErr, mapErr} {
			if !errors.Is(err, ErrPoolSnapshot) || !names(err) {
				t.Errorf("%s: got %v, want ErrPoolSnapshot naming a set from %d on", c.name, err, i)
			}
		}
		if _, err := imm.ThawWarmEngine(g, opt, &bad); !errors.Is(err, imm.ErrPoolIncompatible) || !names(err) {
			t.Errorf("%s: thaw got %v, want ErrPoolIncompatible naming a set from %d on", c.name, err, i)
		}
	}
}

// TestPoolSnapshotMemoValidation pins the audit of the frozen selection
// memo: a memo whose bytes are intact (every checksum holds) but which is
// not a set of selections this pool could have run is refused by both
// readers with ErrPoolSnapshot, and by ThawWarmEngine — handed the same
// state in memory — with imm.ErrPoolIncompatible, each naming the defect.
func TestPoolSnapshotMemoValidation(t *testing.T) {
	g, opt, st := poolFixtureAsking(t, 0, func(*imm.Options) {}, memoQueries...)
	n := int(st.N)
	if len(st.Memo) < 2 || st.Memo[0].K < 2 {
		t.Fatalf("fixture memo: %d entries", len(st.Memo))
	}
	// A k=40 selection of vertices 0..39: valid alone, two exceed N=64.
	wide := imm.PoolMemoEntry{Limit: 1, K: 40, Workers: 1, Coverage: 1, Ops: 1}
	for v := int32(0); v < 40; v++ {
		wide.Seeds = append(wide.Seeds, v)
	}
	if 2*len(wide.Seeds) <= n {
		t.Fatalf("n=%d: two 40-seed entries fit", n)
	}
	entry := func(fn func(e *imm.PoolMemoEntry)) func([]imm.PoolMemoEntry) []imm.PoolMemoEntry {
		return func(m []imm.PoolMemoEntry) []imm.PoolMemoEntry { fn(&m[0]); return m }
	}
	cases := []struct {
		name   string
		mutate func([]imm.PoolMemoEntry) []imm.PoolMemoEntry
		want   string
	}{
		{"seed beyond the graph", entry(func(e *imm.PoolMemoEntry) { e.Seeds[0] = int32(n) }), "out of range"},
		{"negative seed", entry(func(e *imm.PoolMemoEntry) { e.Seeds[0] = -1 }), "out of range"},
		{"duplicate seed", entry(func(e *imm.PoolMemoEntry) { e.Seeds[1] = e.Seeds[0] }), "duplicate seed"},
		{"a seed short of k", entry(func(e *imm.PoolMemoEntry) { e.Seeds = e.Seeds[:len(e.Seeds)-1] }), "seed count"},
		{"a seed past k", entry(func(e *imm.PoolMemoEntry) { e.K-- }), "seed count"},
		{"limit 0", entry(func(e *imm.PoolMemoEntry) { e.Limit = 0 }), "view limit"},
		{"limit past the pool", entry(func(e *imm.PoolMemoEntry) { e.Limit = st.Count + 1 }), "view limit"},
		{"k 0", entry(func(e *imm.PoolMemoEntry) { e.K, e.Seeds = 0, nil }), "k 0"},
		{"workers 0", entry(func(e *imm.PoolMemoEntry) { e.Workers = 0 }), "workers 0"},
		{"17 entries", func(m []imm.PoolMemoEntry) []imm.PoolMemoEntry {
			for len(m) < 17 {
				m = append(m, m[0])
			}
			return m
		}, "17 entries"},
		{"more seeds than vertices", func([]imm.PoolMemoEntry) []imm.PoolMemoEntry {
			return []imm.PoolMemoEntry{wide, wide}
		}, "more than 64 seeds"},
		{"NaN coverage", entry(func(e *imm.PoolMemoEntry) { e.Coverage = math.NaN() }), "coverage"},
		{"negative coverage", entry(func(e *imm.PoolMemoEntry) { e.Coverage = -0.25 }), "coverage"},
		{"coverage past 1", entry(func(e *imm.PoolMemoEntry) { e.Coverage = 1.5 }), "coverage"},
		{"NaN ops", entry(func(e *imm.PoolMemoEntry) { e.Ops = math.NaN() }), "modeled ops"},
		{"negative ops", entry(func(e *imm.PoolMemoEntry) { e.Ops = -1 }), "modeled ops"},
		{"infinite ops", entry(func(e *imm.PoolMemoEntry) { e.Ops = math.Inf(1) }), "modeled ops"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		bad := *st
		bad.Memo = slices.Clone(st.Memo)
		for i := range bad.Memo {
			bad.Memo[i].Seeds = slices.Clone(bad.Memo[i].Seeds)
		}
		bad.Memo = c.mutate(bad.Memo)
		path := filepath.Join(dir, "bad"+PoolSnapshotExt)
		if err := WritePoolSnapshotFile(path, &bad); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, _, readErr := ReadPoolSnapshotFile(path)
		_, _, release, mapErr := MapPoolSnapshot(path)
		if mapErr == nil {
			release()
		}
		for _, err := range []error{readErr, mapErr} {
			if !errors.Is(err, ErrPoolSnapshot) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: got %v, want ErrPoolSnapshot mentioning %q", c.name, err, c.want)
			}
		}
		if _, err := imm.ThawWarmEngine(g, opt, &bad); !errors.Is(err, imm.ErrPoolIncompatible) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: thaw got %v, want ErrPoolIncompatible mentioning %q", c.name, err, c.want)
		}
	}

	// The one defect no state can express: a base flag other than 0 or 1.
	var buf bytes.Buffer
	if err := WritePoolSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	rewriteSectionWord(data, poolSecMemo, 3, 2)
	if _, _, err := ReadPoolSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrPoolSnapshot) || !strings.Contains(err.Error(), "base flag 2") {
		t.Errorf("base flag 2: got %v", err)
	}
}

func TestPoolSnapshotStaleBinding(t *testing.T) {
	g, _, st := poolFixture(t, false, 0)
	var buf bytes.Buffer
	if err := WritePoolSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadPoolSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if err := ValidatePoolGraph(got, g, 0); err != nil {
		t.Fatalf("fresh snapshot rejected: %v", err)
	}

	// A snapshot frozen at epoch 0 must be rejected once the graph has
	// advanced past it — this is the delta-advanced restart scenario.
	if err := ValidatePoolGraph(got, g, 1); !errors.Is(err, ErrPoolStale) {
		t.Fatalf("epoch advance: got %v, want ErrPoolStale", err)
	}

	// Even at a matching epoch number, different graph content (here:
	// the same graph with one extra edge) must be caught by the
	// fingerprint, not served silently wrong.
	g2, _, err := graph.ApplyDelta(g, graph.Delta{Add: []graph.Edge{{Src: 0, Dst: int32(g.N - 1)}}}, graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePoolGraph(got, g2, 0); !errors.Is(err, ErrPoolStale) {
		t.Fatalf("content change: got %v, want ErrPoolStale", err)
	}

	// Stale is not corrupt: the two sentinels must stay distinct so
	// callers can regenerate on stale but alert on corrupt.
	if errors.Is(ErrPoolStale, ErrPoolSnapshot) || errors.Is(ErrPoolSnapshot, ErrPoolStale) {
		t.Fatal("ErrPoolStale and ErrPoolSnapshot must be distinct")
	}
}

// poolShapes are the shapes a pool's sections take: list and bitmap
// payloads, a pool of no sets (the one pool without an index; it answered
// no query) and a pool of five sets (named for format version 4, which
// striped sets over 16 shards and so left most of this pool's shards
// empty).
var poolShapes = []struct {
	name     string
	bitmaps  bool // the state holds bitmap rows (poolFixture's IC graph) or none (its LT graph)
	maxTheta int64
}{
	{"lists", false, 4000},
	{"bitmaps", true, 4000},
	{"no sets", false, 0},
	{"empty shards", false, 5},
}

// poolShapeState freezes the pool of poolShapes[i] at epoch 2.
func poolShapeState(t testing.TB, i int) *imm.PoolState {
	c := poolShapes[i]
	model := graph.LT
	if c.bitmaps {
		model = graph.IC
	}
	var queries []imm.BatchQuery
	if c.maxTheta > 0 {
		queries = []imm.BatchQuery{{K: 4, Epsilon: 0.5}}
	}
	_, _, st := poolFixtureOn(t, model, 2, func(opt *imm.Options) { opt.MaxTheta = c.maxTheta }, queries...)
	return st
}

// TestPoolWriterMatchesElementEncoder pins the .impool bytes to the
// element-wise encoder over every shape in poolShapes.
func TestPoolWriterMatchesElementEncoder(t *testing.T) {
	for i, c := range poolShapes {
		st := poolShapeState(t, i)
		bitmaps, short := len(st.BitmapData) > 0, st.Count < 16
		if bitmaps != c.bitmaps || short != (c.maxTheta < 16) || (st.PostIdx == nil) != (st.Count == 0) {
			t.Fatalf("%s: fixture lacks its shape (bitmap rows=%v, %d sets)", c.name, bitmaps, st.Count)
		}
		var buf bytes.Buffer
		if err := WritePoolSnapshot(&buf, st); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkSectionsAgainstEncoder(t, buf.Bytes(), poolPayloads(st))
	}
}

// FuzzPoolSnapshotRoundTrip feeds arbitrary bytes to the pool-snapshot
// reader. It must reject garbage with a typed error — never panic or
// over-allocate — and any accepted input must re-encode to its own
// bytes and re-decode to the same state. Every accepted input is also
// thawed on the fixture graph of its model (poolFixture's two) under the
// default options and its own seed: the thaw must never panic, may refuse
// only with imm.ErrPoolIncompatible, and an engine it builds must freeze
// and write back to the input's bytes.
func FuzzPoolSnapshotRoundTrip(f *testing.F) {
	graphs := map[graph.Model]*graph.Graph{graph.IC: fixtureGraph(f, graph.IC), graph.LT: fixtureGraph(f, graph.LT)}
	for _, bitmaps := range []bool{false, true} {
		_, _, st := poolFixture(f, bitmaps, 1)
		var buf bytes.Buffer
		if err := WritePoolSnapshot(&buf, st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2]) // truncation seed
	}
	f.Add([]byte("IMPOOL\x1a\x00 not a real pool snapshot"))
	f.Add([]byte{})
	_, _, empty := poolFixtureOn(f, graph.IC, 1, func(*imm.Options) {}) // the one pool without an index
	var buf bytes.Buffer
	if err := WritePoolSnapshot(&buf, empty); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, shape := range []func(*imm.Options){
		func(opt *imm.Options) { opt.MaxTheta = 5 },  // shards without a set
		func(opt *imm.Options) { opt.K = 12 },        // bitmap rows
		func(opt *imm.Options) { opt.MaxTheta = 17 }, // one shard with two
	} {
		_, _, st := poolFixtureWith(f, 1, shape)
		var buf bytes.Buffer
		if err := WritePoolSnapshot(&buf, st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Vertices in many sets keep rows of postings, the others lists.
	if _, _, st := poolFixtureWith(f, 1, func(opt *imm.Options) { opt.MaxTheta = 300 }); len(st.PostRows) == 0 || len(st.PostData) == 0 {
		f.Fatalf("posting-row fixture holds %d row words and %d list postings", len(st.PostRows), len(st.PostData))
	} else {
		var buf bytes.Buffer
		if err := WritePoolSnapshot(&buf, st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	if _, _, st := poolFixtureAsking(f, 1, func(*imm.Options) {}, memoQueries...); len(st.Memo) < 4 {
		f.Fatalf("memo fixture remembers %d selections", len(st.Memo))
	} else {
		var buf bytes.Buffer
		if err := WritePoolSnapshot(&buf, st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seedOtherFormats(f, "impool")

	f.Fuzz(func(t *testing.T, data []byte) {
		st, _, err := ReadPoolSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrPoolSnapshot) {
				t.Fatalf("rejection is not typed: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WritePoolSnapshot(&buf, st); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:len(buf.Bytes())]) {
			t.Fatal("accepted snapshot does not re-encode to its own bytes")
		}
		checkSectionsAgainstEncoder(t, buf.Bytes(), poolPayloads(st))
		st2, _, err := ReadPoolSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !equalPoolState(st, st2) {
			t.Fatal("round trip changed the pool state")
		}

		opt := imm.Defaults()
		opt.Workers = 2
		opt.Seed = st.Seed
		we, err := imm.ThawWarmEngine(graphs[st.Model], opt, st)
		if err != nil {
			if !errors.Is(err, imm.ErrPoolIncompatible) {
				t.Fatalf("thaw refusal is not typed: %v", err)
			}
			return
		}
		frozen, err := we.Freeze(st.Epoch)
		if err != nil {
			t.Fatalf("freeze of a thawed pool failed: %v", err)
		}
		var again bytes.Buffer
		if err := WritePoolSnapshot(&again, frozen); err != nil {
			t.Fatalf("write of a thawed pool failed: %v", err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatal("thawed pool does not freeze back to the input's bytes")
		}
	})
}
