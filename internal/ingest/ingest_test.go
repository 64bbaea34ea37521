package ingest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/gen"
	"repro/internal/graph"
)

// messyEdgeList is a deliberately hostile input: comments in both
// styles, blank lines, CRLF endings, sparse out-of-order ids, tabs,
// duplicate edges and a self-loop.
const messyEdgeList = "# SNAP-style comment\n" +
	"%%MatrixMarket-style banner\n" +
	"\n" +
	"900000000 7\r\n" +
	"7\t13\n" +
	"13 900000000\n" +
	"13 900000000\n" + // duplicate
	"5 5\n" + // self-loop
	"7 13\n" + // duplicate
	"   13   5   \n" +
	"5 7" // no trailing newline

func TestIngestMatchesLegacyLoaderAcrossWorkers(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		for _, undirected := range []bool{false, true} {
			legacy, err := graph.LoadEdgeList(strings.NewReader(messyEdgeList), undirected, model, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 3, 4, 8} {
				g, st, err := Bytes([]byte(messyEdgeList), Options{Workers: w, Undirected: undirected, Model: model, Seed: 7})
				if err != nil {
					t.Fatalf("model=%v undirected=%v workers=%d: %v", model, undirected, w, err)
				}
				if !graph.Equal(legacy, g) {
					t.Fatalf("model=%v undirected=%v workers=%d: graph differs from sequential reference", model, undirected, w)
				}
				if st.Edges != g.M || st.Nodes != g.N {
					t.Fatalf("stats shape %d/%d vs graph %d/%d", st.Nodes, st.Edges, g.N, g.M)
				}
				if st.SelfLoops == 0 || st.Duplicates == 0 {
					t.Fatalf("dedupe counters not populated: %+v", st)
				}
			}
		}
	}
}

func TestIngestDensificationIsSortBased(t *testing.T) {
	// Ids appear in descending order; ranks must follow the sorted id
	// set (5→0, 7→1, 900000000→2), not first appearance.
	g, _, err := Bytes([]byte("900000000 7\n7 5\n"), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.M != 2 {
		t.Fatalf("N=%d M=%d", g.N, g.M)
	}
	if !g.HasEdge(2, 1) || !g.HasEdge(1, 0) {
		t.Fatal("rank densification not by ascending raw id")
	}
}

func TestIngestGeneratedGraphAcrossWorkers(t *testing.T) {
	// A bigger, skewed graph: the R-MAT clone exercises heavy-degree
	// vertices and isolated-vertex dropping through the text round trip.
	src, err := gen.RMAT(gen.DefaultRMAT(10, 6), graph.IC, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := graph.WriteEdgeList(&sb, src); err != nil {
		t.Fatal(err)
	}
	data := []byte(sb.String())
	ref, _, err := Bytes(data, Options{Workers: 1, Model: graph.LT, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := graph.LoadEdgeList(strings.NewReader(sb.String()), false, graph.LT, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(ref, legacy) {
		t.Fatal("workers=1 pipeline differs from sequential reference")
	}
	for _, w := range []int{2, 4, 8} {
		g, _, err := Bytes(data, Options{Workers: w, Model: graph.LT, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if !graph.Equal(ref, g) {
			t.Fatalf("workers=%d: graph differs from workers=1", w)
		}
	}
}

func TestIngestFileMatchesBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.txt")
	if err := os.WriteFile(path, []byte(messyEdgeList), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, stFile, err := File(path, Options{Workers: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fromBytes, _, err := Bytes([]byte(messyEdgeList), Options{Workers: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.Equal(fromFile, fromBytes) {
		t.Fatal("File and Bytes disagree")
	}
	if stFile.Bytes != int64(len(messyEdgeList)) || stFile.MBPerSec() <= 0 {
		t.Fatalf("Bytes stat = %d, want %d (%.1f MB/s)", stFile.Bytes, len(messyEdgeList), stFile.MBPerSec())
	}
}

func TestIngestStrictDedupe(t *testing.T) {
	if _, _, err := Bytes([]byte("1 2\n1 2\n"), Options{Dedupe: DedupeStrict}); err == nil {
		t.Fatal("duplicate edge not rejected under strict dedupe")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("unhelpful strict error: %v", err)
	}
	if _, _, err := Bytes([]byte("3 3\n"), Options{Dedupe: DedupeStrict}); err == nil {
		t.Fatal("self-loop not rejected under strict dedupe")
	}
	// Clean input passes strict.
	if _, _, err := Bytes([]byte("1 2\n2 3\n"), Options{Dedupe: DedupeStrict}); err != nil {
		t.Fatal(err)
	}
}

func TestIngestErrors(t *testing.T) {
	cases := map[string]string{
		"one field":        "5\n",
		"three fields":     "10 10 57\n", // MatrixMarket size line shape
		"alpha src":        "a 2\n",
		"alpha dst":        "1 b\n",
		"negative id":      "-1 2\n",
		"trailing garbage": "1 2x\n",
		"overflow":         "99999999999999999999 1\n",
	}
	for name, input := range cases {
		if _, _, err := Bytes([]byte(input), Options{}); err == nil {
			t.Errorf("%s (%q): expected error", name, input)
		}
	}
	// Error line numbers are absolute and deterministic even when the
	// bad line lands in a later chunk.
	input := strings.Repeat("1 2\n", 40) + "bad line\n" + strings.Repeat("3 4\n", 40)
	for _, w := range []int{1, 4} {
		_, _, err := Bytes([]byte(input), Options{Workers: w})
		if err == nil || !strings.Contains(err.Error(), "line 41") {
			t.Errorf("workers=%d: error %v does not name line 41", w, err)
		}
	}
}

func TestIngestOversizedLine(t *testing.T) {
	long := strings.Repeat("9", graph.MaxLineLen+10) + " 1\n"
	if _, _, err := Bytes([]byte(long), Options{}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized line not rejected: %v", err)
	}
}

func TestIngestEmptyAndCommentOnly(t *testing.T) {
	for _, input := range []string{"", "# only\n% comments\n\n"} {
		g, st, err := Bytes([]byte(input), Options{Workers: 3})
		if err != nil {
			t.Fatalf("%q: %v", input, err)
		}
		if g.N != 0 || g.M != 0 || st.Edges != 0 {
			t.Fatalf("%q: non-empty graph %d/%d", input, g.N, g.M)
		}
	}
}

func TestIngestTooManyVertices(t *testing.T) {
	// Cheap guard check: fake a block count without building 2^31 ids is
	// not possible through the public API, so just assert sparse huge
	// ids stay in range.
	g, _, err := Bytes([]byte(fmt.Sprintf("%d 1\n", int64(1)<<40)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 2 {
		t.Fatalf("N=%d, want 2", g.N)
	}
}

// rmatEdgeList is the text of an R-MAT graph with every vertex id v
// rewritten to spread(v), so tests choose the id space.
func rmatEdgeList(t testing.TB, scale int, edgeFactor float64, spread func(v int32) int64) []byte {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, edgeFactor), graph.IC, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for u := int32(0); u < g.N; u++ {
		for _, v := range g.OutNeighbors(u) {
			fmt.Fprintf(&buf, "%d\t%d\n", spread(u), spread(v))
		}
	}
	return buf.Bytes()
}

func denseIDs(v int32) int64 { return int64(v) }

// sparseIDs scatters ids over [0, 2^62) in an order unrelated to v's.
func sparseIDs(v int32) int64 { return int64(uint64(v+1) * 0x9E3779B97F4A7C15 >> 2) }

func TestIngestChunksBeyondCoresAndLines(t *testing.T) {
	workers := []int{1, 2, 3, 8, 64, 128}
	check := func(name string, data []byte, ingest func(Options) (*graph.Graph, Stats, error)) {
		t.Helper()
		for _, model := range []graph.Model{graph.IC, graph.LT} {
			for _, undirected := range []bool{false, true} {
				want, err := graph.LoadEdgeList(bytes.NewReader(data), undirected, model, 7)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range workers {
					got, st, err := ingest(Options{Workers: w, Undirected: undirected, Model: model, Seed: 7})
					if err != nil {
						t.Fatalf("%s model=%v undirected=%v workers=%d: %v", name, model, undirected, w, err)
					}
					if !graph.Equal(want, got) {
						t.Fatalf("%s model=%v undirected=%v workers=%d: graph differs from sequential reference", name, model, undirected, w)
					}
					if st.RawEdges-st.SelfLoops-st.Duplicates != got.M {
						t.Fatalf("%s workers=%d: dedupe counters do not add up: %+v", name, w, st)
					}
				}
			}
		}
	}
	// Big enough that Bytes does not clamp 128 workers away.
	for name, spread := range map[string]func(int32) int64{"dense": denseIDs, "sparse": sparseIDs} {
		data := rmatEdgeList(t, 12, 8, spread)
		if clampWorkers(128, int64(len(data))) != 128 {
			t.Fatalf("%s fixture of %d bytes is clamped below 128 workers", name, len(data))
		}
		check(name, data, func(opt Options) (*graph.Graph, Stats, error) { return Bytes(data, opt) })
		// The generated list is clean, so strict dedupe must agree too.
		strict, _, err := Bytes(data, Options{Workers: 64, Dedupe: DedupeStrict, Seed: 7})
		loose, _, _ := Bytes(data, Options{Workers: 1, Seed: 7})
		if err != nil || !graph.Equal(strict, loose) {
			t.Fatalf("%s: strict dedupe on a clean list: err=%v", name, err)
		}
	}
	// The small fixture through the pipeline itself: far more chunks
	// than lines, most of them empty.
	data := []byte(messyEdgeList)
	check("messy", data, func(opt Options) (*graph.Graph, Stats, error) { return pipeline(data, opt, opt.Workers) })
}

func TestIngestAllocs(t *testing.T) {
	// Allocations per ingest are a small constant per worker (chunk
	// buffers, fork/join closures, one cursor table per sort) — not one
	// per vertex segment, line or edge. The same bound holds for a graph
	// 60 times larger.
	small, big := rmatEdgeList(t, 8, 4, denseIDs), rmatEdgeList(t, 12, 16, sparseIDs)
	for _, w := range []int{1, 4, 16} {
		bound := float64(64 + 48*w)
		for _, data := range [][]byte{small, big} {
			allocs := testing.AllocsPerRun(3, func() {
				if _, _, err := pipeline(data, Options{Model: graph.LT, Seed: 1}, w); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > bound {
				t.Errorf("workers=%d, %d input bytes: %.0f allocs per ingest, want <= %.0f", w, len(data), allocs, bound)
			}
		}
	}
}

func TestIngestFootprintIndependentOfWorkers(t *testing.T) {
	// A ring: as many vertices as edges, so any per-worker table of
	// length n dominates what the pipeline allocates. Everything it
	// allocates — transient and final — must stay within c·(n+m) bytes at
	// 64 chunks as at one.
	const n = 50000
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "%d %d\n", i, (i+1)%n)
	}
	data := buf.Bytes()
	allocated := func(w int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, _, err := pipeline(data, Options{Seed: 1}, w)
		if err != nil || g.N != n || g.M != n {
			t.Fatalf("workers=%d: err=%v", w, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, many := allocated(1), allocated(64)
	if bound := uint64(160 * (n + n)); one > bound || many > bound {
		t.Fatalf("ingest allocated %d bytes at 1 worker, %d at 64; want <= %d (160 B per vertex and edge)", one, many, bound)
	}
	if many > one+one/2 {
		t.Fatalf("ingest allocated %d bytes at 64 workers against %d at one: footprint grows with the worker count", many, one)
	}
}

func TestScanEdgeAgreesWithParseEdgeLine(t *testing.T) {
	// Every line scanEdge accepts, however the chunk end cuts it, it
	// reads as the shared policy does; the common shapes it must accept.
	lines := []string{
		"1 2\n", "0\t0\n", "1234567 7654321\n", "12345678 87654321\n",
		"123456789012345 1\n", "1234567890123456 2\n", "12345678901234567 3\n",
		"9223372036854775807 1\n", "99999999999999999999 1\n", "007 \t 08\n",
		"+1 2\n", "1 -2\n", "1 2\r\n", " 1 2\n", "1 2 \n", "1 2 3\n", "1\n",
		"1 2", "# 1 2\n", "1 x\n", "1,2\n",
	}
	common := func(line string) bool {
		src, dst, ok := strings.Cut(strings.TrimSuffix(line, "\n"), " ")
		return ok && len(src) <= 16 && len(dst) <= 16 && strings.Trim(src+dst, "0123456789") == "" &&
			strings.HasSuffix(line, "\n") && src != "" && dst != ""
	}
	for _, line := range lines {
		// Pad so a word load past hi would read digits, not a bound.
		data := []byte(line + "99999999")
		for hi := 0; hi <= len(line); hi++ {
			src, dst, next, ok := scanEdge(data, 0, hi)
			if !ok {
				if hi == len(line) && common(line) {
					t.Errorf("%q: common line not taken by the fast path", line)
				}
				continue
			}
			if next > hi || data[next-1] != '\n' {
				t.Fatalf("%q hi=%d: next=%d is not one past a newline inside the chunk", line, hi, next)
			}
			wantSrc, wantDst, skip, err := graph.ParseEdgeLine(data[:next-1])
			if err != nil || skip || src != wantSrc || dst != wantDst {
				t.Fatalf("%q: fast path read (%d, %d), policy (%d, %d, skip=%v, err=%v)", line, src, dst, wantSrc, wantDst, skip, err)
			}
		}
	}
}

func TestLineCapAgreesWithReference(t *testing.T) {
	// A line's length is every byte before its '\n' (a CRLF's '\r'
	// included) or before the end of input; both loaders accept lengths
	// up to MaxLineLen and reject longer ones.
	endings := map[string]string{"LF": "\n", "CRLF": "\r\n", "EOF": ""}
	for _, length := range []int{graph.MaxLineLen - 1, graph.MaxLineLen, graph.MaxLineLen + 1} {
		for name, end := range endings {
			pad := length - len("1 2") - strings.Count(end, "\r")
			// Padding between the fields is the fast path's shape;
			// trailing padding is the general parser's.
			for _, line := range []string{"1" + strings.Repeat(" ", pad+1) + "2", "1 2" + strings.Repeat("\t", pad)} {
				data := []byte("3 4\n" + line + end)
				want, wantErr := graph.LoadEdgeList(bytes.NewReader(data), false, graph.IC, 1)
				if (wantErr == nil) != (length <= graph.MaxLineLen) {
					t.Fatalf("length %d %s: reference loader err=%v", length, name, wantErr)
				}
				if _, err := graph.LoadEdgeList(iotest.DataErrReader(bytes.NewReader(data)), false, graph.IC, 1); (err == nil) != (wantErr == nil) {
					t.Fatalf("length %d %s: verdict depends on how the reader splits its reads: %v", length, name, err)
				}
				for _, w := range []int{1, 2} {
					got, _, err := pipeline(data, Options{Seed: 1}, w)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("length %d %s workers=%d: err=%v, reference err=%v", length, name, w, err, wantErr)
					}
					if err == nil && !graph.Equal(want, got) {
						t.Fatalf("length %d %s workers=%d: graph differs from reference", length, name, w)
					}
				}
			}
		}
	}
}

func TestIngestDuplicatesAcrossChunks(t *testing.T) {
	// A clean list concatenated with itself: every edge has exactly one
	// duplicate, in the other copy, so duplicates meet in the run merge
	// rather than inside one chunk's sort.
	for _, ids := range []struct {
		name   string
		spread func(int32) int64
	}{{"dense", denseIDs}, {"sparse", sparseIDs}} {
		name, half := ids.name, rmatEdgeList(t, 9, 8, ids.spread)
		data := append(slices.Clone(half), half...)
		want, err := graph.LoadEdgeList(bytes.NewReader(data), false, graph.LT, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8, 64} {
			opt := Options{Model: graph.LT, Seed: 3}
			got, st, err := pipeline(data, opt, w)
			if err != nil {
				t.Fatalf("%s chunks=%d: %v", name, w, err)
			}
			if !graph.Equal(want, got) {
				t.Fatalf("%s chunks=%d: graph differs from sequential reference", name, w)
			}
			if st.SelfLoops != 0 || 2*st.Duplicates != st.RawEdges {
				t.Fatalf("%s chunks=%d: %d self-loops, %d duplicates of %d raw edges; want 0, half", name, w, st.SelfLoops, st.Duplicates, st.RawEdges)
			}
			opt.Dedupe = DedupeStrict
			if _, _, err := pipeline(data, opt, w); err == nil || !strings.Contains(err.Error(), "duplicate") {
				t.Fatalf("%s chunks=%d: strict dedupe err=%v", name, w, err)
			}
		}
	}
}
