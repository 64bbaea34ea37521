package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
