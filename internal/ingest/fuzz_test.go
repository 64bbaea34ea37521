package ingest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// FuzzSnapshotRoundTrip feeds arbitrary bytes to the snapshot reader.
// The reader must never panic or over-allocate; when the input does
// parse (corpus mutations that keep every checksum valid), re-encoding
// the graph must reproduce the canonical bytes exactly.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g, err := gen.RMAT(gen.DefaultRMAT(5, 4), model, 3)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g, 3); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2]) // truncation seed
	}
	f.Add([]byte("IMSNAP\x1a\x00 not a real snapshot"))
	f.Add([]byte{})
	seedOtherFormats(f, "imsnap")

	f.Fuzz(func(t *testing.T, data []byte) {
		g, info, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g, info.Seed); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:len(buf.Bytes())]) {
			t.Fatal("accepted snapshot does not re-encode to its own bytes")
		}
		checkSectionsAgainstEncoder(t, buf.Bytes(), snapSections(g))
		g2, _, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !graph.Equal(g, g2) {
			t.Fatal("round trip changed the graph")
		}
	})
}

// randomEdgeList draws hostile edge-list text: ids from a small pool
// (so duplicates and self-loops are common) that mixes tiny, medium and
// 2^62-sized values, both comment styles, blank lines, tabs, CRLF
// endings and sometimes no final newline.
func randomEdgeList(seed uint64) []byte {
	r := rng.New(seed)
	pool := make([]int64, 1+r.Intn(30))
	for i := range pool {
		switch r.Intn(3) {
		case 0:
			pool[i] = int64(r.Intn(50))
		case 1:
			pool[i] = int64(r.Intn(1 << 20))
		default:
			pool[i] = int64(r.Uint64() >> 2)
		}
	}
	var buf bytes.Buffer
	for i := r.Intn(80); i > 0; i-- {
		switch r.Intn(12) {
		case 0:
			buf.WriteString("# comment 1 2")
		case 1:
			buf.WriteString("%%MatrixMarket banner")
		case 2:
		default:
			sep := []string{" ", "\t", "   "}[r.Intn(3)]
			fmt.Fprintf(&buf, "%d%s%d", pool[r.Intn(len(pool))], sep, pool[r.Intn(len(pool))])
		}
		if i > 1 || r.Intn(2) == 0 {
			buf.WriteString([]string{"\n", "\r\n"}[r.Intn(2)])
		}
	}
	return buf.Bytes()
}

// FuzzIngestMatchesReference pins the pipeline — radix ranking, heap
// merge, counting-sort build — to the sequential reference loader on
// arbitrary text at chunk counts that exceed the line count: both must
// reject the same inputs, and accept into byte-identical graphs.
func FuzzIngestMatchesReference(f *testing.F) {
	f.Add([]byte(messyEdgeList), true, false)
	f.Add([]byte("4611686018427387903 0\n0 4611686018427387903\n"), false, true)
	f.Add([]byte("1 2\n3\n"), false, false)
	// The fused scanner's edges: ids of 7, 8 and 19 digits (inside one
	// word, filling one, past its 16-digit limit), int64 overflow, a '+' sign,
	// blank runs and CRLF, no final newline, and lines whose newline is
	// the last byte of a chunk (2 chunks split "…5678\n" at byte 18).
	f.Add([]byte("1234567 7654321\n12345678 87654321\n1234567890123456789 9\n"), false, false)
	f.Add([]byte("9223372036854775807 1\n9223372036854775808 1\n"), false, false)
	f.Add([]byte("+5 +6\n+7\t8\n"), true, false)
	f.Add([]byte("1 \t \t2\n3\t\t4\r\n5  6\r\n"), false, true)
	f.Add([]byte("12345678 87654321\n12345678 8765432"), false, false)
	f.Add([]byte("1 2\n3 4\n5 6\n7 8\n"), true, true)
	for seed := uint64(0); seed < 64; seed++ {
		f.Add(randomEdgeList(seed), seed%2 == 0, seed%4 < 2)
	}
	f.Fuzz(func(t *testing.T, data []byte, undirected, lt bool) {
		model := graph.IC
		if lt {
			model = graph.LT
		}
		want, wantErr := graph.LoadEdgeList(bytes.NewReader(data), undirected, model, 7)
		for _, w := range []int{1, 2, 3, 8} {
			got, _, err := pipeline(data, Options{Undirected: undirected, Model: model, Seed: 7}, w)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("workers=%d: err=%v, reference err=%v", w, err, wantErr)
			}
			if err == nil && !graph.Equal(want, got) {
				t.Fatalf("workers=%d: graph differs from sequential reference", w)
			}
		}
	})
}
