package ingest

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
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
		payloads := snapPayloads(g)
		checkSectionsAgainstEncoder(t, buf.Bytes(), snapLayout(g.N, g.M, g.Model()), payloads[:])
		g2, _, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !graph.Equal(g, g2) {
			t.Fatal("round trip changed the graph")
		}
	})
}
