package ingest

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// The .imdelta binary edge-delta format, version 1 — the batch mutation
// companion to .imsnap: a container (container.go) holding one delta.
//
//	magic    "IMDELTA\x1a"
//	word     flags (bit 0: explicit add probabilities present)
//	words    weight-derivation seed, add count, remove count
//
// Three sections, in order: Add (int32 src,dst pairs ×addCount), AddProb
// (float32 ×addCount when flag bit 0 is set, empty otherwise), Remove
// (int32 src,dst pairs ×removeCount). The encoding is canonical for a
// given Delta value — write→read round-trips every field exactly,
// which FuzzDeltaRoundTrip pins.

// DeltaVersion is the current .imdelta format version.
const DeltaVersion = 1

// DeltaExt is the conventional file extension.
const DeltaExt = ".imdelta"

const deltaFlagProbs = 1 << 0

var deltaSchema = schema{
	magic:   [8]byte{'I', 'M', 'D', 'E', 'L', 'T', 'A', 0x1a},
	version: DeltaVersion,
	err:     errors.New("ingest: delta"),
}

// DeltaInfo describes a delta stream's header.
type DeltaInfo struct {
	Version  uint32
	Seed     uint64
	Adds     int64
	Removes  int64
	Explicit bool // explicit IC probabilities accompany the additions
	Bytes    int64
}

// DeltaOptions maps an ingestion dedupe policy onto the apply-time
// strictness knob: DedupeStrict fails on self-loops, duplicate adds,
// and absent removals, exactly as it fails edge-list ingestion.
func (d Dedupe) DeltaOptions() graph.DeltaOptions {
	return graph.DeltaOptions{Strict: d == DedupeStrict}
}

// deltaSections lists a delta's arrays in file order.
func deltaSections(add *[]int32, prob *[]float32, remove *[]int32) []section {
	return []section{sec(add), sec(prob), sec(remove)}
}

// flattenEdges lays out edges as interleaved (src, dst) int32 pairs.
func flattenEdges(edges []graph.Edge) []int32 {
	out := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e.Src, e.Dst)
	}
	return out
}

func unflattenEdges(flat []int32) []graph.Edge {
	if len(flat) == 0 {
		return nil
	}
	out := make([]graph.Edge, len(flat)/2)
	for i := range out {
		out[i] = graph.Edge{Src: flat[2*i], Dst: flat[2*i+1]}
	}
	return out
}

// WriteDelta writes d as a version-1 .imdelta stream. The delta is
// written verbatim — no dedup or validation happens here; that is
// ApplyDelta's job at application time, under the applier's policy.
func WriteDelta(w io.Writer, d graph.Delta) error {
	if len(d.AddProb) != 0 && len(d.AddProb) != len(d.Add) {
		return fmt.Errorf("ingest: delta AddProb length %d does not match Add length %d", len(d.AddProb), len(d.Add))
	}
	h := header{words: [3]uint64{d.Seed, uint64(len(d.Add)), uint64(len(d.Remove))}}
	if len(d.AddProb) != 0 {
		h.word = deltaFlagProbs
	}
	add, remove := flattenEdges(d.Add), flattenEdges(d.Remove)
	return deltaSchema.write(w, h, deltaSections(&add, &d.AddProb, &remove))
}

// WriteDeltaFile creates path and writes the delta.
func WriteDeltaFile(path string, d graph.Delta) error {
	return createFile(path, func(w io.Writer) error { return WriteDelta(w, d) })
}

// deltaInfo maps a delta header's words and checks the table's lengths
// against them.
func deltaInfo(h header, ents []entry) (DeltaInfo, error) {
	info := DeltaInfo{Version: DeltaVersion, Seed: h.words[0], Explicit: h.word&deltaFlagProbs != 0}
	if h.word&^uint32(deltaFlagProbs) != 0 {
		return info, deltaSchema.errorf("unknown flags %#x", h.word)
	}
	adds, removes := int64(h.words[1]), int64(h.words[2])
	if adds < 0 || removes < 0 || adds > math.MaxInt64/16 || removes > math.MaxInt64/16 {
		return info, deltaSchema.errorf("invalid shape adds=%d removes=%d", adds, removes)
	}
	info.Adds = adds
	info.Removes = removes
	info.Bytes = ents[len(ents)-1].end()
	probs := int64(0)
	if info.Explicit {
		probs = 4 * adds
	}
	return info, deltaSchema.implied(ents, 8*adds, probs, 8*removes)
}

// ReadDelta reads a version-1 .imdelta stream, verifying the header, the
// canonical table and every section checksum.
func ReadDelta(r io.Reader) (graph.Delta, DeltaInfo, error) {
	var add, remove []int32
	var prob []float32
	secs := deltaSections(&add, &prob, &remove)
	h, ents, err := deltaSchema.readHeader(r, secs)
	if err != nil {
		return graph.Delta{}, DeltaInfo{}, err
	}
	info, err := deltaInfo(h, ents)
	if err != nil {
		return graph.Delta{}, info, err
	}
	if err := deltaSchema.readSections(r, tableEnd(len(secs)), secs, ents); err != nil {
		return graph.Delta{}, info, err
	}
	return graph.Delta{Add: unflattenEdges(add), AddProb: prob, Remove: unflattenEdges(remove), Seed: info.Seed}, info, nil
}

// ReadDeltaFile opens path and delegates to ReadDelta.
func ReadDeltaFile(path string) (d graph.Delta, info DeltaInfo, err error) {
	err = openFile(path, chunk, func(r io.Reader) error {
		d, info, err = ReadDelta(r)
		return err
	})
	return d, info, err
}
