package ingest

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// The .imsnap graph snapshot, version 1: a container (container.go)
// holding a graph's CSR arrays.
//
//	magic    "IMSNAP\x1a\x00"
//	word     diffusion model (0 = IC, 1 = LT)
//	words    weight-assignment seed (provenance), N (vertices), M (directed edges)
//
// Seven sections, in order: OutIndex (int64×N+1), OutEdges (int32×M),
// OutProb (float32×M), InIndex (int64×N+1), InEdges (int32×M), InProb
// (float32×M), InAccum (float32×M for LT, empty for IC). Every length
// follows from (N, M, model).
//
// Every array the snapshot stores is adopted verbatim on read
// (graph.FromCSR), so write→read reproduces a byte-identical graph and
// therefore identical seeds through Run and RunDistributed. The reader
// copies the arrays onto the heap. Only .impool is memory-mapped: a
// pool's mapping has one owner, the pool entry that releases it with its
// engine, while a graph is read by every engine, query and delta epoch
// built on it, and nothing owns it long enough to unmap it.

// SnapshotVersion is the current .imsnap format version.
const SnapshotVersion = 1

// SnapshotExt is the conventional file extension.
const SnapshotExt = ".imsnap"

var snapSchema = schema{
	magic:   [8]byte{'I', 'M', 'S', 'N', 'A', 'P', 0x1a, 0x00},
	version: SnapshotVersion,
	err:     errors.New("ingest: snapshot"),
}

// SnapshotInfo describes a snapshot's header.
type SnapshotInfo struct {
	Version uint32
	Model   graph.Model
	Seed    uint64
	N       int32
	M       int64
	Bytes   int64 // total snapshot size
}

// snapSections lists g's arrays in file order.
func snapSections(g *graph.Graph) []section {
	return []section{
		sec(&g.OutIndex), sec(&g.OutEdges), sec(&g.OutProb),
		sec(&g.InIndex), sec(&g.InEdges), sec(&g.InProb), sec(&g.InAccum),
	}
}

// SnapshotSize returns the exact .imsnap size for g without writing it.
func SnapshotSize(g *graph.Graph) int64 { return containerSize(snapSections(g)) }

// WriteSnapshot writes g as a version-1 .imsnap stream. seed records
// the weight-assignment seed for provenance (it is not re-used on read:
// the stored weights are). The output is canonical — the same graph
// always produces identical bytes.
func WriteSnapshot(w io.Writer, g *graph.Graph, seed uint64) error {
	if g == nil {
		return fmt.Errorf("ingest: nil graph")
	}
	h := header{word: uint32(g.Model()), words: [3]uint64{seed, uint64(g.N), uint64(g.M)}}
	return snapSchema.write(w, h, snapSections(g))
}

// WriteSnapshotFile creates path and writes the snapshot.
func WriteSnapshotFile(path string, g *graph.Graph, seed uint64) error {
	return createFile(path, func(w io.Writer) error { return WriteSnapshot(w, g, seed) })
}

// snapInfo maps a snapshot header's words and checks the table's
// lengths against them.
func snapInfo(h header, ents []entry) (SnapshotInfo, error) {
	info := SnapshotInfo{Version: SnapshotVersion, Model: graph.Model(h.word), Seed: h.words[0]}
	if info.Model != graph.IC && info.Model != graph.LT {
		return info, snapSchema.errorf("unknown model %d", h.word)
	}
	n, m := int64(h.words[1]), int64(h.words[2])
	if n < 0 || n > math.MaxInt32 || m < 0 {
		return info, snapSchema.errorf("invalid shape n=%d m=%d", n, m)
	}
	info.N = int32(n)
	info.M = m
	info.Bytes = ents[len(ents)-1].end()
	accum := int64(0)
	if info.Model == graph.LT {
		accum = 4 * m
	}
	index := 8 * (n + 1)
	return info, snapSchema.implied(ents, index, 4*m, 4*m, index, 4*m, 4*m, accum)
}

// ReadSnapshot reads a version-1 .imsnap stream, verifying the header,
// the canonical table and every section checksum, and returns the
// reconstructed graph plus the header metadata.
func ReadSnapshot(r io.Reader) (*graph.Graph, SnapshotInfo, error) {
	var a graph.Graph // holds the arrays until FromCSR validates them
	secs := snapSections(&a)
	h, ents, err := snapSchema.readHeader(r, secs)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	info, err := snapInfo(h, ents)
	if err != nil {
		return nil, info, err
	}
	if err := snapSchema.readSections(r, tableEnd(len(secs)), secs, ents); err != nil {
		return nil, info, err
	}
	g, err := graph.FromCSR(info.Model, info.N, info.M,
		a.OutIndex, a.OutEdges, a.OutProb, a.InIndex, a.InEdges, a.InProb, a.InAccum)
	if err != nil {
		return nil, info, snapSchema.errorf("%w", err)
	}
	return g, info, nil
}

// ReadSnapshotFile opens path and delegates to ReadSnapshot.
func ReadSnapshotFile(path string) (g *graph.Graph, info SnapshotInfo, err error) {
	err = openFile(path, chunk, func(r io.Reader) error {
		g, info, err = ReadSnapshot(r)
		return err
	})
	return g, info, err
}
