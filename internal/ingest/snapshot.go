package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"repro/internal/graph"
)

// The .imsnap binary snapshot format, version 1. All integers are
// little-endian. The layout is a fixed header, a section table, and the
// raw CSR payloads at 64-byte-aligned offsets — each section is the
// exact in-memory array layout, so a future reader can mmap the file
// and alias the sections directly instead of copying.
//
//	offset  size  field
//	0       8     magic "IMSNAP\x1a\x00"
//	8       4     format version (1)
//	12      4     diffusion model (0 = IC, 1 = LT)
//	16      8     weight-assignment seed (provenance)
//	24      8     N (vertices)
//	32      8     M (directed edges)
//	40      4     section count (7)
//	44      4     CRC32-C of bytes [0,44) + the section table
//	48      7×32  section table
//	…             payloads, 64-byte aligned, zero-padded between
//
// Section table entry (32 bytes): section id u32, element size u32,
// file offset u64, payload byte length u64, payload CRC32-C u32, pad
// u32. Sections appear in id order and cover, in order: OutIndex
// (int64×N+1), OutEdges (int32×M), OutProb (float32×M), InIndex
// (int64×N+1), InEdges (int32×M), InProb (float32×M), InAccum
// (float32×M for LT, empty for IC).
//
// Every array the snapshot stores is adopted verbatim on read
// (graph.FromCSR), so write→read reproduces a byte-identical graph and
// therefore identical seeds through Run and RunDistributed.

// SnapshotVersion is the current .imsnap format version.
const SnapshotVersion = 1

// SnapshotExt is the conventional file extension.
const SnapshotExt = ".imsnap"

var snapMagic = [8]byte{'I', 'M', 'S', 'N', 'A', 'P', 0x1a, 0x00}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	snapHeaderSize  = 48
	snapEntrySize   = 32
	snapSectionN    = 7
	snapAlign       = 64
	snapChunk       = 64 << 10
	secOutIndex     = 0
	secOutEdges     = 1
	secOutProb      = 2
	secInIndex      = 3
	secInEdges      = 4
	secInProb       = 5
	secInAccum      = 6
	snapTableSize   = snapSectionN * snapEntrySize
	snapPayloadBase = (snapHeaderSize + snapTableSize + snapAlign - 1) / snapAlign * snapAlign
)

// SnapshotInfo describes a snapshot's header.
type SnapshotInfo struct {
	Version uint32
	Model   graph.Model
	Seed    uint64
	N       int32
	M       int64
	Bytes   int64 // total snapshot size
}

type snapSection struct {
	id       uint32
	elemSize uint32
	offset   int64
	byteLen  int64
	crc      uint32
}

// snapLayout computes the section table for a graph's shape.
func snapLayout(n int32, m int64, model graph.Model) []snapSection {
	accumLen := int64(0)
	if model == graph.LT {
		accumLen = 4 * m
	}
	secs := []snapSection{
		{id: secOutIndex, elemSize: 8, byteLen: 8 * (int64(n) + 1)},
		{id: secOutEdges, elemSize: 4, byteLen: 4 * m},
		{id: secOutProb, elemSize: 4, byteLen: 4 * m},
		{id: secInIndex, elemSize: 8, byteLen: 8 * (int64(n) + 1)},
		{id: secInEdges, elemSize: 4, byteLen: 4 * m},
		{id: secInProb, elemSize: 4, byteLen: 4 * m},
		{id: secInAccum, elemSize: 4, byteLen: accumLen},
	}
	// Non-empty sections land on 64-byte-aligned offsets (the mmap
	// contract); empty sections take the current position so the file
	// never ends in unchecksummed padding.
	off := int64(snapPayloadBase)
	for i := range secs {
		if secs[i].byteLen > 0 {
			off = alignUp(off)
		}
		secs[i].offset = off
		off += secs[i].byteLen
	}
	return secs
}

func alignUp(x int64) int64 { return (x + snapAlign - 1) / snapAlign * snapAlign }

// SnapshotSize returns the exact .imsnap size for g without writing it.
func SnapshotSize(g *graph.Graph) int64 {
	secs := snapLayout(g.N, g.M, g.Model())
	last := secs[len(secs)-1]
	return last.offset + last.byteLen
}

// WriteSnapshot writes g as a version-1 .imsnap stream. seed records
// the weight-assignment seed for provenance (it is not re-used on read:
// the stored weights are). The output is canonical — the same graph
// always produces identical bytes.
func WriteSnapshot(w io.Writer, g *graph.Graph, seed uint64) error {
	if g == nil {
		return fmt.Errorf("ingest: nil graph")
	}
	secs := snapLayout(g.N, g.M, g.Model())
	payloads := snapPayloads(g)
	for i := range secs {
		secs[i].crc = payloads[i].crc()
	}

	header := make([]byte, snapHeaderSize+snapTableSize)
	copy(header[0:8], snapMagic[:])
	le := binary.LittleEndian
	le.PutUint32(header[8:], SnapshotVersion)
	le.PutUint32(header[12:], uint32(g.Model()))
	le.PutUint64(header[16:], seed)
	le.PutUint64(header[24:], uint64(g.N))
	le.PutUint64(header[32:], uint64(g.M))
	le.PutUint32(header[40:], snapSectionN)
	for i, s := range secs {
		e := header[snapHeaderSize+i*snapEntrySize:]
		le.PutUint32(e[0:], s.id)
		le.PutUint32(e[4:], s.elemSize)
		le.PutUint64(e[8:], uint64(s.offset))
		le.PutUint64(e[16:], uint64(s.byteLen))
		le.PutUint32(e[24:], s.crc)
		le.PutUint32(e[28:], 0)
	}
	hcrc := crc32.Checksum(header[:44], castagnoli)
	hcrc = crc32.Update(hcrc, castagnoli, header[snapHeaderSize:])
	le.PutUint32(header[44:], hcrc)

	bw := bufio.NewWriterSize(w, snapChunk)
	if _, err := bw.Write(header); err != nil {
		return err
	}
	pos := int64(len(header))
	for i, s := range secs {
		if err := writePad(bw, s.offset-pos); err != nil {
			return err
		}
		if err := payloads[i].writeTo(bw); err != nil {
			return err
		}
		pos = s.offset + s.byteLen
	}
	return bw.Flush()
}

// WriteSnapshotFile creates path and writes the snapshot.
func WriteSnapshotFile(path string, g *graph.Graph, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(f, g, seed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// payload is one section's typed array. Each instance populates exactly
// one field; the u8/u64 variants exist for the .impool pool-snapshot
// sections.
type payload struct {
	i64 []int64
	f32 []float32
	i32 []int32
	u8  []byte
	u64 []uint64
}

func snapPayloads(g *graph.Graph) [snapSectionN]payload {
	return [snapSectionN]payload{
		{i64: g.OutIndex},
		{i32: g.OutEdges},
		{f32: g.OutProb},
		{i64: g.InIndex},
		{i32: g.InEdges},
		{f32: g.InProb},
		{f32: g.InAccum},
	}
}

// hostLittleEndian reports whether this machine's byte order matches the
// on-disk format. Where it does, a typed array's memory already is its
// section: the writer checksums and writes it in place (payload.view)
// and the pool reader aliases a mapping of it. On the (rare) big-endian
// host both fall back to the element-wise codec, which byte-swaps
// explicitly.
var hostLittleEndian = func() bool {
	probe := uint16(1)
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// leView reinterprets a typed array as its bytes in host order.
func leView[T int32 | int64 | uint64 | float32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// byteLen is the size of the payload's section.
func (p payload) byteLen() int64 {
	return 8*int64(len(p.i64)+len(p.u64)) + 4*int64(len(p.i32)+len(p.f32)) + int64(len(p.u8))
}

// view returns the payload's section bytes without encoding anything:
// the populated slice's own memory. Valid only when hostLittleEndian.
func (p payload) view() []byte {
	switch {
	case len(p.i64) > 0:
		return leView(p.i64)
	case len(p.i32) > 0:
		return leView(p.i32)
	case len(p.f32) > 0:
		return leView(p.f32)
	case len(p.u64) > 0:
		return leView(p.u64)
	}
	return p.u8
}

// writeTo writes the payload's section bytes. They ARE checksum
// covered: payload.crc() below runs over the identical bytes to compute
// the section CRC recorded in the table, so the checksum pairs with
// this write without touching the writer path.
//
//imlint:ignore endian section CRC computed by the sibling payload.crc over the identical bytes
func (p payload) writeTo(w io.Writer) error {
	if !hostLittleEndian {
		return p.encodeTo(w)
	}
	_, err := w.Write(p.view())
	return err
}

func (p payload) crc() uint32 {
	if !hostLittleEndian {
		h := crc32.New(castagnoli)
		_ = p.encodeTo(h) // a hash.Hash never fails a Write
		return h.Sum32()
	}
	return crc32.Checksum(p.view(), castagnoli)
}

// encodeTo streams the payload element by element in little-endian
// order, whatever the host's: the big-endian host's writer and
// checksummer, and the oracle the tests hold view() against.
func (p payload) encodeTo(w io.Writer) error {
	buf := make([]byte, 0, snapChunk)
	flush := func(force bool) error {
		if len(buf) >= snapChunk-8 || (force && len(buf) > 0) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		return nil
	}
	for _, v := range p.i64 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		if err := flush(false); err != nil {
			return err
		}
	}
	for _, v := range p.i32 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		if err := flush(false); err != nil {
			return err
		}
	}
	for _, v := range p.f32 {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		if err := flush(false); err != nil {
			return err
		}
	}
	for _, v := range p.u64 {
		buf = binary.LittleEndian.AppendUint64(buf, v)
		if err := flush(false); err != nil {
			return err
		}
	}
	if err := flush(true); err != nil {
		return err
	}
	if len(p.u8) > 0 {
		if _, err := w.Write(p.u8); err != nil {
			return err
		}
	}
	return nil
}

// zeroPad is the source of inter-section padding.
var zeroPad [snapAlign]byte

// writePad emits the zero padding that 64-byte-aligns sections. The
// pad bytes sit between sections and are deliberately outside every
// CRC's coverage (the table records per-section checksums over payload
// bytes only), so there is no checksum to pair with.
//
//imlint:ignore endian inter-section alignment padding is outside CRC coverage by format design
func writePad(w io.Writer, n int64) error {
	if n < 0 || n >= snapAlign {
		return fmt.Errorf("ingest: snapshot layout error (pad of %d bytes)", n)
	}
	_, err := w.Write(zeroPad[:n])
	return err
}

// ReadSnapshot reads a version-1 .imsnap stream, verifying magic,
// version, header checksum and every section checksum, and returns the
// reconstructed graph plus the header metadata. Allocation is bounded
// by the bytes actually read, so corrupt headers claiming absurd sizes
// fail cleanly instead of exhausting memory.
func ReadSnapshot(r io.Reader) (*graph.Graph, SnapshotInfo, error) {
	var info SnapshotInfo
	header := make([]byte, snapHeaderSize+snapTableSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, info, fmt.Errorf("ingest: snapshot: truncated header: %w", err)
	}
	if [8]byte(header[0:8]) != snapMagic {
		return nil, info, fmt.Errorf("ingest: snapshot: bad magic %q", header[0:8])
	}
	le := binary.LittleEndian
	info.Version = le.Uint32(header[8:])
	if info.Version != SnapshotVersion {
		return nil, info, fmt.Errorf("ingest: snapshot: unsupported version %d (want %d)", info.Version, SnapshotVersion)
	}
	model := le.Uint32(header[12:])
	if model != uint32(graph.IC) && model != uint32(graph.LT) {
		return nil, info, fmt.Errorf("ingest: snapshot: unknown model %d", model)
	}
	info.Model = graph.Model(model)
	info.Seed = le.Uint64(header[16:])
	n := int64(le.Uint64(header[24:]))
	m := int64(le.Uint64(header[32:]))
	if n < 0 || n > math.MaxInt32 || m < 0 {
		return nil, info, fmt.Errorf("ingest: snapshot: invalid shape n=%d m=%d", n, m)
	}
	info.N, info.M = int32(n), m
	if count := le.Uint32(header[40:]); count != snapSectionN {
		return nil, info, fmt.Errorf("ingest: snapshot: %d sections, want %d", count, snapSectionN)
	}
	wantCRC := le.Uint32(header[44:])
	gotCRC := crc32.Checksum(header[:44], castagnoli)
	gotCRC = crc32.Update(gotCRC, castagnoli, header[snapHeaderSize:])
	if gotCRC != wantCRC {
		return nil, info, fmt.Errorf("ingest: snapshot: header checksum mismatch")
	}

	// The section table must match the canonical layout for this shape
	// exactly — offsets, lengths and element sizes are all implied by
	// (n, m, model), so anything else is corruption.
	want := snapLayout(int32(n), m, info.Model)
	secs := make([]snapSection, snapSectionN)
	for i := range secs {
		e := header[snapHeaderSize+i*snapEntrySize:]
		secs[i] = snapSection{
			id:       le.Uint32(e[0:]),
			elemSize: le.Uint32(e[4:]),
			offset:   int64(le.Uint64(e[8:])),
			byteLen:  int64(le.Uint64(e[16:])),
			crc:      le.Uint32(e[24:]),
		}
		w := want[i]
		if secs[i].id != w.id || secs[i].elemSize != w.elemSize || secs[i].offset != w.offset || secs[i].byteLen != w.byteLen {
			return nil, info, fmt.Errorf("ingest: snapshot: section %d layout mismatch (corrupt table)", i)
		}
	}
	info.Bytes = secs[snapSectionN-1].offset + secs[snapSectionN-1].byteLen

	// Decode each section straight into its typed array as it streams —
	// no intermediate byte copies, so peak memory is the arrays
	// themselves, not 2× the snapshot.
	pos := int64(len(header))
	var outIndex, inIndex []int64
	var outEdges, inEdges []int32
	var outProb, inProb, inAccum []float32
	for i, s := range secs {
		if err := discard(r, s.offset-pos); err != nil {
			return nil, info, fmt.Errorf("ingest: snapshot: truncated before section %d: %w", i, err)
		}
		var crc uint32
		var err error
		switch s.id {
		case secOutIndex:
			outIndex, crc, err = readI64Section(r, s.byteLen)
		case secOutEdges:
			outEdges, crc, err = readI32Section(r, s.byteLen)
		case secOutProb:
			outProb, crc, err = readF32Section(r, s.byteLen)
		case secInIndex:
			inIndex, crc, err = readI64Section(r, s.byteLen)
		case secInEdges:
			inEdges, crc, err = readI32Section(r, s.byteLen)
		case secInProb:
			inProb, crc, err = readF32Section(r, s.byteLen)
		case secInAccum:
			inAccum, crc, err = readF32Section(r, s.byteLen)
		}
		if err != nil {
			return nil, info, fmt.Errorf("ingest: snapshot: truncated section %d: %w", i, err)
		}
		if crc != s.crc {
			return nil, info, fmt.Errorf("ingest: snapshot: section %d checksum mismatch", i)
		}
		pos = s.offset + s.byteLen
	}

	g, err := graph.FromCSR(info.Model, int32(n), m,
		outIndex, outEdges, outProb, inIndex, inEdges, inProb, inAccum)
	if err != nil {
		return nil, info, fmt.Errorf("ingest: snapshot: %w", err)
	}
	return g, info, nil
}

// ReadSnapshotFile opens path and delegates to ReadSnapshot.
func ReadSnapshotFile(path string) (*graph.Graph, SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	defer f.Close()
	return ReadSnapshot(bufio.NewReaderSize(f, snapChunk))
}

// readChunks reads exactly byteLen bytes in snapChunk pieces, handing
// each piece to fn and computing the CRC32-C on the fly. snapChunk is a
// multiple of every element size, so pieces always split on element
// boundaries. Callers grow their arrays as pieces arrive, which keeps
// allocation bounded by the bytes actually read — a header lying about
// its size cannot force a huge upfront allocation.
func readChunks(r io.Reader, byteLen int64, fn func([]byte)) (uint32, error) {
	crc := uint32(0)
	chunk := make([]byte, snapChunk)
	for remaining := byteLen; remaining > 0; {
		k := int64(len(chunk))
		if k > remaining {
			k = remaining
		}
		if _, err := io.ReadFull(r, chunk[:k]); err != nil {
			return 0, err
		}
		crc = crc32.Update(crc, castagnoli, chunk[:k])
		fn(chunk[:k])
		remaining -= k
	}
	return crc, nil
}

func initialCap(byteLen, elemSize int64) int64 {
	elems := byteLen / elemSize
	if max := int64(snapChunk) / elemSize; elems > max {
		elems = max
	}
	return elems
}

func readI64Section(r io.Reader, byteLen int64) ([]int64, uint32, error) {
	out := make([]int64, 0, initialCap(byteLen, 8))
	crc, err := readChunks(r, byteLen, func(b []byte) {
		for i := 0; i < len(b); i += 8 {
			out = append(out, int64(binary.LittleEndian.Uint64(b[i:])))
		}
	})
	return out, crc, err
}

func readI32Section(r io.Reader, byteLen int64) ([]int32, uint32, error) {
	out := make([]int32, 0, initialCap(byteLen, 4))
	crc, err := readChunks(r, byteLen, func(b []byte) {
		for i := 0; i < len(b); i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(b[i:])))
		}
	})
	return out, crc, err
}

func readF32Section(r io.Reader, byteLen int64) ([]float32, uint32, error) {
	if byteLen == 0 {
		return nil, 0, nil
	}
	out := make([]float32, 0, initialCap(byteLen, 4))
	crc, err := readChunks(r, byteLen, func(b []byte) {
		for i := 0; i < len(b); i += 4 {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(b[i:])))
		}
	})
	return out, crc, err
}

func readU8Section(r io.Reader, byteLen int64) ([]byte, uint32, error) {
	out := make([]byte, 0, initialCap(byteLen, 1))
	crc, err := readChunks(r, byteLen, func(b []byte) {
		out = append(out, b...)
	})
	return out, crc, err
}

func readU64Section(r io.Reader, byteLen int64) ([]uint64, uint32, error) {
	out := make([]uint64, 0, initialCap(byteLen, 8))
	crc, err := readChunks(r, byteLen, func(b []byte) {
		for i := 0; i < len(b); i += 8 {
			out = append(out, binary.LittleEndian.Uint64(b[i:]))
		}
	})
	return out, crc, err
}

func discard(r io.Reader, n int64) error {
	if n < 0 {
		return fmt.Errorf("overlapping sections")
	}
	_, err := io.CopyN(io.Discard, r, n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}
