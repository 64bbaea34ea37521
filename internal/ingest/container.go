package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"unsafe"
)

// The on-disk container under .imsnap, .imdelta and .impool. Each of
// those formats is a schema over it: a magic, a version, what its header
// words mean, and its sections in file order. All integers are
// little-endian.
//
//	offset  size  field
//	0       8     magic (the schema's)
//	8       4     format version (the schema's)
//	12      4     the schema's flags or model word
//	16      3×8   the schema's seed and shape words
//	40      4     section count
//	44      4     CRC32-C of bytes [0,44) + the section table
//	48      n×32  section table
//	…             payloads, 64-byte aligned, zero-padded between
//
// A table entry is 32 bytes: section id u32 (its index), element size
// u32, file offset u64, payload byte length u64, payload CRC32-C u32,
// zero u32. A payload is its array's little-endian image, so on a
// little-endian host the writer checksums and writes arrays in place and
// a mapped file's sections alias straight into typed slices.
//
// The layout is canonical. The first section starts at the first 64-byte
// boundary after the table; after that a non-empty section starts at the
// next boundary and an empty one where the previous section ended, so a
// file never ends in unchecksummed padding. Offsets therefore follow from
// lengths, and one byte string exists per content: readers reject any
// other table, and each schema also checks the lengths against what its
// header words imply.

const (
	headerSize = 48
	entrySize  = 32
	align      = 64
	chunk      = 64 << 10 // write buffer, and the first read allocation of a section
	maxSection = 1 << 48  // keeps offset arithmetic on a hostile table from overflowing
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether this machine's byte order matches the
// on-disk format. Where it does, a typed array's memory already is its
// section: the writer checksums and writes it in place, the stream
// reader reads into it, and the pool reader aliases a mapping of it. On
// a big-endian host the writer falls back to the element-wise encoder,
// the reader swaps bytes after reading, and nothing is mapped.
var hostLittleEndian = func() bool {
	probe := uint16(1)
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// header is what a schema stores in the fixed header besides its magic
// and version: the flags or model word and three seed and shape words.
type header struct {
	word  uint32
	words [3]uint64
}

// entry is one section-table entry.
type entry struct {
	id, elemSize    uint32
	offset, byteLen int64
	crc             uint32
}

func (e entry) end() int64 { return e.offset + e.byteLen }

// schema is one file format over the container.
type schema struct {
	magic   [8]byte
	version uint32
	err     error // wrapped by every error, which reads "<err>: <detail>"
}

func (s *schema) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{s.err}, args...)...)
}

// section is a typed pointer to one section's array. It writes,
// checksums, stream-reads and aliases itself.
type section interface {
	elemSize() uint32
	byteLen() int64
	crc() uint32
	writeTo(w io.Writer) error
	encodeTo(w io.Writer) error
	read(r io.Reader, byteLen int64) (uint32, error)
	alias(b []byte)
}

type elem interface {
	int32 | int64 | uint64 | float32
}

type typed[T elem] struct{ p *[]T }

func sec[T elem](p *[]T) section { return typed[T]{p} }

func (s typed[T]) elemSize() uint32 {
	var v T
	return uint32(unsafe.Sizeof(v))
}

func (s typed[T]) byteLen() int64 { return int64(len(*s.p)) * int64(s.elemSize()) }

// memory is the bytes of a typed array in host order.
func memory[T elem](a []T) []byte {
	if len(a) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*int(unsafe.Sizeof(a[0])))
}

// writeTo writes the section's bytes. They ARE checksum covered: crc
// below runs over the identical bytes to compute the CRC the table
// records, so the checksum pairs with this write without touching it.
//
//imlint:ignore endian section CRC computed by the sibling typed.crc over the identical bytes
func (s typed[T]) writeTo(w io.Writer) error {
	if !hostLittleEndian {
		return s.encodeTo(w)
	}
	_, err := w.Write(memory(*s.p))
	return err
}

func (s typed[T]) crc() uint32 {
	if !hostLittleEndian {
		h := crc32.New(castagnoli)
		_ = s.encodeTo(h) // a hash.Hash never fails a Write
		return h.Sum32()
	}
	return crc32.Checksum(memory(*s.p), castagnoli)
}

// encodeTo streams the section element by element in little-endian
// order, whatever the host's: the big-endian host's writer and
// checksummer, and the oracle the tests hold the in-place writer against.
func (s typed[T]) encodeTo(w io.Writer) error {
	le := binary.LittleEndian
	buf := make([]byte, 0, chunk)
	for i, v := range *s.p {
		switch v := any(v).(type) {
		case int32:
			buf = le.AppendUint32(buf, uint32(v))
		case float32:
			buf = le.AppendUint32(buf, math.Float32bits(v))
		case int64:
			buf = le.AppendUint64(buf, uint64(v))
		case uint64:
			buf = le.AppendUint64(buf, v)
		}
		if len(buf) > chunk-8 || i == len(*s.p)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

// read fills the array with the next byteLen bytes of r, reading straight
// into its memory, and returns their CRC. The array starts at most a
// chunk long and doubles as bytes arrive, so a table that lies about a
// length costs at most twice what the stream actually holds. An empty
// section leaves the array nil.
func (s typed[T]) read(r io.Reader, byteLen int64) (uint32, error) {
	size := int64(s.elemSize())
	n := byteLen / size
	var a []T
	crc := uint32(0)
	for int64(len(a)) < n {
		grown := make([]T, len(a), min(n, max(2*int64(len(a)), chunk/size)))
		copy(grown, a)
		b := memory(grown[len(a):cap(grown)])
		if _, err := io.ReadFull(r, b); err != nil {
			return 0, err
		}
		crc = crc32.Update(crc, castagnoli, b)
		a = grown[:cap(grown)]
	}
	if !hostLittleEndian {
		for i := range a {
			switch p := unsafe.Pointer(&a[i]); size {
			case 8:
				*(*uint64)(p) = bits.ReverseBytes64(*(*uint64)(p))
			case 4:
				*(*uint32)(p) = bits.ReverseBytes32(*(*uint32)(p))
			}
		}
	}
	*s.p = a
	return crc, nil
}

// alias points the array at b in place. The table validator has proven b
// an element multiple at a 64-byte-aligned offset of the image (when not
// empty), which satisfies every element type's alignment. Little-endian
// hosts only.
func (s typed[T]) alias(b []byte) {
	if len(b) > 0 {
		*s.p = unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(s.elemSize()))
	}
}

func alignUp(x int64) int64 { return (x + align - 1) / align * align }

// tableEnd is the size of the header and a table of n sections.
func tableEnd(n int) int64 { return headerSize + int64(n)*entrySize }

// place returns where a section of byteLen bytes starts when the previous
// one ended at end (the first "ends" at the aligned end of the table).
func place(end, byteLen int64) int64 {
	if byteLen > 0 {
		return alignUp(end)
	}
	return end
}

// containerSize returns the exact size of the container holding secs.
func containerSize(secs []section) int64 {
	end := alignUp(tableEnd(len(secs)))
	for _, s := range secs {
		end = place(end, s.byteLen()) + s.byteLen()
	}
	return end
}

// zeroPad is the source of inter-section padding, which sits outside
// every CRC's coverage by design.
var zeroPad [align]byte

// write writes h and secs as one container.
func (s *schema) write(w io.Writer, h header, secs []section) error {
	le := binary.LittleEndian
	bw := bufio.NewWriterSize(w, chunk)
	b := append(bw.AvailableBuffer(), s.magic[:]...)
	b = le.AppendUint32(b, s.version)
	b = le.AppendUint32(b, h.word)
	for _, v := range h.words {
		b = le.AppendUint64(b, v)
	}
	b = le.AppendUint32(b, uint32(len(secs)))
	b = le.AppendUint32(b, 0) // the header CRC, once the table is in
	end := alignUp(tableEnd(len(secs)))
	for i, p := range secs {
		off := place(end, p.byteLen())
		b = le.AppendUint32(b, uint32(i))
		b = le.AppendUint32(b, p.elemSize())
		b = le.AppendUint64(b, uint64(off))
		b = le.AppendUint64(b, uint64(p.byteLen()))
		b = le.AppendUint32(b, p.crc())
		b = le.AppendUint32(b, 0)
		end = off + p.byteLen()
	}
	le.PutUint32(b[44:], crc32.Update(crc32.Checksum(b[:44], castagnoli), castagnoli, b[headerSize:]))
	end = alignUp(int64(len(b)))
	if _, err := bw.Write(b); err != nil {
		return err
	}
	if _, err := bw.Write(zeroPad[:end-int64(len(b))]); err != nil {
		return err
	}
	for _, p := range secs {
		off := place(end, p.byteLen())
		if _, err := bw.Write(zeroPad[:off-end]); err != nil {
			return err
		}
		if err := p.writeTo(bw); err != nil {
			return err
		}
		end = off + p.byteLen()
	}
	return bw.Flush()
}

// parse validates the header and table at the start of b against the
// schema and the shapes of secs, and returns the header's words and the
// table. Every entry is proven canonical; the lengths are the schema's
// to check against its words.
func (s *schema) parse(b []byte, secs []section) (header, []entry, error) {
	var h header
	size := tableEnd(len(secs))
	if int64(len(b)) < size {
		return h, nil, s.errorf("truncated header: %d of %d bytes", len(b), size)
	}
	le := binary.LittleEndian
	if [8]byte(b[:8]) != s.magic {
		return h, nil, s.errorf("bad magic %q", b[:8])
	}
	if v := le.Uint32(b[8:]); v != s.version {
		return h, nil, s.errorf("unsupported version %d (want %d)", v, s.version)
	}
	if n := le.Uint32(b[40:]); n != uint32(len(secs)) {
		return h, nil, s.errorf("%d sections, want %d", n, len(secs))
	}
	if le.Uint32(b[44:]) != crc32.Update(crc32.Checksum(b[:44], castagnoli), castagnoli, b[headerSize:size]) {
		return h, nil, s.errorf("header checksum mismatch")
	}
	h.word = le.Uint32(b[12:])
	for i := range h.words {
		h.words[i] = le.Uint64(b[16+8*i:])
	}
	ents := make([]entry, len(secs))
	end := alignUp(size)
	for i := range ents {
		t := b[headerSize+i*entrySize:]
		e := entry{
			id:       le.Uint32(t),
			elemSize: le.Uint32(t[4:]),
			offset:   int64(le.Uint64(t[8:])),
			byteLen:  int64(le.Uint64(t[16:])),
			crc:      le.Uint32(t[24:]),
		}
		if e.id != uint32(i) || e.elemSize != secs[i].elemSize() {
			return h, nil, s.errorf("section %d table entry mismatch", i)
		}
		if e.byteLen < 0 || e.byteLen > maxSection || e.byteLen%int64(e.elemSize) != 0 {
			return h, nil, s.errorf("section %d byte length %d out of range or not a multiple of %d", i, e.byteLen, e.elemSize)
		}
		if want := place(end, e.byteLen); e.offset != want {
			return h, nil, s.errorf("section %d offset %d breaks canonical layout (want %d)", i, e.offset, want)
		}
		ents[i] = e
		end = e.end()
	}
	return h, ents, nil
}

// implied checks each section's length against the one the header's
// words imply.
func (s *schema) implied(ents []entry, want ...int64) error {
	for i, e := range ents {
		if e.byteLen != want[i] {
			return s.errorf("section %d holds %d bytes, header implies %d", i, e.byteLen, want[i])
		}
	}
	return nil
}

// readHeader reads and parses the header and table at the start of r.
func (s *schema) readHeader(r io.Reader, secs []section) (header, []entry, error) {
	b := make([]byte, tableEnd(len(secs)))
	if _, err := io.ReadFull(r, b); err != nil {
		return header{}, nil, s.errorf("truncated header: %w", err)
	}
	return s.parse(b, secs)
}

// readSections streams the payloads of the parsed entries ents into
// secs, checking each against its CRC and the padding before it for
// zeros. r is at byte pos of the file. Allocation is bounded by the bytes
// actually read, so corrupt headers claiming absurd sizes fail cleanly
// instead of exhausting memory.
func (s *schema) readSections(r io.Reader, pos int64, secs []section, ents []entry) error {
	var pad [align]byte
	for i, e := range ents {
		if _, err := io.ReadFull(r, pad[:e.offset-pos]); err != nil {
			return s.errorf("truncated before section %d: %w", e.id, err)
		}
		if !zeros(pad[:e.offset-pos]) {
			return s.errorf("nonzero padding before section %d", e.id)
		}
		crc, err := secs[i].read(r, e.byteLen)
		if err != nil {
			return s.errorf("truncated section %d: %w", e.id, err)
		}
		if crc != e.crc {
			return s.errorf("section %d checksum mismatch", e.id)
		}
		pos = e.end()
	}
	return nil
}

// mapSections checks every section of a whole-file image against its
// CRC, and the padding before it for zeros, and only then points secs at
// their bytes in place. Little-endian hosts only.
func (s *schema) mapSections(image []byte, secs []section, ents []entry) error {
	if end := ents[len(ents)-1].end(); end > int64(len(image)) {
		return s.errorf("truncated: sections need %d bytes, file holds %d", end, len(image))
	}
	pos := tableEnd(len(ents))
	for _, e := range ents {
		if !zeros(image[pos:e.offset]) {
			return s.errorf("nonzero padding before section %d", e.id)
		}
		if crc32.Checksum(image[e.offset:e.end()], castagnoli) != e.crc {
			return s.errorf("section %d checksum mismatch", e.id)
		}
		pos = e.end()
	}
	for i, e := range ents {
		secs[i].alias(image[e.offset:e.end():e.end()])
	}
	return nil
}

// zeros reports whether b holds only zero bytes: the padding a canonical
// file has between sections, outside every CRC.
func zeros(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// createFile creates path and writes it through write.
func createFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openFile opens path and reads it through read, buffered by size bytes.
func openFile(path string, size int, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return read(bufio.NewReaderSize(f, size))
}
