package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"

	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/imm"
)

// The .impool binary pool-snapshot format, version 2 — the warm-pool
// persistence companion to .imsnap/.imdelta. All integers are
// little-endian. Like its siblings it is a fixed header, a section
// table, and raw payloads at 64-byte-aligned offsets, CRC32-C-checked
// per section and over the header, so a reader can either stream-decode
// or mmap the file and alias every section in place.
//
//	offset  size  field
//	0       8     magic "IMPOOL\x1a\x00"
//	8       4     format version (2)
//	12      4     flags (bit 0: compressed pool kind, bit 1: adaptive representation)
//	16      8     pool RNG seed
//	24      8     N (vertices of the bound graph)
//	32      8     pool length (slots generated)
//	40      4     section count (99)
//	44      4     CRC32-C of bytes [0,44) + the section table
//	48      99×32 section table (same entry shape as .imsnap)
//	…             payloads, 64-byte aligned, zero-padded between
//
// Section 0 is the metadata block: 7 little-endian int64 words — graph
// edge count M, graph delta epoch, total pool members Σ|R|, the
// GraphChecksum content fingerprint, the representation density
// threshold (float64 bits), the diffusion model, and the shard count
// (fixed at 16; anything else is rejected). Then 6 sections per shard —
// the shard's stripe of the set storage — in shard order: Kinds (u8 per
// entry), Sizes (i32), CompLens (i32), ListData (i32), CompData (u8),
// BitmapData (u64). Then the pool's one inverted index: PostIdx (i64, N+1
// offsets, or empty when the pool is unindexed) and PostData (i32,
// global set ids). Together with the header's (seed, N, count) these
// reconstruct an imm.PoolState exactly; the encoding is canonical — the
// same state always produces identical bytes, which
// FuzzPoolSnapshotRoundTrip pins.
//
// A file of any other version is refused as unsupported — to a serving
// layer, a pool that is not on disk: it rebuilds cold and overwrites the
// file at the next demotion.
//
// Every structural defect — bad magic or version, a checksum mismatch,
// a non-canonical section table, payload extents that disagree with the
// per-entry metadata, unsorted or out-of-range members, a representation
// that contradicts the frozen policy — surfaces as an error wrapping
// ErrPoolSnapshot, never a panic and never a silently-wrong pool.
// Binding staleness (a snapshot frozen at an older graph epoch or
// against different graph content) is a separate condition, reported by
// ValidatePoolGraph as ErrPoolStale so callers can fall back to cold
// regeneration instead of treating the file as corrupt.

// PoolSnapshotVersion is the current .impool format version.
const PoolSnapshotVersion = 2

// PoolSnapshotExt is the conventional file extension.
const PoolSnapshotExt = ".impool"

var poolMagic = [8]byte{'I', 'M', 'P', 'O', 'O', 'L', 0x1a, 0x00}

// ErrPoolSnapshot is wrapped by every structural .impool failure:
// corruption, truncation, checksum mismatches, and invalid pool
// payloads.
var ErrPoolSnapshot = errors.New("ingest: invalid pool snapshot")

// ErrPoolStale is wrapped when a structurally valid snapshot does not
// bind to the graph a caller wants to thaw it against — wrong delta
// epoch, shape, model, or content fingerprint. Stale snapshots are
// safe to discard and regenerate, not corrupt.
var ErrPoolStale = errors.New("ingest: pool snapshot stale")

const (
	poolShardCount     = 16
	poolSecPerShard    = 6
	poolSecPostIdx     = 1 + poolShardCount*poolSecPerShard
	poolSecPostData    = poolSecPostIdx + 1
	poolSectionN       = poolSecPostData + 1
	poolMetaWords      = 7
	poolFlagCompressed = 1 << 0
	poolFlagAdaptive   = 1 << 1
	poolTableSize      = poolSectionN * snapEntrySize
	poolPayloadBase    = (snapHeaderSize + poolTableSize + snapAlign - 1) / snapAlign * snapAlign
)

// PoolSnapshotInfo describes a pool snapshot's header and metadata
// block — everything needed to decide whether to thaw it, without
// touching the payloads.
type PoolSnapshotInfo struct {
	Version      uint32
	Seed         uint64
	N            int32
	M            int64
	Model        graph.Model
	Epoch        int64
	Count        int64
	TotalMembers int64
	GraphSum     uint64
	Compressed   bool
	Adaptive     bool
	RepThreshold float64
	Bytes        int64 // total snapshot size
}

// shardEntries returns how many pool slots shard s holds when the pool
// is count slots long (ids are striped round-robin).
func shardEntries(s int, count int64) int {
	if int64(s) >= count {
		return 0
	}
	return int((count-1-int64(s))/poolShardCount) + 1
}

// poolSection names the array of a state that one section holds; exactly
// one field is set. The list poolSections returns is the format's one
// enumeration: the writer reads through it, both readers fill it.
type poolSection struct {
	i64 *[]int64
	i32 *[]int32
	u8  *[]byte
	u64 *[]uint64
}

// poolSections lists where st's sections live, in file order; meta is
// where the metadata block goes.
func poolSections(st *imm.PoolState, meta *[]int64) []poolSection {
	secs := make([]poolSection, 0, poolSectionN)
	secs = append(secs, poolSection{i64: meta})
	for s := range st.Shards {
		sh := &st.Shards[s]
		secs = append(secs,
			poolSection{u8: &sh.Kinds},
			poolSection{i32: &sh.Sizes},
			poolSection{i32: &sh.CompLens},
			poolSection{i32: &sh.ListData},
			poolSection{u8: &sh.CompData},
			poolSection{u64: &sh.BitmapData},
		)
	}
	return append(secs, poolSection{i64: &st.PostIdx}, poolSection{i32: &st.PostData})
}

func (s poolSection) elemSize() uint32 {
	switch {
	case s.u8 != nil:
		return 1
	case s.i32 != nil:
		return 4
	}
	return 8
}

func (s poolSection) payload() payload {
	switch {
	case s.i64 != nil:
		return payload{i64: *s.i64}
	case s.i32 != nil:
		return payload{i32: *s.i32}
	case s.u8 != nil:
		return payload{u8: *s.u8}
	}
	return payload{u64: *s.u64}
}

// read fills the section from a stream, returning the CRC of what it
// read. An empty section leaves its array nil.
func (s poolSection) read(r io.Reader, byteLen int64) (crc uint32, err error) {
	switch {
	case byteLen == 0:
	case s.i64 != nil:
		*s.i64, crc, err = readI64Section(r, byteLen)
	case s.i32 != nil:
		*s.i32, crc, err = readI32Section(r, byteLen)
	case s.u8 != nil:
		*s.u8, crc, err = readU8Section(r, byteLen)
	default:
		*s.u64, crc, err = readU64Section(r, byteLen)
	}
	return crc, err
}

// poolElemSizes is the element size of every table slot.
var poolElemSizes = func() (sizes [poolSectionN]uint32) {
	for i, s := range poolSections(new(imm.PoolState), new([]int64)) {
		sizes[i] = s.elemSize()
	}
	return sizes
}()

func poolMeta(st *imm.PoolState) []int64 {
	return []int64{
		st.M,
		st.Epoch,
		st.TotalMembers,
		int64(st.GraphSum),
		int64(math.Float64bits(st.RepThreshold)),
		int64(st.Model),
		int64(st.ShardCount()),
	}
}

// poolPayloads returns st's sections as the writer's payloads.
func poolPayloads(st *imm.PoolState) []payload {
	meta := poolMeta(st)
	out := make([]payload, 0, poolSectionN)
	for _, s := range poolSections(st, &meta) {
		out = append(out, s.payload())
	}
	return out
}

// poolLayout computes the canonical section table for the payloads'
// lengths.
func poolLayout(payloads []payload) []snapSection {
	secs := make([]snapSection, len(payloads))
	off := int64(poolPayloadBase)
	for i, p := range payloads {
		sec := &secs[i]
		sec.id, sec.elemSize, sec.byteLen = uint32(i), poolElemSizes[i], p.byteLen()
		if sec.byteLen > 0 {
			off = alignUp(off)
		}
		sec.offset = off
		off += sec.byteLen
	}
	return secs
}

// PoolSnapshotSize returns the exact .impool size for st without
// writing it.
func PoolSnapshotSize(st *imm.PoolState) int64 {
	secs := poolLayout(poolPayloads(st))
	last := secs[len(secs)-1]
	return last.offset + last.byteLen
}

// WritePoolSnapshot writes st as a version-2 .impool stream. The output
// is canonical — the same state always produces identical bytes.
func WritePoolSnapshot(w io.Writer, st *imm.PoolState) error {
	if st == nil {
		return fmt.Errorf("%w: nil pool state", ErrPoolSnapshot)
	}
	if st.ShardCount() != poolShardCount {
		return fmt.Errorf("%w: %d shards, format holds %d", ErrPoolSnapshot, st.ShardCount(), poolShardCount)
	}
	if st.Count < 0 || st.N < 0 {
		return fmt.Errorf("%w: negative shape (n=%d count=%d)", ErrPoolSnapshot, st.N, st.Count)
	}
	payloads := poolPayloads(st)
	secs := poolLayout(payloads)
	for i := range secs {
		secs[i].crc = payloads[i].crc()
	}

	header := make([]byte, snapHeaderSize+poolTableSize)
	copy(header[0:8], poolMagic[:])
	le := binary.LittleEndian
	le.PutUint32(header[8:], PoolSnapshotVersion)
	flags := uint32(0)
	if st.Pool == imm.PoolCompressed {
		flags |= poolFlagCompressed
	}
	if st.AdaptiveRep {
		flags |= poolFlagAdaptive
	}
	le.PutUint32(header[12:], flags)
	le.PutUint64(header[16:], st.Seed)
	le.PutUint64(header[24:], uint64(st.N))
	le.PutUint64(header[32:], uint64(st.Count))
	le.PutUint32(header[40:], poolSectionN)
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

// WritePoolSnapshotFile creates path and writes the snapshot.
func WritePoolSnapshotFile(path string, st *imm.PoolState) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePoolSnapshot(f, st); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parsePoolHeader validates the fixed header plus section table and
// returns the canonical section list with the header-derived info
// fields filled in. header must hold snapHeaderSize+poolTableSize bytes.
func parsePoolHeader(header []byte) ([]snapSection, PoolSnapshotInfo, error) {
	var info PoolSnapshotInfo
	if [8]byte(header[0:8]) != poolMagic {
		return nil, info, fmt.Errorf("%w: bad magic %q", ErrPoolSnapshot, header[0:8])
	}
	le := binary.LittleEndian
	info.Version = le.Uint32(header[8:])
	if info.Version != PoolSnapshotVersion {
		return nil, info, fmt.Errorf("%w: unsupported version %d (want %d)", ErrPoolSnapshot, info.Version, PoolSnapshotVersion)
	}
	flags := le.Uint32(header[12:])
	if flags&^uint32(poolFlagCompressed|poolFlagAdaptive) != 0 {
		return nil, info, fmt.Errorf("%w: unknown flags %#x", ErrPoolSnapshot, flags)
	}
	info.Compressed = flags&poolFlagCompressed != 0
	info.Adaptive = flags&poolFlagAdaptive != 0
	info.Seed = le.Uint64(header[16:])
	n := int64(le.Uint64(header[24:]))
	count := int64(le.Uint64(header[32:]))
	if n < 0 || n > math.MaxInt32 || count < 0 || count > math.MaxInt32 { // postings name sets in 32 bits
		return nil, info, fmt.Errorf("%w: invalid shape n=%d count=%d", ErrPoolSnapshot, n, count)
	}
	info.N, info.Count = int32(n), count
	if secCount := le.Uint32(header[40:]); secCount != poolSectionN {
		return nil, info, fmt.Errorf("%w: %d sections, want %d (16-shard pools only)", ErrPoolSnapshot, secCount, poolSectionN)
	}
	wantCRC := le.Uint32(header[44:])
	gotCRC := crc32.Checksum(header[:44], castagnoli)
	gotCRC = crc32.Update(gotCRC, castagnoli, header[snapHeaderSize:])
	if gotCRC != wantCRC {
		return nil, info, fmt.Errorf("%w: header checksum mismatch", ErrPoolSnapshot)
	}

	// The table's byteLens are data-dependent (unlike .imsnap, whose
	// layout is implied by the graph shape), so canonicality means: ids
	// ordinal, element sizes fixed per slot, lengths that are element
	// multiples and agree with the header's entry counts, and offsets
	// that re-derive exactly from the lengths.
	secs := make([]snapSection, poolSectionN)
	off := int64(poolPayloadBase)
	for i := range secs {
		e := header[snapHeaderSize+i*snapEntrySize:]
		secs[i] = snapSection{
			id:       le.Uint32(e[0:]),
			elemSize: le.Uint32(e[4:]),
			offset:   int64(le.Uint64(e[8:])),
			byteLen:  int64(le.Uint64(e[16:])),
			crc:      le.Uint32(e[24:]),
		}
		sec := &secs[i]
		wantElem := poolElemSizes[i]
		if sec.id != uint32(i) || sec.elemSize != wantElem {
			return nil, info, fmt.Errorf("%w: section %d table entry mismatch", ErrPoolSnapshot, i)
		}
		if sec.byteLen < 0 || sec.byteLen%int64(wantElem) != 0 {
			return nil, info, fmt.Errorf("%w: section %d byte length %d not a multiple of %d", ErrPoolSnapshot, i, sec.byteLen, wantElem)
		}
		if sec.byteLen > 0 {
			off = alignUp(off)
		}
		if sec.offset != off {
			return nil, info, fmt.Errorf("%w: section %d offset %d breaks canonical layout (want %d)", ErrPoolSnapshot, i, sec.offset, off)
		}
		off += sec.byteLen
	}
	if secs[0].byteLen != 8*poolMetaWords {
		return nil, info, fmt.Errorf("%w: metadata section holds %d bytes, want %d", ErrPoolSnapshot, secs[0].byteLen, 8*poolMetaWords)
	}
	for s := 0; s < poolShardCount; s++ {
		entries := int64(shardEntries(s, count))
		meta := secs[1+s*poolSecPerShard:] // Kinds, Sizes, CompLens: one element per entry
		if meta[0].byteLen != entries || meta[1].byteLen != 4*entries || meta[2].byteLen != 4*entries {
			return nil, info, fmt.Errorf("%w: shard %d metadata sections disagree with pool length %d", ErrPoolSnapshot, s, count)
		}
	}
	if pl := secs[poolSecPostIdx].byteLen; pl != 0 && pl != 8*(n+1) {
		return nil, info, fmt.Errorf("%w: index holds %d offset bytes, want 0 or %d", ErrPoolSnapshot, pl, 8*(n+1))
	}
	if secs[poolSecPostIdx].byteLen == 0 && secs[poolSecPostData].byteLen != 0 {
		return nil, info, fmt.Errorf("%w: postings without an offset table", ErrPoolSnapshot)
	}
	info.Bytes = off
	return secs, info, nil
}

// applyPoolMeta folds the decoded metadata section into info and
// validates it.
func applyPoolMeta(meta []int64, info *PoolSnapshotInfo) error {
	if len(meta) != poolMetaWords {
		return fmt.Errorf("%w: metadata section holds %d words, want %d", ErrPoolSnapshot, len(meta), poolMetaWords)
	}
	info.M = meta[0]
	info.Epoch = meta[1]
	info.TotalMembers = meta[2]
	info.GraphSum = uint64(meta[3])
	info.RepThreshold = math.Float64frombits(uint64(meta[4]))
	if info.M < 0 || info.Epoch < 0 || info.TotalMembers < 0 {
		return fmt.Errorf("%w: negative metadata (m=%d epoch=%d members=%d)", ErrPoolSnapshot, info.M, info.Epoch, info.TotalMembers)
	}
	if math.IsNaN(info.RepThreshold) || math.IsInf(info.RepThreshold, 0) || info.RepThreshold < 0 {
		return fmt.Errorf("%w: invalid density threshold %v", ErrPoolSnapshot, info.RepThreshold)
	}
	if meta[5] != int64(graph.IC) && meta[5] != int64(graph.LT) {
		return fmt.Errorf("%w: unknown model %d", ErrPoolSnapshot, meta[5])
	}
	info.Model = graph.Model(meta[5])
	if meta[6] != poolShardCount {
		return fmt.Errorf("%w: %d shards, want %d", ErrPoolSnapshot, meta[6], poolShardCount)
	}
	return nil
}

// bind sets st's graph binding and pool identity from a header's info;
// the payload arrays are the section readers' to fill.
func (info PoolSnapshotInfo) bind(st *imm.PoolState) {
	st.N = info.N
	st.M = info.M
	st.Model = info.Model
	st.Epoch = info.Epoch
	st.GraphSum = info.GraphSum
	st.Seed = info.Seed
	st.AdaptiveRep = info.Adaptive
	st.RepThreshold = info.RepThreshold
	st.Count = info.Count
	st.TotalMembers = info.TotalMembers
	st.Pool = imm.PoolSlices
	if info.Compressed {
		st.Pool = imm.PoolCompressed
	}
}

// readPoolInfo reads and validates the header, the section table and the
// metadata block, leaving r just past the metadata.
func readPoolInfo(r io.Reader) ([]snapSection, PoolSnapshotInfo, error) {
	header := make([]byte, snapHeaderSize+poolTableSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, PoolSnapshotInfo{}, fmt.Errorf("%w: truncated header: %v", ErrPoolSnapshot, err)
	}
	secs, info, err := parsePoolHeader(header)
	if err != nil {
		return nil, info, err
	}
	if err := discard(r, secs[0].offset-int64(len(header))); err != nil {
		return nil, info, fmt.Errorf("%w: truncated before metadata: %v", ErrPoolSnapshot, err)
	}
	meta, crc, err := readI64Section(r, secs[0].byteLen)
	if err != nil {
		return nil, info, fmt.Errorf("%w: truncated metadata: %v", ErrPoolSnapshot, err)
	}
	if crc != secs[0].crc {
		return nil, info, fmt.Errorf("%w: metadata checksum mismatch", ErrPoolSnapshot)
	}
	return secs, info, applyPoolMeta(meta, &info)
}

// ReadPoolSnapshot reads a version-2 .impool stream, verifying magic,
// version, header checksum, canonical section layout, every section
// checksum, and the full structural validity of the pool payloads.
// Allocation is bounded by the bytes actually read.
func ReadPoolSnapshot(r io.Reader) (*imm.PoolState, PoolSnapshotInfo, error) {
	secs, info, err := readPoolInfo(r)
	if err != nil {
		return nil, info, err
	}
	st := new(imm.PoolState)
	info.bind(st)
	targets := poolSections(st, new([]int64)) // the metadata block is already in info
	for i := 1; i < len(secs); i++ {
		sec, prev := secs[i], secs[i-1]
		if err := discard(r, sec.offset-prev.offset-prev.byteLen); err != nil {
			return nil, info, fmt.Errorf("%w: truncated before section %d: %v", ErrPoolSnapshot, i, err)
		}
		crc, err := targets[i].read(r, sec.byteLen)
		if err != nil {
			return nil, info, fmt.Errorf("%w: truncated section %d: %v", ErrPoolSnapshot, i, err)
		}
		if crc != sec.crc {
			return nil, info, fmt.Errorf("%w: section %d checksum mismatch", ErrPoolSnapshot, i)
		}
	}
	if err := validatePoolState(st); err != nil {
		return nil, info, err
	}
	return st, info, nil
}

// ReadPoolSnapshotFile opens path and delegates to ReadPoolSnapshot.
func ReadPoolSnapshotFile(path string) (*imm.PoolState, PoolSnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, PoolSnapshotInfo{}, err
	}
	defer f.Close()
	return ReadPoolSnapshot(bufio.NewReaderSize(f, snapChunk))
}

// readPoolSnapshotOwned is MapPoolSnapshot where there is nothing to
// map: the streaming reader's state owns heap copies instead of aliasing
// the file, and the release it returns does nothing.
func readPoolSnapshotOwned(path string) (*imm.PoolState, PoolSnapshotInfo, func(), error) {
	st, info, err := ReadPoolSnapshotFile(path)
	if err != nil {
		return nil, info, nil, err
	}
	return st, info, func() {}, nil
}

// MapPoolSnapshotFile is MapPoolSnapshot for callers with no moment at
// which the state dies — one-shot tools and probes: the mapping lives
// until the process exits. A server, which promotes without bound, must
// own its mappings through MapPoolSnapshot.
func MapPoolSnapshotFile(path string) (*imm.PoolState, PoolSnapshotInfo, error) {
	st, info, _, err := MapPoolSnapshot(path)
	return st, info, err
}

// ReadPoolSnapshotInfo reads only the header, section table, and
// metadata block — enough to decide whether a snapshot is worth
// thawing — without touching the payload sections.
func ReadPoolSnapshotInfo(r io.Reader) (PoolSnapshotInfo, error) {
	_, info, err := readPoolInfo(r)
	return info, err
}

// ReadPoolSnapshotInfoFile opens path and delegates to
// ReadPoolSnapshotInfo.
func ReadPoolSnapshotInfoFile(path string) (PoolSnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return PoolSnapshotInfo{}, err
	}
	defer f.Close()
	return ReadPoolSnapshotInfo(bufio.NewReaderSize(f, snapChunk))
}

// ValidatePoolGraph checks a decoded pool state against the graph (and
// graph delta epoch) a caller wants to thaw it on. A mismatch returns
// ErrPoolStale: the snapshot is internally consistent but was frozen
// against different graph content, so thawing it would serve wrong
// answers — the caller regenerates cold (or repairs) instead.
func ValidatePoolGraph(st *imm.PoolState, g *graph.Graph, epoch int64) error {
	if st.Epoch != epoch {
		return fmt.Errorf("%w: frozen at graph epoch %d, graph is at %d", ErrPoolStale, st.Epoch, epoch)
	}
	if g.N != st.N || g.M != st.M || g.Model() != st.Model {
		return fmt.Errorf("%w: graph shape/model (%d, %d, %v) vs frozen (%d, %d, %v)",
			ErrPoolStale, g.N, g.M, g.Model(), st.N, st.M, st.Model)
	}
	if sum := imm.GraphChecksum(g); sum != st.GraphSum {
		return fmt.Errorf("%w: graph content fingerprint %#x vs frozen %#x", ErrPoolStale, sum, st.GraphSum)
	}
	return nil
}

// validatePoolState performs the full structural audit of a decoded
// state: per-entry metadata consistent with the blobs, every member
// list sorted and in range, bitmap rows exactly (N+63)/64 words with
// clear tail bits and a popcount matching the cached size, every
// representation the one the frozen policy dictates, and the inverted
// index a well-formed CSR over the pool: offsets monotone from 0 to the
// posting total, that total the member total, every segment's ids
// strictly ascending and below the pool length. Nothing downstream (thaw,
// selection) re-validates, so everything that could panic or silently
// corrupt an answer is rejected here.
func validatePoolState(st *imm.PoolState) error {
	policy := imm.PolicyFromOptions(imm.Options{
		Pool:         st.Pool,
		AdaptiveRep:  st.AdaptiveRep,
		RepThreshold: st.RepThreshold,
	})
	n := st.N
	words := (int(n) + 63) / 64
	var members int64
	for s := range st.Shards {
		sh := &st.Shards[s]
		entries := shardEntries(s, st.Count)
		if len(sh.Kinds) != entries || len(sh.Sizes) != entries || len(sh.CompLens) != entries {
			return fmt.Errorf("%w: shard %d holds %d entries, pool length %d needs %d", ErrPoolSnapshot, s, len(sh.Kinds), st.Count, entries)
		}
		var lc, cc, bc int
		for j := 0; j < entries; j++ {
			size := int(sh.Sizes[j])
			if size < 0 || size > int(n) {
				return fmt.Errorf("%w: shard %d entry %d size %d out of range [0, %d]", ErrPoolSnapshot, s, j, size, n)
			}
			wantBitmap := policy.Adaptive && n > 0 && float64(size) >= policy.DensityThreshold*float64(n)
			wantKind := uint8(imm.PoolSetList)
			switch {
			case wantBitmap:
				wantKind = imm.PoolSetBitmap
			case policy.Compress:
				wantKind = imm.PoolSetCompressed
			}
			if sh.Kinds[j] != wantKind {
				return fmt.Errorf("%w: shard %d entry %d stored as kind %d, policy dictates %d", ErrPoolSnapshot, s, j, sh.Kinds[j], wantKind)
			}
			if sh.Kinds[j] != imm.PoolSetCompressed && sh.CompLens[j] != 0 {
				return fmt.Errorf("%w: shard %d entry %d carries a compressed length but is not compressed", ErrPoolSnapshot, s, j)
			}
			switch sh.Kinds[j] {
			case imm.PoolSetList:
				if lc+size > len(sh.ListData) {
					return fmt.Errorf("%w: shard %d list payload overrun at entry %d", ErrPoolSnapshot, s, j)
				}
				prev := int32(-1)
				for _, v := range sh.ListData[lc : lc+size] {
					if v <= prev || v >= n {
						return fmt.Errorf("%w: shard %d entry %d member %d unsorted or out of range", ErrPoolSnapshot, s, j, v)
					}
					prev = v
				}
				lc += size
			case imm.PoolSetCompressed:
				cl := int(sh.CompLens[j])
				if cl < 0 || cc+cl > len(sh.CompData) {
					return fmt.Errorf("%w: shard %d compressed payload overrun at entry %d", ErrPoolSnapshot, s, j)
				}
				data := sh.CompData[cc : cc+cl]
				got := 0
				prev := int32(-1)
				bad := false
				if err := compress.ForEachPlain(data, func(v int32) {
					if v <= prev || v >= n {
						bad = true
					}
					prev = v
					got++
				}); err != nil || bad || got != size {
					return fmt.Errorf("%w: shard %d entry %d compressed payload invalid", ErrPoolSnapshot, s, j)
				}
				cc += cl
			case imm.PoolSetBitmap:
				if bc+words > len(sh.BitmapData) {
					return fmt.Errorf("%w: shard %d bitmap payload overrun at entry %d", ErrPoolSnapshot, s, j)
				}
				row := sh.BitmapData[bc : bc+words]
				pop := 0
				for _, w := range row {
					pop += bits.OnesCount64(w)
				}
				if tail := int(n) % 64; tail != 0 && words > 0 && row[words-1]>>uint(tail) != 0 {
					return fmt.Errorf("%w: shard %d entry %d bitmap has bits beyond vertex %d", ErrPoolSnapshot, s, j, n)
				}
				if pop != size {
					return fmt.Errorf("%w: shard %d entry %d bitmap popcount %d != size %d", ErrPoolSnapshot, s, j, pop, size)
				}
				bc += words
			default:
				return fmt.Errorf("%w: shard %d entry %d has unknown set kind %d", ErrPoolSnapshot, s, j, sh.Kinds[j])
			}
			members += int64(size)
		}
		if lc != len(sh.ListData) || cc != len(sh.CompData) || bc != len(sh.BitmapData) {
			return fmt.Errorf("%w: shard %d payload blobs larger than its entries consume", ErrPoolSnapshot, s)
		}
	}
	if members != st.TotalMembers {
		return fmt.Errorf("%w: member sum %d != recorded total %d", ErrPoolSnapshot, members, st.TotalMembers)
	}
	if st.PostIdx == nil {
		if len(st.PostData) != 0 {
			return fmt.Errorf("%w: postings without an offset table", ErrPoolSnapshot)
		}
		return nil
	}
	if len(st.PostIdx) != int(n)+1 {
		return fmt.Errorf("%w: index holds %d offsets, want %d", ErrPoolSnapshot, len(st.PostIdx), int(n)+1)
	}
	if int64(len(st.PostData)) != members {
		return fmt.Errorf("%w: index holds %d postings for %d members", ErrPoolSnapshot, len(st.PostData), members)
	}
	if st.PostIdx[0] != 0 || st.PostIdx[n] != members {
		return fmt.Errorf("%w: index offsets do not span its postings", ErrPoolSnapshot)
	}
	for v := int32(0); v < n; v++ {
		lo, hi := st.PostIdx[v], st.PostIdx[v+1]
		if lo > hi || hi > members {
			return fmt.Errorf("%w: index offsets decrease or overrun at vertex %d", ErrPoolSnapshot, v)
		}
		prev := int32(-1)
		for _, id := range st.PostData[lo:hi] {
			if id <= prev || int64(id) >= st.Count {
				return fmt.Errorf("%w: posting %d at vertex %d unsorted, duplicated or out of range", ErrPoolSnapshot, id, v)
			}
			prev = id
		}
	}
	return nil
}
