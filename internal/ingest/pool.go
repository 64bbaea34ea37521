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

// The .impool binary pool-snapshot format, version 1 — the warm-pool
// persistence companion to .imsnap/.imdelta. All integers are
// little-endian. Like its siblings it is a fixed header, a section
// table, and raw payloads at 64-byte-aligned offsets, CRC32-C-checked
// per section and over the header, so a reader can either stream-decode
// or mmap the file and alias every section in place.
//
//	offset  size  field
//	0       8     magic "IMPOOL\x1a\x00"
//	8       4     format version (1)
//	12      4     flags (bit 0: compressed pool kind, bit 1: adaptive representation)
//	16      8     pool RNG seed
//	24      8     N (vertices of the bound graph)
//	32      8     pool length (slots generated)
//	40      4     section count (129)
//	44      4     CRC32-C of bytes [0,44) + the section table
//	48      129×32 section table (same entry shape as .imsnap)
//	…             payloads, 64-byte aligned, zero-padded between
//
// Section 0 is the metadata block: 7 little-endian int64 words — graph
// edge count M, graph delta epoch, total pool members Σ|R|, the
// GraphChecksum content fingerprint, the representation density
// threshold (float64 bits), the diffusion model, and the shard count
// (fixed at 16 in version 1; anything else is rejected). Then 8
// sections per shard, in shard order: Kinds (u8 per entry), Sizes
// (i32), CompLens (i32), ListData (i32), CompData (u8), BitmapData
// (u64), PostIdx (i32, N+1 offsets or empty when the shard is
// unindexed), PostData (i32). Together with the header's (seed, N,
// count) these reconstruct an imm.PoolState exactly; the encoding is
// canonical — the same state always produces identical bytes, which
// FuzzPoolSnapshotRoundTrip pins.
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
const PoolSnapshotVersion = 1

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
	poolShardsV1       = 16
	poolSecPerShard    = 8
	poolSectionN       = 1 + poolShardsV1*poolSecPerShard
	poolMetaWords      = 7
	poolFlagCompressed = 1 << 0
	poolFlagAdaptive   = 1 << 1
	poolTableSize      = poolSectionN * snapEntrySize
	poolPayloadBase    = (snapHeaderSize + poolTableSize + snapAlign - 1) / snapAlign * snapAlign
)

// Per-shard section kinds, in file order.
const (
	poolSecKinds = iota
	poolSecSizes
	poolSecCompLens
	poolSecListData
	poolSecCompData
	poolSecBitmapData
	poolSecPostIdx
	poolSecPostData
)

// poolElemSizes maps a per-shard section kind to its element size.
var poolElemSizes = [poolSecPerShard]uint32{1, 4, 4, 4, 1, 8, 4, 4}

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
	return int((count-1-int64(s))/poolShardsV1) + 1
}

// poolLayout computes the canonical section table for a state's
// payload lengths.
func poolLayout(st *imm.PoolState) []snapSection {
	secs := make([]snapSection, 0, poolSectionN)
	secs = append(secs, snapSection{id: 0, elemSize: 8, byteLen: 8 * poolMetaWords})
	for s := range st.Shards {
		sh := &st.Shards[s]
		lens := [poolSecPerShard]int64{
			int64(len(sh.Kinds)),
			4 * int64(len(sh.Sizes)),
			4 * int64(len(sh.CompLens)),
			4 * int64(len(sh.ListData)),
			int64(len(sh.CompData)),
			8 * int64(len(sh.BitmapData)),
			4 * int64(len(sh.PostIdx)),
			4 * int64(len(sh.PostData)),
		}
		for k := 0; k < poolSecPerShard; k++ {
			secs = append(secs, snapSection{
				id:       uint32(1 + s*poolSecPerShard + k),
				elemSize: poolElemSizes[k],
				byteLen:  lens[k],
			})
		}
	}
	off := int64(poolPayloadBase)
	for i := range secs {
		if secs[i].byteLen > 0 {
			off = alignUp(off)
		}
		secs[i].offset = off
		off += secs[i].byteLen
	}
	return secs
}

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

func poolPayloads(st *imm.PoolState) []payload {
	out := make([]payload, 0, poolSectionN)
	out = append(out, payload{i64: poolMeta(st)})
	for s := range st.Shards {
		sh := &st.Shards[s]
		out = append(out,
			payload{u8: sh.Kinds},
			payload{i32: sh.Sizes},
			payload{i32: sh.CompLens},
			payload{i32: sh.ListData},
			payload{u8: sh.CompData},
			payload{u64: sh.BitmapData},
			payload{i32: sh.PostIdx},
			payload{i32: sh.PostData},
		)
	}
	return out
}

// PoolSnapshotSize returns the exact .impool size for st without
// writing it.
func PoolSnapshotSize(st *imm.PoolState) int64 {
	secs := poolLayout(st)
	last := secs[len(secs)-1]
	return last.offset + last.byteLen
}

// WritePoolSnapshot writes st as a version-1 .impool stream. The output
// is canonical — the same state always produces identical bytes.
func WritePoolSnapshot(w io.Writer, st *imm.PoolState) error {
	if st == nil {
		return fmt.Errorf("%w: nil pool state", ErrPoolSnapshot)
	}
	if st.ShardCount() != poolShardsV1 {
		return fmt.Errorf("%w: %d shards, format holds %d", ErrPoolSnapshot, st.ShardCount(), poolShardsV1)
	}
	if st.Count < 0 || st.N < 0 {
		return fmt.Errorf("%w: negative shape (n=%d count=%d)", ErrPoolSnapshot, st.N, st.Count)
	}
	secs := poolLayout(st)
	payloads := poolPayloads(st)
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
	if n < 0 || n > math.MaxInt32 || count < 0 || count > math.MaxInt64/16 {
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
		wantElem := uint32(8)
		if i > 0 {
			wantElem = poolElemSizes[(i-1)%poolSecPerShard]
		}
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
	for s := 0; s < poolShardsV1; s++ {
		entries := int64(shardEntries(s, count))
		base := 1 + s*poolSecPerShard
		if secs[base+poolSecKinds].byteLen != entries ||
			secs[base+poolSecSizes].byteLen != 4*entries ||
			secs[base+poolSecCompLens].byteLen != 4*entries {
			return nil, info, fmt.Errorf("%w: shard %d metadata sections disagree with pool length %d", ErrPoolSnapshot, s, count)
		}
		if pl := secs[base+poolSecPostIdx].byteLen; pl != 0 && pl != 4*(n+1) {
			return nil, info, fmt.Errorf("%w: shard %d index holds %d offset bytes, want 0 or %d", ErrPoolSnapshot, s, pl, 4*(n+1))
		}
		if secs[base+poolSecPostIdx].byteLen == 0 && secs[base+poolSecPostData].byteLen != 0 {
			return nil, info, fmt.Errorf("%w: shard %d has postings without an offset table", ErrPoolSnapshot, s)
		}
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
	if meta[6] != poolShardsV1 {
		return fmt.Errorf("%w: %d shards, want %d", ErrPoolSnapshot, meta[6], poolShardsV1)
	}
	return nil
}

func poolStateShell(info PoolSnapshotInfo) *imm.PoolState {
	st := &imm.PoolState{
		N:            info.N,
		M:            info.M,
		Model:        info.Model,
		Epoch:        info.Epoch,
		GraphSum:     info.GraphSum,
		Seed:         info.Seed,
		Pool:         imm.PoolSlices,
		AdaptiveRep:  info.Adaptive,
		RepThreshold: info.RepThreshold,
		Count:        info.Count,
		TotalMembers: info.TotalMembers,
	}
	if info.Compressed {
		st.Pool = imm.PoolCompressed
	}
	return st
}

// ReadPoolSnapshot reads a version-1 .impool stream, verifying magic,
// version, header checksum, canonical section layout, every section
// checksum, and the full structural validity of the pool payloads.
// Allocation is bounded by the bytes actually read.
func ReadPoolSnapshot(r io.Reader) (*imm.PoolState, PoolSnapshotInfo, error) {
	header := make([]byte, snapHeaderSize+poolTableSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, PoolSnapshotInfo{}, fmt.Errorf("%w: truncated header: %v", ErrPoolSnapshot, err)
	}
	secs, info, err := parsePoolHeader(header)
	if err != nil {
		return nil, info, err
	}

	var meta []int64
	var st *imm.PoolState
	pos := int64(len(header))
	for i, sec := range secs {
		if err := discard(r, sec.offset-pos); err != nil {
			return nil, info, fmt.Errorf("%w: truncated before section %d: %v", ErrPoolSnapshot, i, err)
		}
		var crc uint32
		var err error
		if i == 0 {
			meta, crc, err = readI64Section(r, sec.byteLen)
			if err == nil {
				if merr := applyPoolMeta(meta, &info); merr != nil {
					return nil, info, merr
				}
				st = poolStateShell(info)
			}
		} else {
			sh := &st.Shards[(i-1)/poolSecPerShard]
			switch (i - 1) % poolSecPerShard {
			case poolSecKinds:
				sh.Kinds, crc, err = readU8Section(r, sec.byteLen)
			case poolSecSizes:
				sh.Sizes, crc, err = readI32Section(r, sec.byteLen)
			case poolSecCompLens:
				sh.CompLens, crc, err = readI32Section(r, sec.byteLen)
			case poolSecListData:
				sh.ListData, crc, err = readI32Section(r, sec.byteLen)
			case poolSecCompData:
				sh.CompData, crc, err = readU8Section(r, sec.byteLen)
			case poolSecBitmapData:
				sh.BitmapData, crc, err = readU64Section(r, sec.byteLen)
			case poolSecPostIdx:
				sh.PostIdx, crc, err = readI32Section(r, sec.byteLen)
			case poolSecPostData:
				sh.PostData, crc, err = readI32Section(r, sec.byteLen)
			}
		}
		if err != nil {
			return nil, info, fmt.Errorf("%w: truncated section %d: %v", ErrPoolSnapshot, i, err)
		}
		if crc != sec.crc {
			return nil, info, fmt.Errorf("%w: section %d checksum mismatch", ErrPoolSnapshot, i)
		}
		pos = sec.offset + sec.byteLen
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
	header := make([]byte, snapHeaderSize+poolTableSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return PoolSnapshotInfo{}, fmt.Errorf("%w: truncated header: %v", ErrPoolSnapshot, err)
	}
	secs, info, err := parsePoolHeader(header)
	if err != nil {
		return info, err
	}
	if err := discard(r, secs[0].offset-int64(len(header))); err != nil {
		return info, fmt.Errorf("%w: truncated before metadata: %v", ErrPoolSnapshot, err)
	}
	meta, crc, err := readI64Section(r, secs[0].byteLen)
	if err != nil {
		return info, fmt.Errorf("%w: truncated metadata: %v", ErrPoolSnapshot, err)
	}
	if crc != secs[0].crc {
		return info, fmt.Errorf("%w: metadata checksum mismatch", ErrPoolSnapshot)
	}
	if err := applyPoolMeta(meta, &info); err != nil {
		return info, err
	}
	return info, nil
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
// index a well-formed CSR over the shard. Nothing downstream (thaw,
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
		if sh.PostIdx != nil {
			if len(sh.PostIdx) != int(n)+1 {
				return fmt.Errorf("%w: shard %d index holds %d offsets, want %d", ErrPoolSnapshot, s, len(sh.PostIdx), int(n)+1)
			}
			if sh.PostIdx[0] != 0 || int(sh.PostIdx[n]) != len(sh.PostData) {
				return fmt.Errorf("%w: shard %d index bounds do not cover its postings", ErrPoolSnapshot, s)
			}
			for v := int32(0); v < n; v++ {
				lo, hi := sh.PostIdx[v], sh.PostIdx[v+1]
				if lo > hi {
					return fmt.Errorf("%w: shard %d index offsets decrease at vertex %d", ErrPoolSnapshot, s, v)
				}
				prev := int32(-1)
				for _, id := range sh.PostData[lo:hi] {
					if id <= prev || int(id) >= entries {
						return fmt.Errorf("%w: shard %d posting %d at vertex %d unsorted or out of range", ErrPoolSnapshot, s, id, v)
					}
					prev = id
				}
			}
		} else if len(sh.PostData) != 0 {
			return fmt.Errorf("%w: shard %d has postings without an offset table", ErrPoolSnapshot, s)
		}
	}
	if members != st.TotalMembers {
		return fmt.Errorf("%w: member sum %d != recorded total %d", ErrPoolSnapshot, members, st.TotalMembers)
	}
	return nil
}
