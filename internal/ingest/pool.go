package ingest

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/imm"
)

// The .impool binary pool-snapshot format, version 7 — the warm-pool
// persistence companion to .imsnap/.imdelta: a container (container.go)
// holding one frozen pool, which a reader either stream-decodes or maps
// and aliases in place.
//
//	magic    "IMPOOL\x1a\x00"
//	word     flags (none defined: every bit must be clear)
//	words    pool RNG seed, N (vertices of the bound graph), pool length (slots generated)
//
// 9 sections. Section 0 is the metadata block: 5 little-endian int64
// words — graph edge count M, graph delta epoch, total pool members Σ|R|,
// the GraphChecksum content fingerprint and the diffusion model. Then the
// set storage in set-id order: Sizes (i32 per set), ListData (i32),
// BitmapData (u64). A set's size decides its representation: under the
// default policy (imm.PolicyFromOptions(imm.Defaults()), the only one a
// warm pool runs) rrr.Policy.Dense of the size says bitmap row or sorted
// list, so the file records no kind. Then the pool's one inverted index:
// PostIdx (i64, N+1 offsets over the vertices' occurrence counts, empty
// exactly when the pool holds no set),
// PostData (i32, the ascending set ids of the vertices whose count the
// policy calls sparse over the pool length) and PostRows (u64, a row of
// (length+63)/64 words over set ids for each other vertex), both in vertex
// order: like a set's, a vertex's kind follows from its count. Then the
// pool's selection memo as it stood when the file was written: MemoTable
// (i64, 6 words per entry, oldest first — view limit, k, workers, base
// flag 0/1, coverage and modeled ops as float64 bits) and MemoSeeds (i32,
// every entry's min(k, N) seeds concatenated in entry order). The header
// implies the metadata and Sizes lengths and PostIdx's; the blobs' and
// the memo's are data-dependent. Together with the header words these
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
// sizes under the frozen policy, unsorted or out-of-range members, a
// memo entry that is not a selection this pool could have run —
// surfaces as an error wrapping ErrPoolSnapshot, never a panic and never
// a silently-wrong pool.
// Binding staleness (a snapshot frozen at an older graph epoch or
// against different graph content) is a separate condition, reported by
// ValidatePoolGraph as ErrPoolStale so callers can fall back to cold
// regeneration instead of treating the file as corrupt.

// PoolSnapshotVersion is the current .impool format version.
const PoolSnapshotVersion = 7

// PoolSnapshotExt is the conventional file extension.
const PoolSnapshotExt = ".impool"

// ErrPoolSnapshot is wrapped by every structural .impool failure:
// corruption, truncation, checksum mismatches, and invalid pool
// payloads.
var ErrPoolSnapshot = errors.New("ingest: invalid pool snapshot")

// ErrPoolStale is wrapped when a structurally valid snapshot does not
// bind to the graph a caller wants to thaw it against — wrong delta
// epoch, shape, model, or content fingerprint. Stale snapshots are
// safe to discard and regenerate, not corrupt.
var ErrPoolStale = errors.New("ingest: pool snapshot stale")

// Section ids, in file order.
const (
	poolSecMeta = iota
	poolSecSizes
	poolSecListData
	poolSecBitmapData
	poolSecPostIdx
	poolSecPostData
	poolSecPostRows
	poolSecMemo
	poolSecMemoSeeds
	poolSectionN
)

const (
	poolMetaWords = 5
	poolMemoWords = 6 // per memo entry: limit, k, workers, base, coverage bits, ops bits
)

var poolSchema = schema{
	magic:   [8]byte{'I', 'M', 'P', 'O', 'O', 'L', 0x1a, 0x00},
	version: PoolSnapshotVersion,
	err:     ErrPoolSnapshot,
}

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
	Bytes        int64 // total snapshot size
}

// poolFlat holds what a pool file stores beside the state's own arrays:
// the metadata block and the memo, flattened into its two sections.
type poolFlat struct {
	meta  []int64
	memo  []int64 // poolMemoWords per entry
	seeds []int32 // the entries' seeds, concatenated in entry order
}

// poolSections lists where st's sections live, in file order: in f, the
// ones the state does not hold itself. It is the format's one enumeration: the
// writer reads through it, both readers fill it.
func poolSections(st *imm.PoolState, f *poolFlat) []section {
	return []section{
		sec(&f.meta), sec(&st.Sizes), sec(&st.ListData), sec(&st.BitmapData),
		sec(&st.PostIdx), sec(&st.PostData), sec(&st.PostRows), sec(&f.memo), sec(&f.seeds),
	}
}

// poolShape is the sections' shapes, to validate a table against before
// there is a state to read into.
var poolShape = poolSections(new(imm.PoolState), new(poolFlat))

// poolPayloads returns st's sections as the writer's payloads.
func poolPayloads(st *imm.PoolState) []section {
	f := poolFlat{meta: []int64{
		st.M,
		st.Epoch,
		st.TotalMembers,
		int64(st.GraphSum),
		int64(st.Model),
	}}
	for _, e := range st.Memo {
		base := int64(0)
		if e.Base {
			base = 1
		}
		f.memo = append(f.memo, e.Limit, int64(e.K), int64(e.Workers), base,
			int64(math.Float64bits(e.Coverage)), int64(math.Float64bits(e.Ops)))
		f.seeds = append(f.seeds, e.Seeds...)
	}
	return poolSections(st, &f)
}

// memoInt narrows a stored k or worker count; one no int32 holds becomes
// -1, which the memo audit refuses.
func memoInt(v int64) int {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return -1
	}
	return int(v)
}

// unflattenMemo rebuilds st.Memo from the two memo sections: entry i owns
// the next min(k, N) seeds, and the seed section must hold exactly what
// the entries claim. The seeds alias f.seeds. What the entries hold is
// validatePoolState's to audit.
func (f *poolFlat) unflattenMemo(st *imm.PoolState) error {
	n := len(f.memo) / poolMemoWords
	if n == 0 && len(f.seeds) == 0 {
		return nil
	}
	st.Memo = make([]imm.PoolMemoEntry, n)
	next := 0
	for i := range st.Memo {
		w := f.memo[i*poolMemoWords : (i+1)*poolMemoWords]
		if w[3] != 0 && w[3] != 1 {
			return poolSchema.errorf("memo entry %d base flag %d, want 0 or 1", i, w[3])
		}
		e := imm.PoolMemoEntry{
			Limit:    w[0],
			K:        memoInt(w[1]),
			Workers:  memoInt(w[2]),
			Base:     w[3] == 1,
			Coverage: math.Float64frombits(uint64(w[4])),
			Ops:      math.Float64frombits(uint64(w[5])),
		}
		take := min(max(e.K, 0), int(st.N))
		if take > len(f.seeds)-next {
			return poolSchema.errorf("memo seed count: entry %d needs %d seeds, the section holds %d more", i, take, len(f.seeds)-next)
		}
		e.Seeds = f.seeds[next : next+take : next+take]
		next += take
		st.Memo[i] = e
	}
	if next != len(f.seeds) {
		return poolSchema.errorf("memo seed count: entries hold %d seeds, the section %d", next, len(f.seeds))
	}
	return nil
}

// PoolSnapshotSize returns the exact .impool size for st without
// writing it.
func PoolSnapshotSize(st *imm.PoolState) int64 { return containerSize(poolPayloads(st)) }

// WritePoolSnapshot writes st as a version-7 .impool stream. The output
// is canonical — the same state always produces identical bytes.
func WritePoolSnapshot(w io.Writer, st *imm.PoolState) error {
	if st == nil {
		return fmt.Errorf("%w: nil pool state", ErrPoolSnapshot)
	}
	if st.Count < 0 || st.N < 0 {
		return fmt.Errorf("%w: negative shape (n=%d count=%d)", ErrPoolSnapshot, st.N, st.Count)
	}
	h := header{words: [3]uint64{st.Seed, uint64(st.N), uint64(st.Count)}}
	return poolSchema.write(w, h, poolPayloads(st))
}

// WritePoolSnapshotFile creates path and writes the snapshot.
func WritePoolSnapshotFile(path string, st *imm.PoolState) error {
	return createFile(path, func(w io.Writer) error { return WritePoolSnapshot(w, st) })
}

// poolInfo maps a pool header's words and checks the table's lengths
// against what they imply.
func poolInfo(h header, ents []entry) (PoolSnapshotInfo, error) {
	info := PoolSnapshotInfo{Version: PoolSnapshotVersion, Seed: h.words[0]}
	if h.word != 0 {
		return info, poolSchema.errorf("unknown flags %#x", h.word)
	}
	n, count := int64(h.words[1]), int64(h.words[2])
	if n < 0 || n > math.MaxInt32 || count < 0 || count > math.MaxInt32 { // postings name sets in 32 bits
		return info, poolSchema.errorf("invalid shape n=%d count=%d", n, count)
	}
	info.N = int32(n)
	info.Count = count
	info.Bytes = ents[len(ents)-1].end()
	if ents[poolSecMeta].byteLen != 8*poolMetaWords {
		return info, poolSchema.errorf("metadata section holds %d bytes, want %d", ents[poolSecMeta].byteLen, 8*poolMetaWords)
	}
	if ents[poolSecSizes].byteLen != 4*count {
		return info, poolSchema.errorf("sizes section disagrees with pool length %d", count)
	}
	if pl := ents[poolSecPostIdx].byteLen; pl != 0 && pl != 8*(n+1) {
		return info, poolSchema.errorf("index holds %d offset bytes, want 0 or %d", pl, 8*(n+1))
	}
	if ents[poolSecPostIdx].byteLen == 0 && ents[poolSecPostData].byteLen+ents[poolSecPostRows].byteLen != 0 {
		return info, poolSchema.errorf("postings without an offset table")
	}
	if ml := ents[poolSecMemo].byteLen; ml%(8*poolMemoWords) != 0 {
		return info, poolSchema.errorf("memo table holds %d bytes, not whole %d-byte entries", ml, 8*poolMemoWords)
	}
	return info, nil
}

// applyPoolMeta folds the decoded metadata section into info and
// validates it.
func applyPoolMeta(meta []int64, info *PoolSnapshotInfo) error {
	info.M = meta[0]
	info.Epoch = meta[1]
	info.TotalMembers = meta[2]
	info.GraphSum = uint64(meta[3])
	if info.M < 0 || info.Epoch < 0 || info.TotalMembers < 0 {
		return fmt.Errorf("%w: negative metadata (m=%d epoch=%d members=%d)", ErrPoolSnapshot, info.M, info.Epoch, info.TotalMembers)
	}
	if meta[4] != int64(graph.IC) && meta[4] != int64(graph.LT) {
		return fmt.Errorf("%w: unknown model %d", ErrPoolSnapshot, meta[4])
	}
	info.Model = graph.Model(meta[4])
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
	st.Count = info.Count
	st.TotalMembers = info.TotalMembers
}

// readPoolInfo reads and validates the header, the section table and the
// metadata block, leaving r just past the metadata.
func readPoolInfo(r io.Reader) ([]entry, PoolSnapshotInfo, error) {
	h, ents, err := poolSchema.readHeader(r, poolShape)
	if err != nil {
		return nil, PoolSnapshotInfo{}, err
	}
	info, err := poolInfo(h, ents)
	if err != nil {
		return nil, info, err
	}
	var meta []int64
	if err := poolSchema.readSections(r, tableEnd(poolSectionN), []section{sec(&meta)}, ents[:1]); err != nil {
		return nil, info, err
	}
	return ents, info, applyPoolMeta(meta, &info)
}

// ReadPoolSnapshot reads a version-7 .impool stream, verifying the
// header, the canonical table, every section checksum, and the full
// structural validity of the pool payloads and memo.
func ReadPoolSnapshot(r io.Reader) (*imm.PoolState, PoolSnapshotInfo, error) {
	ents, info, err := readPoolInfo(r)
	if err != nil {
		return nil, info, err
	}
	st := new(imm.PoolState)
	info.bind(st)
	var f poolFlat
	secs := poolSections(st, &f) // the metadata block is already in info
	if err := poolSchema.readSections(r, ents[0].end(), secs[1:], ents[1:]); err != nil {
		return nil, info, err
	}
	if err := f.unflattenMemo(st); err != nil {
		return nil, info, err
	}
	if err := validatePoolState(st); err != nil {
		return nil, info, err
	}
	return st, info, nil
}

// ReadPoolSnapshotFile opens path and delegates to ReadPoolSnapshot.
func ReadPoolSnapshotFile(path string) (st *imm.PoolState, info PoolSnapshotInfo, err error) {
	err = openFile(path, chunk, func(r io.Reader) error {
		st, info, err = ReadPoolSnapshot(r)
		return err
	})
	return st, info, err
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
// ReadPoolSnapshotInfo, buffering just the header, table and metadata.
func ReadPoolSnapshotInfoFile(path string) (info PoolSnapshotInfo, err error) {
	err = openFile(path, int(alignUp(tableEnd(poolSectionN))+8*poolMetaWords), func(r io.Reader) error {
		info, err = ReadPoolSnapshotInfo(r)
		return err
	})
	return info, err
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
// state: a size for every set, each set's payload in the blob its size
// selects under the default policy (rrr.Policy.Dense), the blobs consumed
// exactly, every member list sorted and in range, bitmap rows exactly
// (N+63)/64 words with clear tail bits and a popcount matching the size;
// the inverted index absent from an empty pool (the writer's only
// encoding of one) and otherwise a well-formed index over the pool:
// offsets monotone from 0 to the posting total, that total the member
// total, each vertex's postings in the blob its count selects over the
// pool length, the blobs consumed exactly, every list strictly ascending
// and below the pool length, every row with no bit at or past it and a
// popcount matching the count; and the memo what
// imm.PoolState.ValidateMemo accepts. Nothing downstream (thaw,
// selection) re-validates the payloads, so everything that could panic or
// silently corrupt an answer is rejected here.
func validatePoolState(st *imm.PoolState) error {
	if err := st.ValidateMemo(); err != nil {
		return poolSchema.errorf("%v", err)
	}
	policy := imm.PolicyFromOptions(imm.Defaults())
	n := st.N
	words := (int(n) + 63) / 64
	denseSet := policy.MinDense(n)
	if int64(len(st.Sizes)) != st.Count {
		return fmt.Errorf("%w: %d set sizes for a pool of %d sets", ErrPoolSnapshot, len(st.Sizes), st.Count)
	}
	var members int64
	var lc, bc int
	for i, size32 := range st.Sizes {
		size := int(size32)
		if size < 0 || size > int(n) {
			return fmt.Errorf("%w: set %d size %d out of range [0, %d]", ErrPoolSnapshot, i, size, n)
		}
		if int64(size) >= denseSet {
			if bc+words > len(st.BitmapData) {
				return fmt.Errorf("%w: set %d bitmap payload overrun", ErrPoolSnapshot, i)
			}
			row := st.BitmapData[bc : bc+words]
			pop := 0
			for _, w := range row {
				pop += bits.OnesCount64(w)
			}
			if tail := int(n) % 64; tail != 0 && words > 0 && row[words-1]>>uint(tail) != 0 {
				return fmt.Errorf("%w: set %d bitmap has bits beyond vertex %d", ErrPoolSnapshot, i, n)
			}
			if pop != size {
				return fmt.Errorf("%w: set %d bitmap popcount %d != size %d", ErrPoolSnapshot, i, pop, size)
			}
			bc += words
		} else {
			if lc+size > len(st.ListData) {
				return fmt.Errorf("%w: set %d list payload overrun", ErrPoolSnapshot, i)
			}
			prev := int32(-1)
			for _, v := range st.ListData[lc : lc+size] {
				if v <= prev || v >= n {
					return fmt.Errorf("%w: set %d member %d unsorted or out of range", ErrPoolSnapshot, i, v)
				}
				prev = v
			}
			lc += size
		}
		members += int64(size)
	}
	if lc != len(st.ListData) || bc != len(st.BitmapData) {
		return fmt.Errorf("%w: payload blobs larger than the sets consume", ErrPoolSnapshot)
	}
	if members != st.TotalMembers {
		return fmt.Errorf("%w: member sum %d != recorded total %d", ErrPoolSnapshot, members, st.TotalMembers)
	}
	if st.PostIdx == nil {
		if st.Count > 0 { // Freeze indexes every set
			return fmt.Errorf("%w: a pool of %d sets without an index", ErrPoolSnapshot, st.Count)
		}
		if len(st.PostData) != 0 || len(st.PostRows) != 0 {
			return fmt.Errorf("%w: postings without an offset table", ErrPoolSnapshot)
		}
		return nil
	}
	if st.Count == 0 { // a pool is indexed only once it holds a set
		return fmt.Errorf("%w: index over an empty pool", ErrPoolSnapshot)
	}
	if len(st.PostIdx) != int(n)+1 {
		return fmt.Errorf("%w: index holds %d offsets, want %d", ErrPoolSnapshot, len(st.PostIdx), int(n)+1)
	}
	if st.PostIdx[0] != 0 || st.PostIdx[n] != members {
		return fmt.Errorf("%w: index offsets do not span its %d postings", ErrPoolSnapshot, members)
	}
	count := int32(st.Count)
	rowWords := (st.Count + 63) / 64
	denseRow := policy.MinDense(count)
	var dc, rc int64
	for v := int32(0); v < n; v++ {
		c := st.PostIdx[v+1] - st.PostIdx[v]
		if c < 0 || st.PostIdx[v+1] > members {
			return fmt.Errorf("%w: index offsets decrease or overrun at vertex %d", ErrPoolSnapshot, v)
		}
		if c >= denseRow {
			if rc+rowWords > int64(len(st.PostRows)) {
				return fmt.Errorf("%w: vertex %d posting row overrun", ErrPoolSnapshot, v)
			}
			row := st.PostRows[rc : rc+rowWords]
			var pop int64
			for _, w := range row {
				pop += int64(bits.OnesCount64(w))
			}
			if tail := st.Count % 64; tail != 0 && row[rowWords-1]>>uint(tail) != 0 {
				return fmt.Errorf("%w: vertex %d posting row has bits at or past set %d", ErrPoolSnapshot, v, st.Count)
			}
			if pop != c {
				return fmt.Errorf("%w: vertex %d posting row popcount %d != count %d", ErrPoolSnapshot, v, pop, c)
			}
			rc += rowWords
		} else {
			if dc+c > int64(len(st.PostData)) {
				return fmt.Errorf("%w: vertex %d posting list overrun", ErrPoolSnapshot, v)
			}
			prev := int32(-1)
			for _, id := range st.PostData[dc : dc+c] {
				if id <= prev || id >= count {
					return fmt.Errorf("%w: posting %d at vertex %d unsorted, duplicated or out of range", ErrPoolSnapshot, id, v)
				}
				prev = id
			}
			dc += c
		}
	}
	if dc != int64(len(st.PostData)) || rc != int64(len(st.PostRows)) {
		return fmt.Errorf("%w: posting blobs larger than the counts consume", ErrPoolSnapshot)
	}
	return nil
}
