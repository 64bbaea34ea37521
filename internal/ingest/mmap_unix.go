//go:build unix

package ingest

import (
	"fmt"
	"hash/crc32"
	"os"
	"syscall"
	"unsafe"

	"repro/internal/imm"
)

// MapPoolSnapshot memory-maps a .impool file read-only and returns a
// PoolState whose payload slices alias the mapping — no copy of the set
// data is made, which is what makes promoting a demoted pool back to the
// hot tier cheap: the page cache already holds the bytes if the demotion
// was recent, and a cold promotion faults pages in on demand as the
// selection kernel touches them.
//
// Header, section table, and every section checksum are verified against
// the mapping before anything aliases it, exactly as the streaming
// reader would, so a corrupt file is rejected up front rather than
// discovered mid-query. (The CRC pass also happens to pre-fault the
// pages sequentially, the fastest way to pull the file in.)
//
// The mapping has one owner: the caller. release unmaps it and must be
// called exactly once, after the last read through the state or through
// anything that adopted its slices — a thawed engine's sets and index,
// and a Freeze of that engine, alias the mapping; answers (seed lists)
// never do. A read after release is a fault, not stale data. A caller
// that maps once per promotion and never releases leaks one mapping per
// promotion until vm.max_map_count turns every later mmap into the
// copying fallback below.
//
// When mapping is not possible (big-endian host, a file larger than the
// address space, mmap failure) it falls back to the streaming reader
// transparently; the state then owns heap copies and release does
// nothing. release is nil only alongside an error.
func MapPoolSnapshot(path string) (st *imm.PoolState, info PoolSnapshotInfo, release func(), err error) {
	if !hostLittleEndian {
		return readPoolSnapshotOwned(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, PoolSnapshotInfo{}, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, PoolSnapshotInfo{}, nil, err
	}
	size := fi.Size()
	if size < snapHeaderSize+poolTableSize {
		f.Close()
		return nil, PoolSnapshotInfo{}, nil, fmt.Errorf("%w: %d-byte file cannot hold a header", ErrPoolSnapshot, size)
	}
	if size > int64(int(^uint(0)>>1)) {
		f.Close()
		return readPoolSnapshotOwned(path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		return readPoolSnapshotOwned(path)
	}
	st, info, err = poolStateFromMapping(data)
	if err != nil {
		syscall.Munmap(data)
		return nil, info, nil, err
	}
	return st, info, func() { syscall.Munmap(data) }, nil
}

// poolStateFromMapping decodes and validates a full .impool image,
// aliasing payload sections in place.
func poolStateFromMapping(data []byte) (*imm.PoolState, PoolSnapshotInfo, error) {
	secs, info, err := parsePoolHeader(data[:snapHeaderSize+poolTableSize])
	if err != nil {
		return nil, info, err
	}
	if info.Bytes > int64(len(data)) {
		return nil, info, fmt.Errorf("%w: sections need %d bytes, file holds %d", ErrPoolSnapshot, info.Bytes, len(data))
	}
	for i, sec := range secs {
		got := crc32.Checksum(data[sec.offset:sec.offset+sec.byteLen], castagnoli)
		if got != sec.crc {
			return nil, info, fmt.Errorf("%w: section %d checksum mismatch", ErrPoolSnapshot, i)
		}
	}
	meta := aliasI64(data, secs[0])
	if err := applyPoolMeta(meta, &info); err != nil {
		return nil, info, err
	}
	st := poolStateShell(info)
	for s := range st.Shards {
		sh := &st.Shards[s]
		base := 1 + s*poolSecPerShard
		sh.Kinds = aliasU8(data, secs[base+poolSecKinds])
		sh.Sizes = aliasI32(data, secs[base+poolSecSizes])
		sh.CompLens = aliasI32(data, secs[base+poolSecCompLens])
		sh.ListData = aliasI32(data, secs[base+poolSecListData])
		sh.CompData = aliasU8(data, secs[base+poolSecCompData])
		sh.BitmapData = aliasU64(data, secs[base+poolSecBitmapData])
		if secs[base+poolSecPostIdx].byteLen > 0 {
			sh.PostIdx = aliasI32(data, secs[base+poolSecPostIdx])
			sh.PostData = aliasI32(data, secs[base+poolSecPostData])
		}
	}
	if err := validatePoolState(st); err != nil {
		return nil, info, err
	}
	return st, info, nil
}

// The alias helpers reinterpret a section of the mapping in place.
// parsePoolHeader has already proven byteLen is an element multiple and
// the offset 64-byte aligned (for non-empty sections), which satisfies
// every element type's alignment.

func aliasU8(data []byte, sec snapSection) []byte {
	if sec.byteLen == 0 {
		return nil
	}
	return data[sec.offset : sec.offset+sec.byteLen : sec.offset+sec.byteLen]
}

func aliasI32(data []byte, sec snapSection) []int32 {
	if sec.byteLen == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&data[sec.offset])), sec.byteLen/4)
}

func aliasI64(data []byte, sec snapSection) []int64 {
	if sec.byteLen == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&data[sec.offset])), sec.byteLen/8)
}

func aliasU64(data []byte, sec snapSection) []uint64 {
	if sec.byteLen == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&data[sec.offset])), sec.byteLen/8)
}
