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
	var meta []int64
	st := new(imm.PoolState)
	for i, target := range poolSections(st, &meta) {
		target.alias(data, secs[i])
	}
	if err := applyPoolMeta(meta, &info); err != nil {
		return nil, info, err
	}
	info.bind(st)
	if err := validatePoolState(st); err != nil {
		return nil, info, err
	}
	return st, info, nil
}

// alias points the section's array at its bytes in the mapping, in
// place. parsePoolHeader has already proven byteLen is an element
// multiple and the offset 64-byte aligned (for non-empty sections), which
// satisfies every element type's alignment. An empty section leaves its
// array nil.
func (s poolSection) alias(data []byte, sec snapSection) {
	if sec.byteLen == 0 {
		return
	}
	at := unsafe.Pointer(&data[sec.offset])
	switch {
	case s.i64 != nil:
		*s.i64 = unsafe.Slice((*int64)(at), sec.byteLen/8)
	case s.i32 != nil:
		*s.i32 = unsafe.Slice((*int32)(at), sec.byteLen/4)
	case s.u8 != nil:
		*s.u8 = data[sec.offset : sec.offset+sec.byteLen : sec.offset+sec.byteLen]
	default:
		*s.u64 = unsafe.Slice((*uint64)(at), sec.byteLen/8)
	}
}
