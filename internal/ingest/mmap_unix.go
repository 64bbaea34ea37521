//go:build unix

package ingest

import (
	"os"
	"syscall"

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
// anything that adopted its slices — a thawed engine's sets, index and
// memo seeds, and a Freeze of that engine, alias the mapping; answers
// (seed lists) never do, as memo hits hand out copies. A read after
// release is a fault, not stale data. A caller that maps once per
// promotion and never releases leaks one mapping per promotion until
// vm.max_map_count turns every later mmap into the copying fallback
// below.
//
// When mapping is not possible (big-endian host, an empty file or one
// larger than the address space, mmap failure) it falls back to the
// streaming reader transparently; the state then owns heap copies and
// release does nothing. release is nil only alongside an error.
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
	if size > int64(int(^uint(0)>>1)) {
		f.Close()
		return readPoolSnapshotOwned(path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		return readPoolSnapshotOwned(path)
	}
	st, info, err = poolFromImage(data)
	if err != nil {
		syscall.Munmap(data)
		return nil, info, nil, err
	}
	return st, info, func() { syscall.Munmap(data) }, nil
}

// poolFromImage decodes and validates a whole .impool image, aliasing
// its sections in place. Little-endian hosts only.
func poolFromImage(image []byte) (*imm.PoolState, PoolSnapshotInfo, error) {
	h, ents, err := poolSchema.parse(image, poolShape)
	if err != nil {
		return nil, PoolSnapshotInfo{}, err
	}
	info, err := poolInfo(h, ents)
	if err != nil {
		return nil, info, err
	}
	var f poolFlat
	st := new(imm.PoolState)
	if err := poolSchema.mapSections(image, poolSections(st, &f), ents); err != nil {
		return nil, info, err
	}
	if err := applyPoolMeta(f.meta, &info); err != nil {
		return nil, info, err
	}
	info.bind(st)
	if err := f.unflattenMemo(st); err != nil {
		return nil, info, err
	}
	if err := validatePoolState(st); err != nil {
		return nil, info, err
	}
	return st, info, nil
}
