//go:build !unix

package ingest

import "repro/internal/imm"

// MapPoolSnapshot on platforms without a usable mmap delegates to the
// streaming reader: slower to promote but identical in behaviour.
func MapPoolSnapshot(path string) (*imm.PoolState, PoolSnapshotInfo, func(), error) {
	return readPoolSnapshotOwned(path)
}
