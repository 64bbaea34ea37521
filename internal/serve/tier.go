package serve

// The disk tier: demotion, promotion, and pool-snapshot persistence.
//
// With Options.PoolDir set the LRU becomes two-tier: budget pressure
// demotes a victim instead of dropping it. Its engine is released and
// the entry keeps a pointer to a versioned .impool snapshot
// (internal/ingest) under PoolDir. The next query promotes it: the
// snapshot is memory-mapped, validated against the graph's current
// delta epoch and content fingerprint, and thawed into a warm engine
// whose set payloads alias the mapping — no resampling, no copy, and an
// answer byte-identical to the demoted engine's and to a cold run's
// (TestDemotedPoolAnswersIdentically).
//
// A tier transition costs what changed. Pool contents are a pure
// function of (graph epoch, seed, policy, set count), so a snapshot
// written from, or thawed into, this engine at the engine's epoch and
// physical set count already holds the pool. Demoting such a pool is
// clean: one stat confirms the file (diskPool.holds) and nothing is
// written. A pool that is new, grew, or was repaired (which drops the
// pointer), or whose file is gone, is dirty and is frozen and written.
// Stats.Demotions counts both kinds, Stats.DemotionWrites the dirty
// ones. Every promotion verifies header, table, every section checksum,
// the structure and the binding, whichever kind of demotion preceded it.
// A snapshot carries the selection memo as it stood when written; memo
// growth alone does not make a pool dirty.
//
// A mapping has one owner, the entry whose engine was thawed from it:
// the release is installed beside the engine, and poolEntry.dropEngine —
// the only way an engine leaves an entry — calls it under pe.mu. Live
// .impool mappings are therefore bounded by the resident promoted pools.
// What aliases a mapping (the engine's sets, index arrays and memo
// seeds, and the PoolState a Freeze of it returns, consumed under pe.mu)
// dies with the engine; answers never alias it.
//
// SavePools makes every resident pool durable, and LoadPools registers a
// PoolDir's snapshots at boot as on-disk entries that promote on first
// touch, so a SIGKILLed server answers its next query warm.
//
// An entry's state changes only through Server.moveLocked, under s.mu,
// and the lock order everywhere is the planner's: pe.mu first, then
// s.mu. evictLocked moves victims to demoting under s.mu, which releases
// their budget bytes at once; demote runs after the registry unlocks,
// under the engine mutex, so an in-flight batch drains before its pool
// goes. moveLocked refuses a demotion or save that commits after
// RemoveGraph took its entry, and the writer deletes the file it wrote.
//
// Promotion treats any failure — stale epoch, changed graph content,
// corrupt or unreadable file — alike: count it, drop the snapshot, and
// build cold. Staleness is never an error a client sees.

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/imm"
	"repro/internal/ingest"
)

// diskPool is one pool's disk-tier residue: an .impool snapshot on
// disk. The pointer is guarded by the server mutex; the value is never
// modified once installed (a new snapshot installs a new diskPool).
type diskPool struct {
	path  string
	epoch int64 // graph epoch the snapshot was frozen at
	count int64 // physical pool length (sets) the snapshot holds
	bytes int64 // file size, reported as Stats.DiskBytes
}

// holds reports whether the snapshot already holds eng's pool as it
// stands at epoch, so that freezing and writing it again would produce
// the same pool: same epoch, same physical set count (contents below a
// count are a pure function of graph epoch, seed and policy, and d
// belongs to this pool's key), and the file still on disk at its
// recorded size.
func (d *diskPool) holds(eng *imm.WarmEngine, epoch int64) bool {
	if d == nil || d.epoch != epoch || d.count != eng.PhysicalSets() {
		return false
	}
	fi, err := os.Stat(d.path)
	return err == nil && fi.Mode().IsRegular() && fi.Size() == d.bytes
}

// poolFileName maps a pool key to its snapshot file name. The graph
// name is path-escaped (it may hold separators), the seed appended
// after the last dash — parsePoolFileName splits on the last dash with
// an all-digit suffix, so graph names containing dashes stay
// unambiguous.
func poolFileName(key poolKey) string {
	return url.PathEscape(key.graph) + "-" + strconv.FormatUint(key.seed, 10) + ingest.PoolSnapshotExt
}

// parsePoolFileName inverts poolFileName.
func parsePoolFileName(name string) (poolKey, bool) {
	stem, ok := strings.CutSuffix(name, ingest.PoolSnapshotExt)
	if !ok {
		return poolKey{}, false
	}
	i := strings.LastIndexByte(stem, '-')
	if i <= 0 {
		return poolKey{}, false
	}
	seed, err := strconv.ParseUint(stem[i+1:], 10, 64)
	if err != nil {
		return poolKey{}, false
	}
	graph, err := url.PathUnescape(stem[:i])
	if err != nil || graph == "" {
		return poolKey{}, false
	}
	return poolKey{graph: graph, seed: seed}, true
}

// writePoolFile freezes eng at epoch and writes the snapshot to
// dir/name via a temp file and rename, so a crash mid-write never leaves
// a half-written snapshot where the rehydration scan would find it.
// Callers hold the entry's engine mutex (the frozen state aliases the
// live index).
func writePoolFile(dir, name string, eng *imm.WarmEngine, epoch int64) (*diskPool, error) {
	st, err := eng.Freeze(epoch)
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := ingest.WritePoolSnapshot(tmp, st); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, err
	}
	return &diskPool{path: path, epoch: epoch, count: st.Count, bytes: ingest.PoolSnapshotSize(st)}, nil
}

// demote releases one demoting victim's engine, first writing its pool
// into PoolDir unless the snapshot there already holds it. On a failed
// write the entry is dropped entirely — the pool regenerates cold on
// next touch, exactly as a plain eviction.
func (s *Server) demote(pe *poolEntry) {
	pe.mu.Lock()
	defer pe.mu.Unlock()

	s.mu.Lock()
	state, eng, epoch, disk := pe.state, pe.eng, pe.epoch, pe.disk
	s.mu.Unlock()
	if state != poolDemoting {
		return // removed while we waited on the engine mutex
	}

	var err error
	wrote := !disk.holds(eng, epoch)
	if wrote {
		disk, err = writePoolFile(s.opt.PoolDir, poolFileName(pe.key), eng, epoch)
	}
	pe.dropEngine()

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err != nil:
		if s.moveLocked(pe, move{to: poolRemoved}) {
			s.stats.Evictions++
		}
	case s.moveLocked(pe, move{to: poolOnDisk, disk: disk}):
		s.stats.Demotions++
		if wrote {
			s.stats.DemotionWrites++
		}
	case wrote:
		os.Remove(disk.path) // the entry was removed during the write
	}
}

// tryPromote attempts to thaw an on-disk entry's snapshot into a warm
// engine. Callers hold pe.mu with pe.eng == nil. It returns the
// installed engine (warm, current epoch), or nil when pe is not on disk
// or the promotion fails — stale epoch, changed graph content, corrupt
// or unreadable file — in which case the snapshot is dropped, the
// failure counted, and the caller falls through to a cold build.
func (s *Server) tryPromote(ge *graphEntry, pe *poolEntry, opt imm.Options) *imm.WarmEngine {
	s.mu.Lock()
	state, disk, g, epoch := pe.state, pe.disk, ge.g, ge.info.Epoch
	s.mu.Unlock()
	if state != poolOnDisk {
		return nil
	}

	st, info, unmap, err := ingest.MapPoolSnapshot(disk.path)
	if err == nil {
		err = ingest.ValidatePoolGraph(st, g, epoch)
	}
	var eng *imm.WarmEngine
	if err == nil {
		eng, err = imm.ThawWarmEngine(g, opt, st)
	}
	if err == nil && s.opt.RemoteGen != nil {
		err = eng.SetRemote(s.opt.RemoteGen(ge.info.Name, g, opt))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		// Record what the file was just verified to hold, so the engine's
		// next demotion can tell the snapshot still holds the pool.
		verified := &diskPool{path: disk.path, epoch: epoch, count: st.Count, bytes: info.Bytes}
		if s.moveLocked(pe, move{to: poolWarm, disk: verified, eng: eng, unmap: unmap}) {
			pe.epoch = epoch
			s.stats.Promotions++
			return eng
		}
	} else {
		s.moveLocked(pe, move{to: poolCold})
		s.stats.PromoteFailures++
	}
	if unmap != nil {
		unmap() // nothing adopted the mapping: the promotion failed, or RemoveGraph took pe
	}
	return nil
}

// dropDiskLocked discards pe's snapshot, pointer and file, if it has
// one: an on-disk entry goes cold, a resident one keeps its engine.
// Callers hold s.mu.
func (s *Server) dropDiskLocked(pe *poolEntry) {
	if pe.disk == nil {
		return
	}
	to := pe.state
	if to == poolOnDisk {
		to = poolCold
	}
	s.moveLocked(pe, move{to: to})
}

// SavePools makes every resident warm pool durable as an .impool
// snapshot in dir and returns how many pools that is. With dir empty it
// defaults to Options.PoolDir. Entries with no resident engine (cold or
// on disk) are skipped — their state is either nothing or already on
// disk. When dir is the server's own
// PoolDir the snapshot is also the entry's disk-tier copy, and a pool
// whose copy there already holds it (diskPool.holds) is not written
// again; any other directory is always written.
func (s *Server) SavePools(dir string) (int, error) {
	if dir == "" {
		dir = s.opt.PoolDir
	}
	if dir == "" {
		return 0, fmt.Errorf("serve: %w: no pool directory configured and none given", ErrInvalidQuery)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}

	s.mu.Lock()
	entries := make([]*poolEntry, 0, len(s.pools))
	for _, pe := range s.pools {
		entries = append(entries, pe)
	}
	s.mu.Unlock()
	// Save in key order, not map order: a save sweep that races an
	// eviction or a crash truncates at a deterministic point, and two
	// sweeps over the same pools write files in the same sequence.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key.graph != entries[j].key.graph {
			return entries[i].key.graph < entries[j].key.graph
		}
		return entries[i].key.seed < entries[j].key.seed
	})

	saved := 0
	own := dir == s.opt.PoolDir
	for _, pe := range entries {
		pe.mu.Lock()
		s.mu.Lock()
		state, eng, epoch, disk := pe.state, pe.eng, pe.epoch, pe.disk
		s.mu.Unlock()
		if state != poolWarm && state != poolDemoting {
			pe.mu.Unlock()
			continue
		}
		if !own || !disk.holds(eng, epoch) {
			written, err := writePoolFile(dir, poolFileName(pe.key), eng, epoch)
			if err != nil {
				pe.mu.Unlock()
				return saved, fmt.Errorf("serve: save pool %s/%d: %w", pe.key.graph, pe.key.seed, err)
			}
			if own {
				// Eviction may have moved the entry to demoting meanwhile;
				// RemoveGraph may have removed it, and then the file goes.
				s.mu.Lock()
				kept := s.moveLocked(pe, move{to: pe.state, disk: written})
				s.mu.Unlock()
				if !kept {
					os.Remove(written.path)
					pe.mu.Unlock()
					continue
				}
			}
		}
		pe.mu.Unlock()
		saved++
	}

	s.mu.Lock()
	s.stats.PoolsSaved += int64(saved)
	s.mu.Unlock()
	return saved, nil
}

// LoadPools scans Options.PoolDir for .impool snapshots of registered
// graphs and registers each as a disk-tier pool entry: no engine is
// built and no payload bytes are read (only the snapshot header and
// metadata block), so boot stays fast — the first query on each pool
// promotes it via mmap, answering warm with zero generated sets.
// Snapshots for unregistered graphs are left on disk untouched (their
// graph may be registered later); unreadable or misnamed files are
// skipped. Returns how many pools were rehydrated.
func (s *Server) LoadPools() (int, error) {
	if s.opt.PoolDir == "" {
		return 0, nil
	}
	dirents, err := os.ReadDir(s.opt.PoolDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}

	loaded := 0
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		key, ok := parsePoolFileName(de.Name())
		if !ok {
			continue
		}
		path := filepath.Join(s.opt.PoolDir, de.Name())
		info, err := ingest.ReadPoolSnapshotInfoFile(path)
		if err != nil {
			continue // corrupt or foreign file; promotion would reject it anyway
		}

		s.mu.Lock()
		_, registered := s.graphs[key.graph]
		_, exists := s.pools[key]
		if !registered || exists {
			s.mu.Unlock()
			continue
		}
		pe := &poolEntry{key: key}
		s.pools[key] = pe
		// Rehydrated entries enter at the LRU cold end: they cost no RAM
		// until promoted.
		pe.elem = s.lru.PushBack(pe)
		s.moveLocked(pe, move{to: poolOnDisk, disk: &diskPool{path: path, epoch: info.Epoch, count: info.Count, bytes: info.Bytes}})
		s.stats.Rehydrated++
		s.mu.Unlock()
		loaded++
	}
	return loaded, nil
}
