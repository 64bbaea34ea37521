package serve

// The disk tier: demotion, promotion, and pool-snapshot persistence.
//
// With Options.PoolDir set the LRU becomes two-tier. When resident
// bytes exceed PoolBudgetBytes, the eviction scan no longer drops cold
// pools — it demotes them: the victim's engine is released so the RAM
// returns to the budget while the entry stays registered with a disk
// pointer to a versioned .impool snapshot (internal/ingest) under
// PoolDir. The next query on a demoted pool promotes it back: the
// snapshot is memory-mapped, validated against the graph's current
// delta epoch and content fingerprint, and thawed into a warm engine
// whose set payloads alias the mapping — no resampling, no copy, and
// the answer is byte-identical to both the demoted engine's and a cold
// run's (the freeze/thaw contract internal/imm/persist.go establishes
// and TestDemotedPoolAnswersIdentically pins).
//
// A tier transition costs what changed. Pool contents are a pure
// function of (graph epoch, seed, policy, set count) — the argument
// warm reuse already rests on — so a snapshot that was written from, or
// thawed into, this engine at the engine's epoch and physical set count
// already holds the pool, byte for byte what a fresh freeze would hold
// below that count. Such a demotion is clean: it writes nothing, and
// one stat confirms the file is still there at its recorded size
// (diskPool.holds). A pool that is new, was extended to a larger θ, or
// was repaired by a delta (which drops the pointer), or whose file is
// gone, is dirty and is frozen and written as before — once per (pool,
// growth, epoch), after which it is clean again. Stats.Demotions counts
// both kinds, Stats.DemotionWrites the dirty ones. Nothing on the
// promotion side depends on which kind the last demotion was: every
// promotion verifies header, table and every section checksum, the
// structure, and the binding.
//
// A mapping has one owner, the pool entry that thawed an engine from
// it: tryPromote stores the release function beside the engine and
// poolEntry.dropEngine — the only way an engine leaves an entry — calls
// it, under pe.mu, when the entry is demoted, evicted after a failed
// write, removed with its graph, or dropped by a failed repair. Live
// .impool mappings are therefore bounded by the resident promoted
// pools. What aliases a mapping dies with the engine or earlier: the
// engine's sets, index arrays and memo seeds, and the PoolState a Freeze
// of it returns (consumed under pe.mu, before the drop). Answers never
// alias it — seed lists are built by selection or copied out of the
// memo.
//
// A snapshot carries the pool's selection memo as it stood when the file
// was written, so a promotion answers the shapes the pool had answered
// by then without running CELF. Memo growth alone does not make a pool
// dirty: a shape first asked after a promotion is remembered until the
// next clean demotion, and then forgotten with the RAM copy.
//
// The same snapshot format powers instant-warm restarts: POST
// /v1/pools/save (or Server.SavePools) makes every resident pool
// durable, and a restarted server with -pool-dir rehydrates the
// directory at boot — entries appear with only disk pointers and
// promote lazily on first touch, so a SIGKILLed server answers its next
// query warm.
//
// Lock order everywhere here matches the planner: pe.mu first, then
// s.mu. Demotion candidates are therefore only *selected* under s.mu
// (inside evictLocked, which also releases their budget bytes
// immediately and marks them demoting so one demotion runs per entry);
// the demotion itself runs after the registry unlocks, taking the
// engine mutex so an in-flight batch drains before its pool goes.
//
// A demoted snapshot can go stale: a delta advances the graph epoch,
// or an operator restarts onto different graph content. Promotion
// validates before thawing and treats any failure — stale binding,
// corrupt file, unreadable file — the same way: count it, drop the
// disk pointer, and fall through to cold regeneration. Staleness is
// never an error a client sees; it only costs the regeneration that
// would have happened anyway.

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

// demoteEntries moves each marked victim to the disk tier. Callers
// (execute, after evictLocked marked the victims and released s.mu)
// pass entries whose demoting flag they own.
func (s *Server) demoteEntries(victims []*poolEntry) {
	for _, pe := range victims {
		s.demote(pe)
	}
}

// demote releases one marked victim's engine, first writing its pool
// into PoolDir unless the snapshot there already holds it. On a failed
// write the entry is dropped entirely — the pool regenerates cold on
// next touch, exactly as a plain eviction.
func (s *Server) demote(pe *poolEntry) {
	pe.mu.Lock()
	defer pe.mu.Unlock()

	s.mu.Lock()
	eng := pe.eng
	epoch := pe.epoch
	disk := pe.disk
	alive := s.pools[pe.key] == pe
	s.mu.Unlock()
	if eng == nil || !alive {
		// Never built, already demoted by an earlier pass, or removed
		// (RemoveGraph) while we waited on the engine mutex.
		s.mu.Lock()
		pe.demoting = false
		s.mu.Unlock()
		return
	}

	var err error
	wrote := !disk.holds(eng, epoch)
	if wrote {
		disk, err = writePoolFile(s.opt.PoolDir, poolFileName(pe.key), eng, epoch)
	}
	pe.dropEngine()

	s.mu.Lock()
	defer s.mu.Unlock()
	pe.demoting = false
	if err != nil {
		if s.pools[pe.key] == pe {
			s.removeEntryLocked(pe)
			s.stats.Evictions++
		}
		return
	}
	// A batch that ran while we waited for the engine mutex may have
	// re-accounted the pool; the RAM is free now either way.
	s.usedBytes -= pe.bytes
	pe.bytes = 0
	pe.disk = disk
	s.stats.Demotions++
	if wrote {
		s.stats.DemotionWrites++
	}
}

// tryPromote attempts to thaw pe's disk snapshot into a warm engine.
// Callers hold pe.mu with pe.eng == nil. On success the engine is
// installed (warm, current epoch) and true is returned; on any failure
// — stale epoch, changed graph content, corrupt or unreadable file —
// the disk pointer and file are dropped, the failure counted, and the
// caller falls through to a cold build.
func (s *Server) tryPromote(ge *graphEntry, pe *poolEntry, opt imm.Options) bool {
	s.mu.Lock()
	disk := pe.disk
	g := ge.g
	epoch := ge.info.Epoch
	s.mu.Unlock()
	if disk == nil {
		return false
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
	if err != nil {
		if unmap != nil {
			unmap() // nothing adopted the mapping
		}
		os.Remove(disk.path)
		s.mu.Lock()
		if pe.disk == disk {
			pe.disk = nil
		}
		s.stats.PromoteFailures++
		s.mu.Unlock()
		return false
	}
	pe.eng, pe.unmap = eng, unmap
	s.mu.Lock()
	pe.epoch = epoch
	if pe.disk == disk {
		// Record what the file was just verified to hold, so the engine's
		// next demotion can tell the snapshot still holds the pool.
		pe.disk = &diskPool{path: disk.path, epoch: epoch, count: st.Count, bytes: info.Bytes}
	}
	s.stats.Promotions++
	s.mu.Unlock()
	return true
}

// dropDiskLocked discards pe's disk-tier snapshot (pointer and file),
// if any. Callers hold s.mu.
func (s *Server) dropDiskLocked(pe *poolEntry) {
	if pe.disk != nil {
		os.Remove(pe.disk.path)
		pe.disk = nil
	}
}

// SavePools makes every resident warm pool durable as an .impool
// snapshot in dir and returns how many pools that is. With dir empty it
// defaults to Options.PoolDir. Entries whose engine is not built
// (placeholders, already-demoted pools) are skipped — their state is
// either nothing or already on disk. When dir is the server's own
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
	for _, pe := range entries {
		pe.mu.Lock()
		s.mu.Lock()
		eng := pe.eng
		epoch := pe.epoch
		disk := pe.disk
		alive := s.pools[pe.key] == pe
		s.mu.Unlock()
		if eng == nil || !alive {
			pe.mu.Unlock()
			continue
		}
		own := dir == s.opt.PoolDir
		if !own || !disk.holds(eng, epoch) {
			written, err := writePoolFile(dir, poolFileName(pe.key), eng, epoch)
			if err != nil {
				pe.mu.Unlock()
				return saved, fmt.Errorf("serve: save pool %s/%d: %w", pe.key.graph, pe.key.seed, err)
			}
			if own {
				s.mu.Lock()
				pe.disk = written
				s.mu.Unlock()
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
		pe := &poolEntry{
			key:  key,
			disk: &diskPool{path: path, epoch: info.Epoch, count: info.Count, bytes: info.Bytes},
		}
		s.pools[key] = pe
		// Rehydrated entries enter at the LRU cold end: they cost no RAM
		// until promoted, and a budget squeeze should prefer dropping a
		// never-touched disk entry over a hot resident pool.
		pe.elem = s.lru.PushBack(pe)
		s.stats.Rehydrated++
		s.mu.Unlock()
		loaded++
	}
	return loaded, nil
}
