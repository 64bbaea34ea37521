package serve

// Graph lifecycle: registration, removal, and streaming edge deltas
// with incremental warm-pool repair.
//
// Epoch semantics: every registered graph carries an epoch counter,
// 0 at registration and incremented by each delta that changes the
// graph. ApplyDelta swaps the registry's CSR pointer under the server
// mutex, then walks this graph's warm pools and repairs each one under
// its engine mutex — so a batch that is mid-drain finishes on the old
// epoch (in-flight queries drain on the epoch they started on), and
// the delta call does not return until every resident pool answers for
// the new epoch. Pools the byte budget evicted before the delta simply
// regenerate cold on the post-delta graph when next queried — the
// fallback needs no special casing because eviction already removes
// the entry entirely.
//
// Repair correctness is internal/imm's contract: a repaired pool is
// byte-identical to a pool generated cold on the post-delta graph, so
// a delta never changes what any future query answers — only how much
// resampling it costs.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
)

// DeltaResult reports one applied delta: the post-delta graph shape,
// what the delta changed (and silently dropped, outside strict mode),
// and what the warm-pool repair pass did.
type DeltaResult struct {
	Graph     string    `json:"graph"`
	Epoch     int64     `json:"epoch"`
	UpdatedAt time.Time `json:"updated_at"`
	Nodes     int32     `json:"nodes"`
	Edges     int64     `json:"edges"`

	// Changed reports whether the delta modified the graph at all; a
	// no-op delta (everything dropped or empty) leaves the epoch alone.
	Changed bool  `json:"changed"`
	Added   int64 `json:"added"`
	Removed int64 `json:"removed"`

	DroppedSelfLoops  int64 `json:"dropped_self_loops,omitempty"`
	DroppedDuplicates int64 `json:"dropped_duplicates,omitempty"`
	MissingRemovals   int64 `json:"missing_removals,omitempty"`

	// DirtyVertices is how many vertices had their in-segment changed —
	// the invalidation frontier pool repair works from.
	DirtyVertices int `json:"dirty_vertices"`
	// PoolsRepaired counts this graph's warm pools patched in place;
	// SetsResampled the slots resampled across them; FullResamples the
	// pools that fell back to whole-pool regeneration (vertex growth).
	PoolsRepaired int64 `json:"pools_repaired"`
	SetsResampled int64 `json:"sets_resampled"`
	FullResamples int64 `json:"full_resamples"`
}

// RemoveGraph unregisters name and evicts every warm pool keyed to it,
// returning the removed graph's info and how many pools were dropped.
// Queries already executing against the graph drain on the entries
// they hold; new queries fail with ErrUnknownGraph.
func (s *Server) RemoveGraph(name string) (GraphInfo, int, error) {
	s.mu.Lock()
	ge, ok := s.graphs[name]
	if !ok {
		s.mu.Unlock()
		return GraphInfo{}, 0, fmt.Errorf("serve: %w %q", ErrUnknownGraph, name)
	}
	delete(s.graphs, name)
	s.stats.Graphs = len(s.graphs)
	var removed []*poolEntry
	for key, pe := range s.pools {
		if key.graph != name {
			continue
		}
		// Pinned entries are unregistered too: the in-flight queries
		// finish on the entries they hold, and execute's registry check
		// keeps them from re-accounting a removed entry.
		s.removeEntryLocked(pe)
		s.stats.Evictions++
		removed = append(removed, pe)
	}
	s.mu.Unlock()
	// The engines go, in seed order, once any batch mid-drain has
	// finished; a query that was admitted but not yet drained answers
	// from a cold rebuild on the graph it was admitted against.
	sort.Slice(removed, func(i, j int) bool { return removed[i].key.seed < removed[j].key.seed })
	dropEngines(removed...)
	return ge.info, len(removed), nil
}

// GraphByName returns one registered graph's info.
func (s *Server) GraphByName(name string) (GraphInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ge, ok := s.graphs[name]
	if !ok {
		return GraphInfo{}, fmt.Errorf("serve: %w %q", ErrUnknownGraph, name)
	}
	return ge.info, nil
}

// ApplyDelta applies one edge delta to the named graph: a new CSR
// epoch is built with graph.ApplyDelta, the registry is swapped to it,
// and every resident warm pool of the graph is repaired in place
// (invalid slots resampled, everything else retained) so subsequent
// queries answer for the post-delta graph — byte-identical to a server
// that had loaded the post-delta graph cold. Concurrent deltas on the
// same graph serialize; concurrent queries either drain on the old
// epoch (if their batch started first) or see the new one.
func (s *Server) ApplyDelta(name string, d graph.Delta, opt graph.DeltaOptions) (*DeltaResult, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()

	s.mu.Lock()
	ge, ok := s.graphs[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: %w %q", ErrUnknownGraph, name)
	}

	ge.deltaMu.Lock()
	defer ge.deltaMu.Unlock()
	s.mu.Lock()
	g := ge.g
	s.mu.Unlock()

	ng, rep, err := graph.ApplyDelta(g, d, opt)
	if err != nil {
		return nil, fmt.Errorf("serve: %w: %v", ErrInvalidDelta, err)
	}
	res := &DeltaResult{
		Graph:             name,
		Nodes:             rep.NewN,
		Edges:             rep.NewM,
		Changed:           rep.Changed(),
		Added:             rep.Added,
		Removed:           rep.Removed,
		DroppedSelfLoops:  rep.DroppedSelfLoops,
		DroppedDuplicates: rep.DroppedDuplicates,
		MissingRemovals:   rep.MissingRemovals,
		DirtyVertices:     len(rep.Dirty),
	}

	s.mu.Lock()
	if !rep.Changed() {
		// No-op: the registry (and every pool) already answers for this
		// graph; only the delta counter moves.
		s.stats.Deltas++
		res.Epoch, res.UpdatedAt = ge.info.Epoch, ge.info.UpdatedAt
		s.mu.Unlock()
		return res, nil
	}
	ge.g = ng
	ge.info.Nodes, ge.info.Edges = ng.N, ng.M
	ge.info.Epoch++
	ge.info.UpdatedAt = time.Now().UTC()
	epoch := ge.info.Epoch
	res.Epoch, res.UpdatedAt = epoch, ge.info.UpdatedAt
	s.stats.Deltas++
	s.stats.DeltaEdgesAdded += rep.Added
	s.stats.DeltaEdgesRemoved += rep.Removed
	s.mu.Unlock()

	// Repair every resident pool of this graph. The scan repeats until
	// no pool lags the new epoch: entries created while we repair are
	// built from the already-swapped registry graph (the drainer
	// snapshots graph and epoch together), so the loop converges.
	for {
		var stale *poolEntry
		s.mu.Lock()
		for key, pe := range s.pools {
			if key.graph == name && pe.epoch < epoch {
				stale = pe
				break
			}
		}
		s.mu.Unlock()
		if stale == nil {
			return res, nil
		}
		s.repairPool(name, stale, ng, rep, epoch, res)
	}
}

// repairPool brings one pool entry up to the given epoch. Taking the
// engine mutex first means any batch mid-drain finishes on the old
// epoch before the repair lands — the epoch drain barrier.
func (s *Server) repairPool(name string, pe *poolEntry, ng *graph.Graph, rep *graph.DeltaReport, epoch int64, res *DeltaResult) {
	pe.mu.Lock()
	defer pe.mu.Unlock()

	s.mu.Lock()
	if pe.epoch >= epoch || s.pools[pe.key] != pe {
		// Already current (a drainer built it from the new graph), or
		// evicted/removed since the scan — an evicted pool regenerates
		// cold on the post-delta graph when next queried.
		s.mu.Unlock()
		return
	}
	pe.epoch = epoch
	eng := pe.eng
	// Any disk-tier snapshot was frozen at a pre-delta epoch: repair
	// fixes only the resident engine, so the file is stale either way.
	// Dropping it here (rather than letting promotion reject it later)
	// keeps the disk tier from answering for dead epochs even if this
	// process crashes before the pool is saved again.
	s.dropDiskLocked(pe)
	s.mu.Unlock()
	if eng == nil {
		// Entry with no resident engine: a placeholder whose first batch
		// failed, or a demoted/rehydrated pool whose snapshot we just
		// discarded. The next drainer builds cold from the current graph.
		return
	}

	rr, err := eng.ApplyDelta(ng, rep)
	if err == nil && s.opt.RemoteGen != nil {
		// Repair detaches the remote slot generator (it was constructed
		// against the old graph); re-attach one for the new epoch. Only
		// the pool policy and RNG seed shape remote generation.
		o := s.base
		o.Seed = pe.key.seed
		err = eng.SetRemote(s.opt.RemoteGen(name, ng, o))
	}
	if err != nil {
		// Neither can legitimately fail here (the model never changes
		// across a delta, and every server engine runs the defaults); if
		// one somehow does, drop the pool so it rebuilds cold rather than
		// serve a stale epoch.
		pe.dropEngine()
		s.mu.Lock()
		if s.pools[pe.key] == pe {
			s.removeEntryLocked(pe)
			s.stats.Evictions++
		}
		s.mu.Unlock()
		return
	}

	bytes := eng.PhysicalFootprint().TotalBytes() + eng.OverheadBytes()
	s.mu.Lock()
	if s.pools[pe.key] == pe {
		s.usedBytes += bytes - pe.bytes
		pe.bytes = bytes
	}
	s.stats.RepairedPools++
	s.stats.RepairedSets += rr.Resampled
	if rr.FullResample {
		s.stats.FullResamples++
	}
	s.mu.Unlock()

	res.PoolsRepaired++
	res.SetsResampled += rr.Resampled
	if rr.FullResample {
		res.FullResamples++
	}
}
