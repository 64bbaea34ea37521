package dist

import (
	"time"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/rrr"
	"repro/internal/wire"
)

// engine is the rank-partitioned imm.Engine. Each Generate call splits
// the new slice of the θ sample budget into one contiguous chunk per
// rank; ranks run concurrently (one goroutine each, standing in for an
// MPI process) and generate their chunk from the slot-indexed RNG
// streams, so the union of rank outputs is byte-identical to the pool a
// shared-memory Run builds. Each rank also folds its sets into a local
// occurrence counter as it generates (the fused kernel), then ships both
// — serialized sets and the dense counter — to rank 0, which merges them
// into the global pool and the allreduced base counter. Selection runs
// at rank 0 over the gathered pool through imm.SelectOnSets, and the
// resulting seed set is broadcast back. The transfers are zero-copy
// in-process, but every exchange is metered at the size a real wire
// transfer would cost.
type engine struct {
	g      *graph.Graph
	opt    Options
	policy rrr.Policy

	pool         []rrr.Set // rank 0's gathered global pool
	totalMembers int64
	base         *counter.Counter // allreduced occurrence counts over pool
	// selector holds rank 0's persistent sharded inverted index over
	// the gathered pool, extended with each round's new sets so every
	// set is indexed exactly once across the θ-estimation rounds —
	// the same incremental accounting as the shared-memory engine.
	selector *imm.Selector
	// arenas are the per-rank set storage of local generation (nil slots
	// until a rank first generates). They live as long as the engine —
	// and therefore as long as the gathered pool that aliases them.
	arenas []*rrr.Arena

	// cluster, when non-nil, turns the per-rank goroutines into real
	// network exchanges: non-root chunks are generated by remote worker
	// processes and gathered over the framed TCP transport, with local
	// regeneration as the failover when a worker is unreachable. hint
	// names the graph in broadcast messages.
	cluster *Cluster
	hint    string

	comm Comm
	bd   imm.Breakdown
}

func newEngine(g *graph.Graph, opt Options) *engine {
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	return &engine{
		g:        g,
		opt:      opt,
		policy:   imm.PolicyFromOptions(opt.Options),
		base:     counter.New(g.N),
		selector: imm.NewSelector(g.N),
		arenas:   make([]*rrr.Arena, opt.Ranks),
	}
}

func (e *engine) SetCount() int64          { return int64(len(e.pool)) }
func (e *engine) Stats() rrr.Stats         { return rrr.Summarize(e.g.N, e.pool) }
func (e *engine) Breakdown() imm.Breakdown { return e.bd }

// PoolFootprint reports rank 0's gathered pool. The representation —
// and therefore the gather volume and the resident bytes — follows the
// caller's PoolKind through PolicyFromOptions, so a compressed-pool
// distributed run both ships and holds the delta-encoded payloads. The
// selection-side inverted index is transient (rebuilt per SelectOnSets
// call) and not counted as resident.
func (e *engine) PoolFootprint() imm.PoolFootprint {
	var set int64
	for _, s := range e.pool {
		set += s.Bytes()
	}
	return imm.PoolFootprint{SetBytes: set, RawBytes: 4 * e.totalMembers}
}

// rankRound is what one rank hands the root after a generation round.
type rankRound struct {
	rank    int
	lo, hi  int64
	counts  *counter.Counter
	members int64
	edges   int64
	// failover marks a chunk a remote rank should have generated but the
	// root regenerated locally after the exchange failed.
	failover bool
}

func (e *engine) Generate(target int64) {
	from := int64(len(e.pool))
	if target <= from {
		return
	}
	start := time.Now()
	count := target - from
	e.pool = append(e.pool, make([]rrr.Set, count)...)

	ranks := int64(e.opt.Ranks)
	// Root announces the round's sample budget (one 8-byte θ value per
	// non-root rank).
	e.comm.record(&e.comm.ThetaExchange, ranks-1, (ranks-1)*8)

	ch := make(chan rankRound, e.opt.Ranks)
	for r := int64(0); r < ranks; r++ {
		lo := from + r*count/ranks
		hi := from + (r+1)*count/ranks
		go func(r, lo, hi int64) {
			out := e.pool[lo:hi] // disjoint per-rank slice
			var failover bool
			if e.cluster != nil && r != 0 && hi > lo {
				if rr, ok := e.remoteRound(int(r), lo, hi, out); ok {
					ch <- rr
					return
				}
				// The worker is unreachable (or returned garbage): slot
				// determinism means regenerating the chunk locally yields
				// the identical sets, so the round — and the run's seeds —
				// survive the node loss.
				failover = true
			}
			// Each member lands in the rank's arena and increments the
			// rank counter as it is emitted.
			cnt := counter.New(e.g.N)
			if e.arenas[r] == nil {
				e.arenas[r] = rrr.NewArena()
			}
			members, edges := imm.GenerateSlotsFused(e.g, e.policy, e.opt.Seed, lo, out, e.arenas[r], cnt)
			ch <- rankRound{rank: int(r), lo: lo, hi: hi, counts: cnt, members: members, edges: edges, failover: failover}
		}(r, lo, hi)
	}

	var critical int64
	for i := int64(0); i < ranks; i++ {
		res := <-ch
		if res.failover {
			e.comm.Failovers++
		}
		if res.rank != 0 {
			var setBytes int64
			for _, s := range e.pool[res.lo:res.hi] {
				setBytes += wireBytes(s)
			}
			e.comm.record(&e.comm.SetGather, 1, setBytes)
			e.comm.record(&e.comm.CounterReduce, 1, int64(e.g.N)*8)
		}
		e.base.AddFrom(res.counts)
		e.totalMembers += res.members
		// Critical path over ranks: edge traversals, list-sort work, and
		// the fused counter updates (charged double for the lock prefix)
		// — the same terms the shared-memory engine's SamplingModeled
		// accounts, so the figures stay comparable.
		cost := res.edges + imm.ModeledSortCost(e.policy, e.g.N, res.members, res.hi-res.lo) + 2*res.members
		if cost > critical {
			critical = cost
		}
	}
	// Round allreduce: every rank learns the global pool size and member
	// total (two 8-byte values both ways per non-root rank).
	e.comm.record(&e.comm.ThetaExchange, 2*(ranks-1), 2*(ranks-1)*16)

	// Fold the round's gathered sets into rank 0's selection index.
	e.selector.Extend(e.pool[from:], e.opt.Workers)

	e.bd.SamplingWall += time.Since(start)
	e.bd.SamplingModeled += float64(critical)
}

// SelectSeeds runs Find_Most_Influential_Set at rank 0 over the gathered
// pool (the persistent CELF selector, semantics of imm.SelectOnSets),
// seeded with the allreduced counter, then broadcasts the result.
func (e *engine) SelectSeeds(k int) ([]int32, float64) {
	start := time.Now()
	seeds, cov, ops := e.selector.Select(e.base, e.opt.Workers, k)
	e.bd.SelectionWall += time.Since(start)
	e.bd.SelectionModeled += ops
	if ranks := int64(e.opt.Ranks); ranks > 1 {
		payload := int64(len(seeds))*4 + 8 // seed ids + coverage
		e.comm.record(&e.comm.SeedBroadcast, ranks-1, (ranks-1)*payload)
	}
	if e.cluster != nil {
		// Networked SeedBroadcast: best-effort — the selection is already
		// decided at the root, the broadcast only lets workers observe the
		// stopping rule (and the meter observe the phase's real bytes).
		e.cluster.BroadcastSeeds(seeds, cov)
	}
	return seeds, cov
}

// remoteRound asks a worker rank for slots [lo, hi) over the wire and
// materializes the reply into the gathered pool: each shipped member
// list is rebuilt under the root's representation policy — the exact
// sets local generation would have produced — and the shipped dense
// counter stands in for the rank's fused counter fold. Returns false if
// the exchange or the decode failed, in which case the caller
// regenerates the chunk locally.
func (e *engine) remoteRound(rank int, lo, hi int64, out []rrr.Set) (rankRound, bool) {
	rep, err := e.cluster.Round(rank, e.g, e.hint, e.opt.Seed, lo, hi-lo, true)
	if err != nil {
		return rankRound{}, false
	}
	for i, plain := range rep.Sets {
		members, err := wire.DecodeSetMembers(plain)
		if err != nil {
			return rankRound{}, false
		}
		out[i] = e.policy.Build(e.g.N, members)
	}
	cnt := counter.New(e.g.N)
	if rep.Counts != nil {
		copy(cnt.Raw(), rep.Counts)
	} else {
		for _, s := range out {
			s.ForEach(func(v int32) { cnt.Inc(v) })
		}
	}
	return rankRound{rank: rank, lo: lo, hi: hi, counts: cnt, members: rep.Members, edges: rep.Edges}, true
}

// wireBytes is the serialized size of one RRR set on the simulated wire:
// a 16-byte header (slot id, representation kind, cardinality) plus the
// representation's payload — 4 bytes per member for lists, one bit per
// graph vertex for bitmaps.
func wireBytes(s rrr.Set) int64 { return 16 + s.Bytes() }
