package dist

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/rrr"
)

// clusterGen is the rank runtime, an imm.SlotGenerator: each requested
// slot range is split into one contiguous chunk per rank; the root samples
// its own chunk with imm.SampleSlots, the others go out as Round requests
// in parallel, and each reply decodes straight into a chunk of the pool's
// layout under the engine's policy (imm.DecodeChunk), checked as a pool
// file's sets are; its edge count, which the modeled bill takes, must lie
// within its sets' in-degree sum. Ranks draw from the slot-indexed RNG
// streams, so the chunks together are exactly the range a local engine
// would have generated, and a failed exchange or a refused reply is
// resampled at the root with the same result: GenerateSlots never fails,
// it only gets slower and counts a failover. With no cluster (c == nil)
// every chunk is sampled at the root — a simulated run, billed as a
// networked one would be.
type clusterGen struct {
	c      *Cluster
	ranks  int64
	g      *graph.Graph
	hint   string
	policy rrr.Policy
	seed   uint64

	comm     Comm  // the modeled bill of every call so far
	sampling int64 // Σ over calls of the slowest rank's modeled work
}

// PoolGenerator returns a slot generator that sources pool extensions
// for (g, seed) from the cluster's worker ranks. hint names the graph in
// broadcast messages (the serving layer passes its registry name);
// policy must be the representation policy of the engine the generator
// attaches to (imm.PolicyFromOptions of the engine options). Returns nil
// for single-rank clusters — there is nobody to fan out to, and the
// engine's local generation is strictly better.
func (c *Cluster) PoolGenerator(hint string, g *graph.Graph, policy rrr.Policy, seed uint64) imm.SlotGenerator {
	if c == nil || c.Ranks() < 2 {
		return nil
	}
	return &clusterGen{c: c, ranks: int64(c.Ranks()), g: g, hint: hint, policy: policy, seed: seed}
}

func (cg *clusterGen) GenerateSlots(lo int64, sizes []int32) ([]imm.Chunk, int64, error) {
	count := int64(len(sizes))
	if count == 0 {
		return nil, 0, nil
	}
	// What each rank's chunk produced; failover marks a remote chunk the
	// root regenerated after the exchange failed or its reply was refused.
	chunks := make([]struct {
		imm.Chunk
		members, edges int64
		failover       bool
	}, cg.ranks)
	var wg sync.WaitGroup
	for r := range cg.ranks {
		clo := r * count / cg.ranks
		seg := sizes[clo : (r+1)*count/cg.ranks]
		if len(seg) == 0 {
			continue // billed, but no frame is sent
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch := &chunks[r]
			if r != 0 && cg.c != nil {
				rep, err := cg.c.Round(int(r), cg.g, cg.hint, cg.seed, lo+clo, int64(len(seg)), false)
				if err == nil {
					var bound int64
					ch.Chunk, ch.members, bound, err = imm.DecodeChunk(cg.g, cg.policy, rep.Sets, seg)
					if err == nil && rep.Edges >= 0 && rep.Edges <= bound {
						ch.edges = rep.Edges
						return
					}
				}
				ch.failover = true
			}
			ch.Chunk, ch.members, ch.edges = imm.SampleSlots(cg.g, cg.policy, cg.seed, lo+clo, seg)
		}()
	}
	wg.Wait()

	// The bill: a θ announce to each non-root rank; each non-root rank,
	// empty chunk or not, gathers its sets (16 header bytes each, plus 4 a
	// list member or 8 a row word) and reduces its n×8-byte counter; a round
	// allreduce of pool size and member total. The slowest rank's edges,
	// list sorting and fused counter updates (2 per member, for the lock
	// prefix) — the shared-memory SamplingModeled terms — are the call's
	// critical path.
	cg.comm.record(&cg.comm.ThetaExchange, cg.ranks-1, (cg.ranks-1)*8)
	var critical, edges int64
	out := make([]imm.Chunk, cg.ranks)
	for r, ch := range chunks {
		seg := sizes[int64(r)*count/cg.ranks : int64(r+1)*count/cg.ranks]
		if ch.failover {
			cg.comm.Failovers++
			cg.c.failovers.Add(1)
		}
		if r != 0 {
			cg.comm.record(&cg.comm.SetGather, 1, 16*int64(len(seg))+4*int64(len(ch.Lists))+8*int64(len(ch.Rows)))
			cg.comm.record(&cg.comm.CounterReduce, 1, int64(cg.g.N)*8)
		}
		critical = max(critical, ch.edges+imm.ModeledSortCost(cg.policy, cg.g.N, ch.members, int64(len(seg)))+2*ch.members)
		edges += ch.edges
		out[r] = ch.Chunk
	}
	cg.comm.record(&cg.comm.ThetaExchange, 2*(cg.ranks-1), 2*(cg.ranks-1)*16)
	cg.sampling += critical
	return out, edges, nil
}
