package dist

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/rrr"
	"repro/internal/wire"
)

// clusterGen adapts a Cluster to imm.SlotGenerator: each requested slot
// range is split into one contiguous chunk per rank with the same
// partition formula as the driver engine, the root's own chunk is
// generated locally, the rest go out as Round requests in parallel, and
// every shipped member list is rebuilt under the engine's representation
// policy. A failed exchange falls back to local generation for that
// chunk only (slot determinism makes the fallback byte-identical), so
// GenerateSlots never fails — it only gets slower and bumps the
// cluster's failover counter.
type clusterGen struct {
	c      *Cluster
	g      *graph.Graph
	hint   string
	policy rrr.Policy
	seed   uint64
}

// PoolGenerator returns a slot generator that sources pool extensions
// for (g, seed) from the cluster's worker ranks. hint names the graph in
// broadcast messages (the serving layer passes its registry name);
// policy must be the representation policy of the engine the generator
// attaches to (imm.PolicyFromOptions of the engine options). Returns nil
// for single-rank clusters — there is nobody to fan out to, and the
// engine's local generation (arenas included) is strictly better.
func (c *Cluster) PoolGenerator(hint string, g *graph.Graph, policy rrr.Policy, seed uint64) imm.SlotGenerator {
	if c == nil || c.Ranks() < 2 {
		return nil
	}
	return &clusterGen{c: c, g: g, hint: hint, policy: policy, seed: seed}
}

func (cg *clusterGen) GenerateSlots(lo int64, out []rrr.Set) (members, edges int64, err error) {
	count := int64(len(out))
	if count == 0 {
		return 0, 0, nil
	}
	ranks := int64(cg.c.Ranks())
	type chunk struct{ members, edges int64 }
	results := make([]chunk, ranks)
	var wg sync.WaitGroup
	for r := int64(0); r < ranks; r++ {
		clo := lo + r*count/ranks
		chi := lo + (r+1)*count/ranks
		if clo == chi {
			continue
		}
		wg.Add(1)
		go func(r, clo, chi int64) {
			defer wg.Done()
			seg := out[clo-lo : chi-lo]
			if r != 0 {
				if rep, err := cg.c.Round(int(r), cg.g, cg.hint, cg.seed, clo, chi-clo, false); err == nil {
					if m, e, ok := cg.decodeChunk(rep, seg); ok {
						results[r] = chunk{m, e}
						return
					}
				}
				cg.c.failovers.Add(1)
			}
			m, e := imm.GenerateSlots(cg.g, cg.policy, cg.seed, clo, seg)
			results[r] = chunk{m, e}
		}(r, clo, chi)
	}
	wg.Wait()
	for _, res := range results {
		members += res.members
		edges += res.edges
	}
	return members, edges, nil
}

// decodeChunk rebuilds one remote chunk's sets under the engine policy.
func (cg *clusterGen) decodeChunk(rep wire.RoundReply, seg []rrr.Set) (members, edges int64, ok bool) {
	if len(rep.Sets) != len(seg) {
		return 0, 0, false
	}
	for i, plain := range rep.Sets {
		verts, err := wire.DecodeSetMembers(plain)
		if err != nil {
			return 0, 0, false
		}
		seg[i] = cg.policy.Build(cg.g.N, verts)
	}
	return rep.Members, rep.Edges, true
}
