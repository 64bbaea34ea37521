package imm

import (
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// setPool holds the RRR sets generated so far. Generation appends;
// selection never mutates it, so the pool can keep growing across the
// θ-estimation iterations exactly as Algorithm 1 requires.
type setPool struct {
	n            int32
	sets         []rrr.Set
	totalMembers int64
}

func newSetPool(n int32) *setPool { return &setPool{n: n} }

// grow extends the pool with empty slots up to target and returns the
// previous length.
func (p *setPool) grow(target int64) (from, to int64) {
	from = int64(len(p.sets))
	if target <= from {
		return from, from
	}
	p.sets = append(p.sets, make([]rrr.Set, target-from)...)
	return from, target
}

func (p *setPool) put(i int64, set rrr.Set) { p.sets[i] = set }
func (p *setPool) stats() rrr.Stats         { return rrr.Summarize(p.n, p.sets) }

// generateJob is the reference slot-sampling loop (copy-out sampling,
// one allocation per set): it hands put the set for each global slot in
// [start, end). RNG streams are derived from the slot index, so pool
// contents are identical for any worker count, schedule, engine, and
// rank partitioning — which is what lets the tests compare engines and
// the distributed runtime seed-for-seed. Representation choice lives
// in rrr.Policy.BuildScratch, which sorts only when the list
// representation is chosen (the paper's baseline sorts every set;
// EFFICIENTIMM skips the sort for bitmaps).
func generateJob(n int32, policy rrr.Policy, seed uint64, s *diffusion.Sampler, start, end int64, put func(i int64, set rrr.Set)) (members int64) {
	var buf []int32
	var r rng.Xoshiro256
	for i := start; i < end; i++ {
		r.SeedStream(seed, int(i))
		buf = s.SampleUniformRoot(&r, buf[:0])
		put(i, policy.BuildScratch(n, buf))
		members += int64(len(buf))
	}
	return members
}

// GenerateSlots fills out[i] with the RRR set for global slot lo+int64(i),
// drawing each set from the slot-indexed RNG stream that makes pool
// contents identical across worker counts, schedules, and engines. It is
// the copy-out reference the generation kernel is tested against
// (FuzzFusedVsReference) and what bench/probes.go times; no production
// path calls it. Returns the produced member count and the edges visited
// (the sampling work metric).
func GenerateSlots(g *graph.Graph, policy rrr.Policy, seed uint64, lo int64, out []rrr.Set) (members, edges int64) {
	smp := diffusion.NewSampler(g)
	members = generateJob(g.N, policy, seed, smp, lo, lo+int64(len(out)), func(i int64, set rrr.Set) { out[i-lo] = set })
	return members, smp.EdgesVisited
}

// ModeledSortCost is the modeled comparison cost of building setCount
// sets totaling memberCount members under policy: list sets are sorted
// at |R|·log2(avg|R|) comparisons, and under an adaptive policy only the
// sub-threshold (list) share is charged — bitmap construction needs no
// order. Shared by the engines and the distributed runtime so their
// SamplingModeled figures stay comparable.
func ModeledSortCost(policy rrr.Policy, n int32, memberCount, setCount int64) int64 {
	if setCount < 1 {
		setCount = 1
	}
	sortable := memberCount
	if policy.Adaptive {
		cut := int64(float64(n) * policy.DensityThreshold * float64(setCount))
		if sortable > cut {
			sortable = cut
		}
	}
	avg := float64(memberCount) / float64(setCount)
	return int64(float64(sortable) * log2f(avg+2))
}

// generateStatic is the Ripples baseline's generation schedule: the new
// range is split into p contiguous chunks, one per worker (OpenMP
// static). Set sizes vary wildly, so the slowest chunk gates the phase —
// the imbalance the paper's dynamic balancing removes.
// Returns per-worker edge-visit counts (the sampling work metric) and
// the per-worker produced member counts.
func generateStatic(g *graph.Graph, pool *setPool, policy rrr.Policy, seed uint64, workers int, from, to int64) (edges, members []int64) {
	count := int(to - from)
	edges = make([]int64, workers)
	members = make([]int64, workers)
	if count <= 0 {
		return edges, members
	}
	sched.Static(workers, count, func(w, s0, e0 int) {
		smp := diffusion.NewSampler(g)
		m := generateJob(pool.n, policy, seed, smp, from+int64(s0), from+int64(e0), pool.put)
		edges[w] += smp.EdgesVisited
		members[w] += m
	})
	pool.totalMembers += sumOf(members)
	return edges, members
}

// maxOf returns the maximum element, the critical-path reduction used by
// the modeled runtime.
func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sumOf(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
