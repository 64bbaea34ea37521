package imm

import (
	"slices"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// GenerateSlots fills out[i] with the RRR set for global slot lo+int64(i),
// drawing each set from the slot-indexed RNG stream that makes pool
// contents identical across worker counts, schedules, engines, and rank
// partitionings. It is the copy-out reference (one allocation per set;
// rrr.Policy.BuildScratch sorts only the sets it keeps as lists) the
// generation kernel is tested against (FuzzFusedVsReference) and what
// bench/probes.go times; no production path calls it. Returns the
// produced member count and the edges visited (the sampling work metric).
func GenerateSlots(g *graph.Graph, policy rrr.Policy, seed uint64, lo int64, out []rrr.Set) (members, edges int64) {
	smp := diffusion.NewSampler(g)
	var buf []int32
	var r rng.Xoshiro256
	for i := range out {
		r.SeedStream(seed, int(lo)+i)
		buf = smp.SampleUniformRoot(&r, buf[:0])
		out[i] = policy.BuildScratch(g.N, buf)
		members += int64(len(buf))
	}
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
// range [from, to) is split into p contiguous chunks, one per worker
// (OpenMP static), each drawn with the pool kernel (SampleSlots) and
// appended to st in worker order. Set sizes vary wildly, so the slowest
// chunk gates the phase — the imbalance the paper's dynamic balancing
// removes. Returns per-worker edge-visit counts (the sampling work
// metric) and the per-worker produced member counts.
func generateStatic(g *graph.Graph, st *setStore, seed uint64, workers int, from, to int64) (edges, members []int64) {
	edges, members = make([]int64, workers), make([]int64, workers)
	sizes := slices.Grow(st.sizes, int(to-from))[:to]
	runs := make([]Chunk, workers)
	sched.Static(workers, int(to-from), func(w, s0, e0 int) {
		lo := from + int64(s0)
		runs[w], members[w], edges[w] = SampleSlots(g, st.policy, seed, lo, sizes[lo:from+int64(e0)])
	})
	st.extend(sizes, runs)
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
