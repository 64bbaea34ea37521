package imm

import (
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// poolStore is the write side of an RRR pool: generation fills
// pre-grown slots by global set id. Two implementations exist — the flat
// setPool the Ripples baseline and the instrumented traces keep, and the
// sharded pool (shardpool.go) behind the Efficient engine. Slots are
// written at most once and by one worker, so put needs no locking.
type poolStore interface {
	vertexCount() int32
	put(i int64, set rrr.Set)
	addMembers(perWorker []int64)
}

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

func (p *setPool) vertexCount() int32       { return p.n }
func (p *setPool) put(i int64, set rrr.Set) { p.sets[i] = set }
func (p *setPool) stats() rrr.Stats         { return rrr.Summarize(p.n, p.sets) }

// generateJob is the one slot-sampling loop every materializing
// generation path goes through: it hands put the set for each global
// slot in [start, end). RNG streams are derived from the slot index, so
// pool contents are identical for any worker count, schedule, engine,
// and rank partitioning — which is what lets the tests compare engines
// and the distributed runtime seed-for-seed. Representation choice lives
// in rrr.Policy.BuildScratch, which sorts only when a list or compressed
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
// the generation hook for distributed front-ends (internal/dist): a rank
// owning slots [lo, lo+len(out)) produces exactly the sets a
// shared-memory Run would have placed there. Returns the produced member
// count and the edges visited (the sampling work metric).
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

// generateStatic is the baseline generation schedule: the new range is
// split into p contiguous chunks, one per worker (OpenMP static). Set
// sizes vary wildly, so the slowest chunk gates the phase — the
// imbalance the paper's dynamic balancing removes.
// Returns per-worker edge-visit counts (the sampling work metric) and
// the per-worker produced member counts.
func generateStatic(g *graph.Graph, pool poolStore, policy rrr.Policy, seed uint64, workers int, from, to int64) (edges, members []int64) {
	count := int(to - from)
	edges = make([]int64, workers)
	members = make([]int64, workers)
	if count <= 0 {
		return edges, members
	}
	sched.Static(workers, count, func(w, s0, e0 int) {
		smp := diffusion.NewSampler(g)
		m := generateJob(pool.vertexCount(), policy, seed, smp, from+int64(s0), from+int64(e0), pool.put)
		edges[w] += smp.EdgesVisited
		members[w] += m
	})
	pool.addMembers(members)
	return edges, members
}

// generateDynamic is EFFICIENTIMM's producer/consumer schedule: the new
// range is cut into batch-sized jobs spread over per-worker deques with
// stealing. onSet, when non-nil, runs in the producing worker right
// after each set is built — the kernel-fusion hook that folds the
// global-counter update into generation.
//
// The returned edges/members are per executing worker (wall-clock
// accounting on the physical machine). maxJob is the costliest single
// job (edge visits plus build work), which together with the total cost
// gives the greedy-scheduling critical-path bound total/p + maxJob that
// the modeled runtime uses — per-executor sums would reflect the number
// of physical cores the goroutines happened to run on, not the worker
// count being simulated.
func generateDynamic(g *graph.Graph, pool poolStore, policy rrr.Policy, seed uint64, workers, batch int, from, to int64, onSet func(worker int, set rrr.Set)) (edges, members []int64, maxJob int64) {
	count := to - from
	edges = make([]int64, workers)
	members = make([]int64, workers)
	if count <= 0 {
		return edges, members, 0
	}
	if batch < 1 {
		batch = 1
	}
	jobs := (count + int64(batch) - 1) / int64(batch)
	// samplers[w] and jobMax[w] are only ever touched by worker w, so
	// lazy initialization needs no lock.
	samplers := make([]*diffusion.Sampler, workers)
	jobMax := make([]int64, workers)
	sched.WorkStealing(workers, jobs, func(w int, job int64) {
		if samplers[w] == nil {
			samplers[w] = diffusion.NewSampler(g)
		}
		smp := samplers[w]
		s0 := from + job*int64(batch)
		e0 := s0 + int64(batch)
		if e0 > to {
			e0 = to
		}
		edgesBefore := smp.EdgesVisited
		jobMembers := generateJob(pool.vertexCount(), policy, seed, smp, s0, e0, func(i int64, set rrr.Set) {
			pool.put(i, set)
			if onSet != nil {
				onSet(w, set)
			}
		})
		members[w] += jobMembers
		if cost := (smp.EdgesVisited - edgesBefore) + 3*jobMembers; cost > jobMax[w] {
			jobMax[w] = cost
		}
	})
	for w, smp := range samplers {
		if smp != nil {
			edges[w] = smp.EdgesVisited
		}
	}
	pool.addMembers(members)
	return edges, members, maxOf(jobMax)
}

func (p *setPool) addMembers(perWorker []int64) {
	for _, m := range perWorker {
		p.totalMembers += m
	}
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
