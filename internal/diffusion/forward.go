package diffusion

import (
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// simulateIC runs one forward IC cascade from seeds and returns the
// activated vertices in activation order, in frontier's storage. Each
// activated vertex's out-segment goes through icScan, the coin-flip
// kernel of reverse sampling: an out-edge draws iff its target is
// inactive at its turn. Scratch structures are provided by the caller
// for reuse.
func simulateIC(g *graph.Graph, seeds []int32, r *rng.Xoshiro256, active *bitset.Bitset, frontier []int32) []int32 {
	frontier = frontier[:0]
	for _, s := range seeds {
		if !active.TestAndSet(int(s)) {
			frontier = append(frontier, s)
		}
	}
	vis, x, count := active.Words(), *r, len(frontier)
	for qi := 0; qi < count; qi++ {
		u := frontier[qi]
		lo, hi := g.OutIndex[u], g.OutIndex[u+1]
		if count+int(hi-lo) > len(frontier) {
			frontier = slices.Grow(frontier[:count], int(hi-lo))
			frontier = frontier[:cap(frontier)]
		}
		x, count = icScan(x, g.OutEdges[lo:hi], g.OutProb[lo:hi], vis, frontier, count)
	}
	*r = x
	frontier = frontier[:count]
	active.ClearList(frontier)
	return frontier
}

// simulateLT runs one forward LT cascade and returns the activated
// vertices, in frontier's storage. Thresholds are drawn uniformly per
// vertex per run; a vertex activates when the cumulative weight of its
// active in-neighbors reaches its threshold.
func simulateLT(g *graph.Graph, seeds []int32, r *rng.Xoshiro256, active *bitset.Bitset, frontier []int32, thresh, acc []float32) []int32 {
	frontier = frontier[:0]
	for _, s := range seeds {
		if !active.TestAndSet(int(s)) {
			frontier = append(frontier, s)
		}
	}
	for qi := 0; qi < len(frontier); qi++ {
		u := frontier[qi]
		lo, hi := g.OutIndex[u], g.OutIndex[u+1]
		for k := lo; k < hi; k++ {
			v := g.OutEdges[k]
			if active.Test(int(v)) {
				continue
			}
			if thresh[v] < 0 {
				thresh[v] = float32(r.Float64())
				// Guard against a zero threshold auto-activating
				// isolated vertices with zero accumulated weight.
				if thresh[v] == 0 {
					thresh[v] = 1e-9
				}
			}
			acc[v] += g.OutProb[k]
			if acc[v] >= thresh[v] {
				active.Set(int(v))
				frontier = append(frontier, v)
			}
		}
	}
	// Reset lazy per-run state only where touched: thresholds and
	// accumulators of every vertex examined. Conservatively reset via
	// out-neighbors of activated vertices.
	for _, u := range frontier {
		for _, v := range g.OutNeighbors(u) {
			thresh[v] = -1
			acc[v] = 0
		}
	}
	active.ClearList(frontier)
	return frontier
}

// EstimateSpread estimates σ(seeds) with runs forward Monte-Carlo
// simulations split across workers. The estimator is unbiased; the
// standard error shrinks as 1/sqrt(runs).
func EstimateSpread(g *graph.Graph, seeds []int32, runs, workers int, seed uint64) float64 {
	if runs <= 0 || len(seeds) == 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	totals := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewStream(seed, w)
			active := bitset.New(int(g.N))
			var frontier []int32
			var thresh, acc []float32
			if g.Model() == graph.LT {
				thresh = make([]float32, g.N)
				acc = make([]float32, g.N)
				for i := range thresh {
					thresh[i] = -1
				}
			}
			var local int64
			for i := w; i < runs; i += workers {
				if g.Model() == graph.LT {
					frontier = simulateLT(g, seeds, r, active, frontier, thresh, acc)
				} else {
					frontier = simulateIC(g, seeds, r, active, frontier)
				}
				local += int64(len(frontier))
			}
			totals[w] = local
		}(w)
	}
	wg.Wait()
	var sum int64
	for _, v := range totals {
		sum += v
	}
	return float64(sum) / float64(runs)
}

// GreedySpread computes a seed set of size k by exhaustive greedy
// forward simulation: at each step it adds the vertex with the best
// marginal Monte-Carlo spread. Exponentially slower than IMM — only for
// validating seed quality on tiny graphs in tests.
func GreedySpread(g *graph.Graph, k, runs, workers int, seed uint64) []int32 {
	var seeds []int32
	chosen := make(map[int32]bool, k)
	for len(seeds) < k && len(seeds) < int(g.N) {
		bestV, bestS := int32(-1), -1.0
		for v := int32(0); v < g.N; v++ {
			if chosen[v] {
				continue
			}
			s := EstimateSpread(g, append(seeds, v), runs, workers, seed)
			if s > bestS {
				bestV, bestS = v, s
			}
		}
		seeds = append(seeds, bestV)
		chosen[bestV] = true
	}
	return seeds
}
