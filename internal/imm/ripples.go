package imm

import (
	"slices"
	"sort"
	"time"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rrr"
	"repro/internal/sched"
)

// ripplesEngine reproduces the Ripples framework's parallelization and
// its documented bottlenecks:
//
//   - Generation: static θ/p partitioning; every set is sorted into a
//     vertex list regardless of density.
//   - Selection (Find_Most_Influential_Set): vertices are partitioned
//     across workers; every worker traverses ALL RRR sets, using binary
//     search to locate its vertex range inside each sorted set, both for
//     the initial occurrence count and for every per-seed decrement
//     round. Per-worker work therefore contains a θ·log|R| term that
//     does not shrink with the worker count — the scalability wall in
//     the paper's Figures 1 and 2.
type ripplesEngine struct {
	g   *graph.Graph
	opt Options
	st  setStore // list-only: sizes plus one members array
	bd  Breakdown
}

func newRipplesEngine(g *graph.Graph, opt Options) *ripplesEngine {
	return &ripplesEngine{g: g, opt: opt, st: newSetStore(g.N, rrr.ListOnlyPolicy())}
}

func (e *ripplesEngine) SetCount() int64      { return int64(len(e.st.sizes)) }
func (e *ripplesEngine) Stats() rrr.Stats     { return e.st.stats(e.SetCount()) }
func (e *ripplesEngine) Breakdown() Breakdown { return e.bd }

// PoolFootprint reports the baseline's flat list pool: every byte is set
// payload (4 per member), there is no index, and the raw-slice baseline
// is by definition the same figure.
func (e *ripplesEngine) PoolFootprint() PoolFootprint {
	b := 4 * int64(len(e.st.lists))
	return PoolFootprint{SetBytes: b, RawBytes: b}
}

func (e *ripplesEngine) Generate(target int64) {
	from, to := e.SetCount(), target
	if to <= from {
		return
	}
	start := time.Now()
	edges, members := generateStatic(e.g, &e.st, e.opt.Seed, e.opt.Workers, from, to)
	e.bd.SamplingWall += time.Since(start)
	// Modeled cost: edge traversals plus the per-set sort, charged against
	// the worker's average set size. The static schedule's critical path
	// is the slowest worker.
	perWorker := make([]int64, len(edges))
	for w := range perWorker {
		perWorker[w] = edges[w] + ModeledSortCost(e.st.policy, e.g.N, members[w], (to-from)/int64(len(edges)))
	}
	e.bd.SamplingModeled += float64(maxOf(perWorker))
}

// SelectSeeds implements Ripples' vertex-partitioned greedy selection.
func (e *ripplesEngine) SelectSeeds(k int) ([]int32, float64) {
	start := time.Now()
	defer func() { e.bd.SelectionWall += time.Since(start) }()

	sets := e.st.views()
	nsets := len(sets)
	n := int(e.g.N)
	p := e.opt.Workers
	if nsets == 0 || k == 0 {
		return nil, 0
	}

	counts := make([]int64, n) // written only by the range owner
	ops := make([]int64, p)

	// Initial occurrence count: every worker walks every set, binary
	// searching for the bounds of its own vertex range.
	sched.Static(p, n, func(w, vl, vh int) {
		var o int64
		for _, raw := range sets {
			lo := sort.Search(len(raw), func(i int) bool { return raw[i] >= int32(vl) })
			hi := lo + sort.Search(len(raw)-lo, func(i int) bool { return raw[lo+i] >= int32(vh) })
			o += int64(log2i(len(raw))) * 2
			for _, v := range raw[lo:hi] {
				counts[v]++
			}
			o += int64(hi - lo)
		}
		ops[w] += o
	})

	covered := bitset.New(nsets) // read-only inside passes, updated between rounds
	coveredCount := 0
	pClamped := p
	if pClamped > n {
		pClamped = n
	}
	newly := make([][]int32, pClamped)
	seeds := make([]int32, 0, k)
	for len(seeds) < k && len(seeds) < n {
		v := argMaxPlain(counts, p)
		seeds = append(seeds, v)
		counts[v] = -1 // retire from future argmax rounds

		// Retirement: every worker again scans every live set; if it
		// contains v, decrement this worker's vertex range. Every worker
		// redundantly recomputes containment — that redundancy is the
		// Ripples cost structure being reproduced. Newly covered ids are
		// collected per worker (all workers compute the same list) and
		// folded into `covered` after the barrier.
		for w := range newly {
			newly[w] = newly[w][:0]
		}
		sched.Static(p, n, func(w, vl, vh int) {
			var o int64
			for si, raw := range sets {
				if covered.Test(si) {
					continue
				}
				o += int64(log2i(len(raw)))
				if _, ok := slices.BinarySearch(raw, v); !ok {
					continue
				}
				newly[w] = append(newly[w], int32(si))
				lo := sort.Search(len(raw), func(i int) bool { return raw[i] >= int32(vl) })
				hi := lo + sort.Search(len(raw)-lo, func(i int) bool { return raw[lo+i] >= int32(vh) })
				o += int64(log2i(len(raw))) * 2
				for _, u := range raw[lo:hi] {
					if counts[u] >= 0 {
						counts[u]--
					}
				}
				o += int64(hi - lo)
			}
			ops[w] += o
		})
		for _, si := range newly[0] {
			covered.Set(int(si))
		}
		coveredCount += len(newly[0])
		if coveredCount == nsets {
			// Everything covered: remaining seeds add nothing; fill with
			// the highest remaining degree-0 counts deterministically.
			for len(seeds) < k && len(seeds) < n {
				v := argMaxPlain(counts, p)
				if v < 0 {
					break
				}
				seeds = append(seeds, v)
				counts[v] = -1
			}
			break
		}
	}
	// Argmax rounds cost n/p per worker per round.
	for w := range ops {
		ops[w] += int64(len(seeds)) * int64(n/p+1)
	}
	e.bd.SelectionModeled += float64(maxOf(ops))
	return seeds, float64(coveredCount) / float64(nsets)
}

// argMaxPlain is a deterministic parallel argmax over a plain slice;
// entries of -1 are retired. Returns -1 if every entry is retired.
func argMaxPlain(counts []int64, p int) int32 {
	n := len(counts)
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	type reg struct {
		v int32
		c int64
	}
	regions := make([]reg, p)
	sched.Static(p, n, func(w, lo, hi int) {
		best := reg{v: -1, c: -1}
		for v := lo; v < hi; v++ {
			if counts[v] > best.c {
				best = reg{v: int32(v), c: counts[v]}
			}
		}
		regions[w] = best
	})
	// Regions arrive in ascending vertex order, so strict > keeps the
	// lowest vertex id on ties — deterministic across worker counts.
	best := reg{v: -1, c: -1}
	for _, r := range regions {
		if r.v >= 0 && r.c > best.c {
			best = r
		}
	}
	return best.v
}

func log2i(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

func log2f(x float64) float64 {
	if x < 2 {
		return 1
	}
	b := 0.0
	for x >= 2 {
		x /= 2
		b++
	}
	return b
}
