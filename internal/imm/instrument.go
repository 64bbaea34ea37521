package imm

import (
	"repro/internal/cachesim"
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/memmodel"
	"repro/internal/numa"
	"repro/internal/rng"
	"repro/internal/rrr"
)

// This file contains the instrumented kernel variants that feed the NUMA
// cost model (Table II) and the cache simulator (Table IV). They
// re-execute the hot loops of the two engines while recording every
// memory access against a logical address space; the plain engines stay
// uninstrumented so production runs pay nothing.

// ---------------------------------------------------------------------
// Table II: NUMA placement of the Generate_RRRsets working set.
// ---------------------------------------------------------------------

// NUMAPlacement selects the data placement under test.
type NUMAPlacement int

const (
	// PlacementOriginal models the unoptimized baseline: the loading
	// thread first-touches everything, so graph, bitmaps and RRR buffers
	// all live on node 0.
	PlacementOriginal NUMAPlacement = iota
	// PlacementAware models EFFICIENTIMM: the graph is interleaved
	// across nodes; each worker's visited bitmap and RRR output live on
	// the worker's own node (mbind).
	PlacementAware
)

func (p NUMAPlacement) String() string {
	if p == PlacementAware {
		return "numa-aware"
	}
	return "original"
}

// NUMAReport is the outcome of one instrumented generation run.
type NUMAReport struct {
	Placement NUMAPlacement
	// BitmapCost / TotalCost is the Table II "percentage of core time
	// spent checking the bitmap".
	BitmapCost    float64
	EdgeCost      float64
	OutputCost    float64
	TotalCost     float64
	LocalFraction float64 // fraction of node-local accesses
	Imbalance     float64 // max/mean node traffic
}

// BitmapSharePercent returns the Table II metric.
func (r NUMAReport) BitmapSharePercent() float64 {
	if r.TotalCost == 0 {
		return 0
	}
	return 100 * r.BitmapCost / r.TotalCost
}

// numaProbe adapts diffusion.Probe to the NUMA accessor with separate
// cost accumulators per structure.
type numaProbe struct {
	acc                  *numa.Accessor
	visitedRegion        memmodel.Region
	edgeRegion           memmodel.Region
	outRegion            memmodel.Region
	bitmapCost, edgeCost float64
	outputCost           float64
	outCursor            int64
	// bitmapCacheFactor discounts bitmap-touch cost when the placement
	// keeps the per-worker bitmap cache-resident (§IV.B: EFFICIENTIMM
	// "caches key data structures such as RRR sets and bitmaps to place
	// them closer to the processor"). 1 = always DRAM.
	bitmapCacheFactor float64
}

func (p *numaProbe) TouchVisited(word int64) {
	p.bitmapCost += p.acc.Touch(p.visitedRegion.Addr(word)) * p.bitmapCacheFactor
}

func (p *numaProbe) TouchEdge(edge int64) {
	p.edgeCost += p.acc.Touch(p.edgeRegion.Addr(edge))
}

func (p *numaProbe) TouchOutput(int64) {
	p.outputCost += p.acc.Touch(p.outRegion.Addr(p.outCursor % int64(p.outRegion.Length)))
	p.outCursor++
}

// MeasureNUMAGeneration runs an instrumented Generate_RRRsets of samples
// sets across workers simulated cores on topo, under the given
// placement, and reports where the modeled time went. It reproduces the
// methodology behind Table II.
func MeasureNUMAGeneration(g *graph.Graph, topo numa.Topology, placement NUMAPlacement, samples, workers int, seed uint64) (NUMAReport, error) {
	sys, err := numa.NewSystem(topo)
	if err != nil {
		return NUMAReport{}, err
	}
	if workers < 1 {
		workers = 1
	}
	space := memmodel.NewSpace()
	edgeRegion := space.Alloc("in-edges", g.M, 4)
	switch placement {
	case PlacementAware:
		sys.Place(edgeRegion, numa.Interleave, 0)
	default:
		sys.Place(edgeRegion, numa.NodeZero, 0)
	}

	report := NUMAReport{Placement: placement}
	// Workers run sequentially over their sample share: contention and
	// placement effects come from the cost model, not wall-clock
	// concurrency, so this stays deterministic.
	probes := make([]*numaProbe, workers)
	for w := 0; w < workers; w++ {
		core := w * topo.TotalCores() / workers // spread across nodes
		acc := sys.NewAccessor(core)
		visitedRegion := space.Alloc("visited", int64(g.N)/64+1, 8)
		outRegion := space.Alloc("rrrout", int64(g.N), 4)
		switch placement {
		case PlacementAware:
			sys.Place(visitedRegion, numa.Local, topo.NodeOfCore(core))
			sys.Place(outRegion, numa.Local, topo.NodeOfCore(core))
		default:
			sys.Place(visitedRegion, numa.NodeZero, 0)
			sys.Place(outRegion, numa.NodeZero, 0)
		}
		cacheFactor := 1.0
		if placement == PlacementAware {
			// A node-local, mbind-pinned bitmap stays hot in the private
			// caches; most probes cost an L1/L2 hit, not a DRAM access.
			cacheFactor = 1.0 / 3
		}
		probes[w] = &numaProbe{
			acc: acc, visitedRegion: visitedRegion, edgeRegion: edgeRegion,
			outRegion: outRegion, bitmapCacheFactor: cacheFactor,
		}
	}
	for w := 0; w < workers; w++ {
		smp := diffusion.NewSampler(g)
		smp.Probe = probes[w]
		var r rng.Xoshiro256
		for i := w; i < samples; i += workers {
			r.SeedStream(seed, i)
			smp.TraverseUniformRoot(&r)
			smp.Release()
		}
		probes[w].acc.Flush()
	}
	var localAcc, totalAcc float64
	for _, p := range probes {
		report.BitmapCost += p.bitmapCost
		report.EdgeCost += p.edgeCost
		report.OutputCost += p.outputCost
		localAcc += p.acc.LocalFraction() * float64(p.acc.Accesses)
		totalAcc += float64(p.acc.Accesses)
	}
	report.TotalCost = report.BitmapCost + report.EdgeCost + report.OutputCost
	if totalAcc > 0 {
		report.LocalFraction = localAcc / totalAcc
	}
	report.Imbalance = sys.LoadImbalance()
	return report, nil
}

// ---------------------------------------------------------------------
// Table IV: cache misses of the two Find_Most_Influential_Set kernels.
// ---------------------------------------------------------------------

// CacheReport carries the simulated miss counts of one traced selection.
type CacheReport struct {
	Engine   EngineKind
	Stats    cachesim.Stats
	Accesses int64
}

// TraceSelection replays the selection kernel of the chosen engine over
// a freshly sampled pool of nsets RRR sets, feeding every memory access
// through an EPYC-like L1+L2 hierarchy, and returns the miss counts.
// Both engines trace over identical pools (same seed ⇒ same sets), so
// the returned numbers are directly comparable, which is exactly the
// Table IV methodology.
//
// simWorkers is the number of threads whose access streams are replayed.
// In Ripples every thread re-probes every set (its binary searches are
// redundant across threads), so its aggregate miss count grows with the
// thread count; the set-partitioned kernel touches each set exactly once
// in total regardless of thread count. The paper profiles on a 128-core
// machine, which is where the 22-357x reductions come from.
func TraceSelection(g *graph.Graph, kind EngineKind, k, nsets, simWorkers int, seed uint64) CacheReport {
	// Sample the pool once, list representation for both engines so the
	// data layout is identical; the engines differ only in access
	// pattern. (Ripples always uses lists; for the traced comparison the
	// efficient engine's wins must come from its traversal order, not
	// its representation, making the comparison conservative.)
	pool := newSetStore(g.N, rrr.ListOnlyPolicy())
	generateStatic(g, &pool, seed, 1, 0, int64(nsets))
	sets := pool.views()

	space := memmodel.NewSpace()
	// One contiguous region for all set payloads — the store's lists array.
	slab := space.Alloc("rrr-slab", int64(len(pool.lists)), 4)
	offsets := make([]int64, nsets+1)
	for i, size := range pool.sizes {
		offsets[i+1] = offsets[i] + int64(size)
	}
	countersRegion := space.Alloc("counters", int64(g.N), 8)

	h := cachesim.EPYCLike()
	touchMember := func(si int, j int) { h.Access(slab.Addr(offsets[si] + int64(j))) }
	touchCounter := func(v int32) { h.Access(countersRegion.Addr(int64(v))) }

	if simWorkers < 1 {
		simWorkers = 1
	}
	if kind == Ripples {
		traceRipplesSelection(g, sets, k, simWorkers, touchMember, touchCounter, h, countersRegion)
	} else {
		traceEfficientSelection(g, sets, k, touchMember, touchCounter, h, countersRegion)
	}
	st := h.Stats()
	return CacheReport{Engine: kind, Stats: st, Accesses: st.Accesses()}
}

// traceRipplesSelection replays the vertex-partitioned kernel's access
// stream as one trace: for each simulated worker's vertex range, walk
// every set (binary search bounds, then the in-range members), then per
// selection round repeat containment checks and decrements.
func traceRipplesSelection(g *graph.Graph, sets [][]int32, k, simWorkers int,
	touchMember func(int, int), touchCounter func(int32), h *cachesim.Hierarchy, countersRegion memmodel.Region) {

	n := int(g.N)
	counts := make([]int64, n)
	for w := 0; w < simWorkers; w++ {
		vl, vh := w*n/simWorkers, (w+1)*n/simWorkers
		for si, raw := range sets {
			lo, hi := traceBinarySearchRange(raw, int32(vl), int32(vh), si, touchMember)
			for j := lo; j < hi; j++ {
				touchMember(si, j)
				counts[raw[j]]++
				touchCounter(raw[j])
			}
		}
	}
	covered := make([]bool, len(sets))
	for round := 0; round < k; round++ {
		v := argMaxPlain(counts, 1)
		if v < 0 {
			break
		}
		counts[v] = -1
		// Argmax scan over the counter array, same as the efficient
		// kernel's reduction read.
		h.AccessRange(countersRegion.Addr(0), int64(n)*8)
		for w := 0; w < simWorkers; w++ {
			vl, vh := w*n/simWorkers, (w+1)*n/simWorkers
			for si, raw := range sets {
				// Sets covered in earlier rounds are skipped; sets being
				// covered this round are marked only after the last
				// simulated worker has processed them.
				if covered[si] {
					continue
				}
				if !traceContains(raw, v, si, touchMember) {
					continue
				}
				lo, hi := traceBinarySearchRange(raw, int32(vl), int32(vh), si, touchMember)
				for j := lo; j < hi; j++ {
					touchMember(si, j)
					if u := raw[j]; counts[u] >= 0 {
						counts[u]--
						touchCounter(u)
					}
				}
				if w == simWorkers-1 {
					covered[si] = true
				}
			}
		}
	}
}
