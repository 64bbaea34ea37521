package imm

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/rrr"
)

// WarmEngine is the Efficient engine, the paper's EFFICIENTIMM (§IV):
//
//   - RRRsets partitioning: selection work is split over the sets, not
//     the vertices, so per-worker selection cost is Σ|R|/p and shrinks
//     with the worker count (Algorithm 2).
//   - Concurrent global counter: the scan kernel's occurrence counts live
//     in one shared array updated with 64-bit atomic adds; the argmax is
//     the two-step regional/global parallel reduction. CELF reads the
//     counts off its inverted index instead.
//   - Kernel fusion: each round's sets are counted while still hot
//     (Algorithm 3 lines 14-16) — folded into the index by Stage B, or
//     into the scan kernel's counter as each is drawn.
//   - Adaptive representation: dense sets become bitmaps, sparse sets
//     stay sorted lists; so do the index's postings of a vertex that is
//     in many sets, or in few.
//   - Adaptive counter update: seed retirement either decrements covered
//     sets or rebuilds from survivors, whichever touches less data.
//   - Dynamic job balancing: generation jobs are spread over
//     work-stealing deques.
//
// Run drives a fresh one through one query. The serving layer
// (internal/serve), internal/dist, thaw and repair keep one alive across
// queries: its RRR pool — whose inverted index holds the occurrence
// counts — is retained, so a query only pays for the sets its θ
// trajectory needs beyond what earlier queries already generated.
//
// Correctness of that reuse rests on two properties of the engine:
//
//   - Pool contents are a pure function of (graph, policy, seed, slot):
//     set i is drawn from the slot-indexed RNG stream rng.NewStream(seed,
//     i), so "the first θ sets" are identical whether they were generated
//     by this query, a previous one, or a fresh engine.
//
//   - Selection is non-destructive and, through the limited-view seam
//     (selectCELF / the store's first θ sets for the scan kernel), can be
//     restricted to exactly the first θ sets, ignoring any sets a
//     previous larger query left behind.
//
// Together these make a warm answer byte-identical to a cold Run with
// the same (graph, Options): the θ-estimation trajectory in RunEngine
// observes the same coverage at every round, lands on the same final θ,
// and selects the same seeds. The tests in warm_test.go pin this across
// models, pool representations, selection kernels, worker counts, and
// arbitrary query orders.
//
// A WarmEngine serves one query at a time: Generate/SelectSeeds share
// the logical-limit state and the pool's selection scratch. Callers that
// serve concurrent queries must serialize access (internal/serve holds
// one mutex per warm engine).
type WarmEngine struct {
	g   *graph.Graph
	opt Options
	p   *shardedPool
	bd  Breakdown

	policy rrr.Policy
	// base holds occurrence counts over the whole pool for the scan
	// kernel, maintained incrementally by kernel fusion (without it, scan
	// selection rebuilds its counts from the sets). Nil under CELF, whose
	// counts are the index's.
	base *counter.Counter
	// gen holds the generation kernel's per-worker samplers and
	// generators (fused.go), persistent across Generate calls.
	gen []*genWorker
	// remote, when non-nil, sources pool extensions from a distributed
	// slot generator (remote.go); local generation is the fallback.
	remote SlotGenerator

	// limit is the in-flight query's logical pool length: the largest
	// Generate target seen since BeginQuery. Selection and all result
	// statistics are restricted to the first limit sets even when the
	// physical pool is larger. In a fresh engine it equals the pool
	// length, so a single query reports exactly what the pool holds.
	limit int64
	// selections counts SelectSeeds calls over the engine's lifetime;
	// with the pool memo's hit counter it gives AnswerBatch each
	// member's share.
	selections int64
}

// NewWarmEngine returns an engine with an empty pool for g under opt —
// the one constructor behind Run, the serving layer and ThawWarmEngine.
// Only the Efficient engine supports warm reuse (the Ripples baseline
// keeps no incremental index); opt's per-query fields (K, Epsilon) are
// ignored — each query's RunEngine call carries its own. The field that
// shapes pool bytes (AdaptiveRep) and the RNG seed must stay fixed for the
// engine's lifetime: they define which pool this is.
func NewWarmEngine(g *graph.Graph, opt Options) (*WarmEngine, error) {
	if err := opt.normalize(g); err != nil {
		return nil, err
	}
	if opt.Engine != Efficient {
		return nil, fmt.Errorf("imm: warm reuse requires the Efficient engine, got %v", opt.Engine)
	}
	policy := PolicyFromOptions(opt)
	w := &WarmEngine{
		g:      g,
		opt:    opt,
		p:      newShardedPool(g.N, policy),
		policy: policy,
	}
	if opt.Selection == SelectScan {
		w.base = counter.New(g.N)
	}
	return w, nil
}

// BeginQuery resets the logical pool view for a new query. The physical
// pool (and a scan engine's fused counter) are retained — that is the
// reuse.
func (w *WarmEngine) BeginQuery() { w.limit = 0 }

// Generate extends the logical view to target sets, physically
// generating only the slots no earlier query produced.
func (w *WarmEngine) Generate(target int64) {
	if target > w.limit {
		w.limit = target
	}
	from, to, err := w.p.grow(target)
	if err != nil {
		panic(err) // RunEngine refuses a θ past the bound before it gets here
	}
	if from == to {
		return // target ≤ physical size
	}
	if w.remote != nil && w.generateRemote(from, to) {
		return
	}
	w.generateFused(from, to)
}

// SelectSeeds runs Find_Most_Influential_Set over the logical view. The
// default path is the lazy-greedy selection over the inverted index
// (selectCELF); SelectScan falls back to the eager argmax-and-update
// kernel with the Figure 5 counter strategies. Both are non-destructive
// — coverage marks live in per-call scratch and the base counter is only
// read — so the pool can keep growing across θ-estimation rounds, and
// both return byte-identical seed sequences. When the view covers the
// whole physical pool under fusion, the fused counts seed the gains (the
// scan kernel's counter, CELF's index counts); a truncated view derives
// the same counts from the sets or posting prefixes.
func (w *WarmEngine) SelectSeeds(k int) ([]int32, float64) {
	start := time.Now()
	defer func() { w.bd.SelectionWall += time.Since(start) }()
	w.selections++

	fused := w.opt.Fusion && w.limit == w.p.len()
	var seeds []int32
	var cov float64
	var ops float64
	if w.opt.Selection == SelectScan {
		var base *counter.Counter
		if fused {
			base = w.base
		}
		seeds, cov, ops = selectScan(&w.p.sets, int(w.limit), w.p.membersUpTo(w.limit), base, w.opt.Workers, w.opt.Update, k)
	} else {
		seeds, cov, ops = w.p.selectCELF(fused, w.opt.Workers, k, w.limit)
	}
	w.bd.SelectionModeled += ops
	return seeds, cov
}

// SetCount returns the logical pool length — what a cold run's pool
// size would be at this point of the query's trajectory.
func (w *WarmEngine) SetCount() int64 { return w.limit }

// Stats summarizes the set representations of the logical view.
func (w *WarmEngine) Stats() rrr.Stats { return w.p.statsUpTo(w.limit) }

// PoolFootprint reports the resident bytes of the logical view, matching
// what a cold run of the same query would report.
func (w *WarmEngine) PoolFootprint() PoolFootprint { return w.p.footprintUpTo(w.limit) }

// Breakdown returns the accumulated phase costs. Unlike seeds, θ, and
// coverage, the breakdown of a reused engine is not byte-identical to a
// cold run's: a warm query charges only the generation it actually
// performed.
func (w *WarmEngine) Breakdown() Breakdown { return w.bd }

// PhysicalSets returns the number of sets resident in the underlying
// pool, across all queries served so far.
func (w *WarmEngine) PhysicalSets() int64 { return w.p.len() }

// PhysicalFootprint reports the resident bytes of the whole physical
// pool — the quantity the serving layer's LRU byte budget accounts.
func (w *WarmEngine) PhysicalFootprint() PoolFootprint { return w.p.footprint() }

// OverheadBytes reports the engine-resident memory outside the pool
// representation itself, arrays by capacity: a scan engine's fused
// occurrence counter (8 bytes per vertex), the coverage scratch (one bit
// per set), the set sizes and block summaries (4 bytes a set, 24 per 64)
// and the store's spare capacity, the seeds the selection memo remembers
// (at most 4 bytes per vertex), and what indexing and selecting leave
// beside the rows and lists: the offsets (8 bytes per vertex, 4 more and
// 8 per row once a vertex keeps a row) and the index's spare capacity, the
// CELF heap slab and gain versions (16 + 4) and the index patch's marks
// (8), dropped-id bits and decode buffers (a set's members per writer). The serving layer adds it to the pool footprint so its
// byte budget bounds what a warm engine keeps resident.
func (w *WarmEngine) OverheadBytes() int64 {
	p, st, ix := w.p, &w.p.sets, &w.p.post
	var base int64
	if w.base != nil {
		base = 8 * int64(w.g.N)
	}
	return base + p.len()/8 + 4*int64(cap(st.sizes)) + 24*int64(cap(st.blocks)) +
		4*int64(cap(st.lists)-len(st.lists)) + 8*int64(cap(st.rows)-len(st.rows)) + p.memo.bytes() +
		8*int64(cap(ix.idx)) + 4*int64(cap(ix.rowAt)) + 8*int64(cap(ix.rowBase)) +
		4*int64(cap(ix.data)-len(ix.data)) + 8*int64(cap(ix.rows)-len(ix.rows)) +
		16*int64(cap(p.heapScratch)) + 4*int64(cap(p.versionScratch)) + p.scratch.bytes()
}

// FootprintUpTo reports the resident bytes of the first n sets — the
// serving layer uses it to meter how many pool bytes a query reused.
func (w *WarmEngine) FootprintUpTo(n int64) PoolFootprint { return w.p.footprintUpTo(n) }

// BatchQuery is one member of a shared-extension batch: the per-query
// parameters that vary across members. Everything else — graph, RNG
// seed, pool policy, MaxTheta — comes from the batch's base Options and
// is shared by construction (members of one batch serve one pool).
type BatchQuery struct {
	K       int
	Epsilon float64
}

// BatchAnswer is one member's answer plus its reuse accounting.
type BatchAnswer struct {
	Res *Result
	// ReusedSets counts the sets the member consumed without generating
	// them (min(θ, pool size when the member ran)); GeneratedSets the
	// sets its own trajectory added; SharedSets the reused sets that did
	// not exist when the batch started — samples another member of the
	// same batch generated on this member's behalf, the quantity the
	// serving layer reports as shared-extension savings.
	ReusedSets    int64
	GeneratedSets int64
	SharedSets    int64
	// ReusedBytes is the resident footprint of the reused prefix.
	ReusedBytes int64
	// Selections counts the seed selections the member's trajectory asked
	// for (one per estimation round plus the final one); MemoHits those
	// of them the pool had already run and answered from its selection
	// memo. An exact repeat of an earlier query hits on every one.
	Selections int64
	MemoHits   int64
}

// BatchReport is the outcome of AnswerBatch.
type BatchReport struct {
	// Answers holds one entry per query, in input order.
	Answers []BatchAnswer
	// Extensions counts the members whose trajectory physically grew the
	// pool. Members execute in descending sampling requirement, so on a
	// pool that is either cold or uniformly smaller than the largest
	// member's needs this is 1 (0 when the pool already covers everyone)
	// — the "one shared θ-extension" the batched planner advertises. A
	// smaller-requirement member can still extend when the adaptive
	// lower bound turns the λ′ ordering around; correctness never
	// depends on the count.
	Extensions int
	// PoolBytes is the engine's full resident footprint after the batch
	// (physical pool plus engine overhead) — the byte-budget quantity.
	PoolBytes int64
}

// AnswerBatch answers every query of a batch over the shared pool in
// one engine pass. Members run in descending sampling-requirement
// order (λ′ of their (k, ε), ties broken toward larger k, then smaller
// ε, then input order), so the most demanding member performs the one
// physical θ-extension and every other member is answered from its own
// θ-prefix of the grown pool via the logical-view seam. Each member's
// answer is byte-identical to a cold Run with the same (graph, Options,
// k, ε): the limited view replays exactly the cold trajectory, and pool
// contents are slot-deterministic, so execution order cannot leak into
// any member's result.
//
// base carries the engine-shaping options (its K and Epsilon are
// overridden per member). Like the rest of WarmEngine, AnswerBatch
// serves one batch at a time: callers must serialize.
func (w *WarmEngine) AnswerBatch(base Options, queries []BatchQuery) (*BatchReport, error) {
	rep := &BatchReport{Answers: make([]BatchAnswer, len(queries))}
	if len(queries) == 0 {
		rep.PoolBytes = w.PhysicalFootprint().TotalBytes() + w.OverheadBytes()
		return rep, nil
	}

	order := make([]int, len(queries))
	req := make([]float64, len(queries))
	for i, q := range queries {
		order[i] = i
		req[i] = samplingRequirement(w.g, q.K, base.Ell, q.Epsilon)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		qa, qb := queries[ia], queries[ib]
		if req[ia] != req[ib] && !math.IsNaN(req[ia]) && !math.IsNaN(req[ib]) {
			return req[ia] > req[ib]
		}
		if qa.K != qb.K {
			return qa.K > qb.K
		}
		return qa.Epsilon < qb.Epsilon
	})

	physStart := w.PhysicalSets()
	for _, i := range order {
		o := base
		o.K = queries[i].K
		o.Epsilon = queries[i].Epsilon
		physBefore := w.PhysicalSets()
		selBefore, hitsBefore := w.selections, w.p.memo.hits
		w.BeginQuery()
		res, err := RunEngine(w.g, o, w)
		if err != nil {
			return nil, err
		}
		if w.PhysicalSets() > physBefore {
			rep.Extensions++
		}
		reused := res.Theta
		if physBefore < reused {
			reused = physBefore
		}
		shared := reused - physStart
		if shared < 0 {
			shared = 0
		}
		rep.Answers[i] = BatchAnswer{
			Res:           res,
			ReusedSets:    reused,
			GeneratedSets: w.PhysicalSets() - physBefore,
			SharedSets:    shared,
			ReusedBytes:   w.FootprintUpTo(reused).TotalBytes(),
			Selections:    w.selections - selBefore,
			MemoHits:      w.p.memo.hits - hitsBefore,
		}
	}
	rep.PoolBytes = w.PhysicalFootprint().TotalBytes() + w.OverheadBytes()
	return rep, nil
}
