package imm

// Tests of the warm-reuse seam: a WarmEngine serving a sequence of
// queries must return, for every query, exactly what a cold Run with the
// same options returns — seeds, θ, rounds, coverage, LB, set stats, and
// pool footprint — regardless of what earlier queries left in the pool.

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/rrr"
)

// runWarm serves one query through a warm engine via the same RunEngine
// driver the serving layer uses.
func runWarm(t *testing.T, g *graph.Graph, we *WarmEngine, opt Options) *Result {
	t.Helper()
	we.BeginQuery()
	res, err := RunEngine(g, opt, we)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertWarmEqualsCold compares every deterministic Result field (the
// Breakdown is intentionally excluded: warm queries do less work).
func assertWarmEqualsCold(t *testing.T, label string, warm, cold *Result) {
	t.Helper()
	if !reflect.DeepEqual(warm.Seeds, cold.Seeds) {
		t.Fatalf("%s: warm seeds %v != cold seeds %v", label, warm.Seeds, cold.Seeds)
	}
	if warm.Theta != cold.Theta || warm.Rounds != cold.Rounds {
		t.Fatalf("%s: warm theta/rounds %d/%d != cold %d/%d", label, warm.Theta, warm.Rounds, cold.Theta, cold.Rounds)
	}
	if warm.Coverage != cold.Coverage || warm.LB != cold.LB {
		t.Fatalf("%s: warm coverage/LB %v/%v != cold %v/%v", label, warm.Coverage, warm.LB, cold.Coverage, cold.LB)
	}
	if warm.SetStats != cold.SetStats {
		t.Fatalf("%s: warm set stats %+v != cold %+v", label, warm.SetStats, cold.SetStats)
	}
	if warm.Pool != cold.Pool {
		t.Fatalf("%s: warm pool footprint %+v != cold %+v", label, warm.Pool, cold.Pool)
	}
}

// queryShape is one (k, epsilon) point of a served sequence.
type queryShape struct {
	k   int
	eps float64
}

// TestWarmEngineMatchesColdRun drives a warm engine through query
// sequences that shrink, grow, and revisit θ, across both models and
// both selection kernels, pinning every answer against a cold Run.
func TestWarmEngineMatchesColdRun(t *testing.T) {
	shapes := []queryShape{
		{k: 10, eps: 0.5}, // cold
		{k: 10, eps: 0.5}, // exact repeat: full reuse
		{k: 4, eps: 0.7},  // smaller query: truncated view
		{k: 20, eps: 0.4}, // larger query: θ extension
		{k: 10, eps: 0.5}, // back to the original: still identical
	}
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		for _, sel := range []SelectionKind{SelectCELF, SelectScan} {
			g := testGraph(t, 8, model)
			opt := Defaults()
			opt.Workers = 2
			opt.Seed = 7
			opt.MaxTheta = 8000
			opt.Selection = sel
			we, err := NewWarmEngine(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range shapes {
				o := opt
				o.K = q.k
				o.Epsilon = q.eps
				warm := runWarm(t, g, we, o)
				cold, err := Run(g, o)
				if err != nil {
					t.Fatal(err)
				}
				label := string(rune('0'+i)) + "/" + model.String() + "/" + sel.String()
				assertWarmEqualsCold(t, label, warm, cold)
			}
		}
	}
}

// TestWarmEngineMatchesColdAcrossWorkers pins that warm reuse composes
// with the existing worker-count invariance: the pool may be generated
// at one worker count and the query served at another.
func TestWarmEngineMatchesColdAcrossWorkers(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	base := Defaults()
	base.K = 8
	base.Seed = 3
	base.MaxTheta = 6000
	cold, err := Run(g, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		opt := base
		opt.Workers = w
		we, err := NewWarmEngine(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-warm with a larger query so the serve is fully truncated.
		pre := opt
		pre.K = 30
		pre.Epsilon = 0.35
		runWarm(t, g, we, pre)
		warm := runWarm(t, g, we, opt)
		if !reflect.DeepEqual(warm.Seeds, cold.Seeds) || warm.Theta != cold.Theta {
			t.Fatalf("workers=%d: warm %v/θ=%d != cold %v/θ=%d", w, warm.Seeds, warm.Theta, cold.Seeds, cold.Theta)
		}
	}
}

// TestWarmEngineReusesPool pins the amortization itself: an exact repeat
// generates nothing, a smaller query generates nothing, and a larger
// query only extends.
func TestWarmEngineReusesPool(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Defaults()
	opt.K = 10
	opt.Workers = 2
	opt.Seed = 7
	opt.MaxTheta = 8000
	we, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	runWarm(t, g, we, opt)
	phys := we.PhysicalSets()
	if phys == 0 {
		t.Fatal("cold query generated no sets")
	}

	runWarm(t, g, we, opt)
	if got := we.PhysicalSets(); got != phys {
		t.Fatalf("exact repeat grew the pool: %d -> %d", phys, got)
	}

	small := opt
	small.K = 3
	small.Epsilon = 0.8
	res := runWarm(t, g, we, small)
	if got := we.PhysicalSets(); got != phys {
		t.Fatalf("smaller query grew the pool: %d -> %d", phys, got)
	}
	if res.Theta > phys {
		t.Fatalf("smaller query θ=%d exceeds pool %d", res.Theta, phys)
	}

	large := opt
	large.K = 25
	large.Epsilon = 0.35
	res = runWarm(t, g, we, large)
	if got := we.PhysicalSets(); got < phys || got != res.Theta && got < res.Theta {
		t.Fatalf("larger query pool %d vs previous %d, θ=%d", got, phys, res.Theta)
	}
}

// TestAnswerBatchMatchesColdRun pins the batched multi-answer seam:
// every member of a mixed-(k, ε) batch must be byte-identical to a cold
// Run with the same options — across models, selection kernels, and
// worker counts, and regardless of what an earlier batch left in the
// pool.
func TestAnswerBatchMatchesColdRun(t *testing.T) {
	batch := []BatchQuery{
		{K: 10, Epsilon: 0.5},
		{K: 4, Epsilon: 0.7},
		{K: 20, Epsilon: 0.4},
		{K: 7, Epsilon: 0.6},
	}
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		for _, sel := range []SelectionKind{SelectCELF, SelectScan} {
			for _, workers := range []int{1, 4} {
				g := testGraph(t, 8, model)
				opt := Defaults()
				opt.Workers = workers
				opt.Seed = 7
				opt.MaxTheta = 8000
				opt.Selection = sel
				we, err := NewWarmEngine(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				label := model.String() + "/" + sel.String()
				// Round 1 runs on a cold pool, round 2 on the pool
				// round 1 left behind: both must match cold runs.
				for round := 0; round < 2; round++ {
					rep, err := we.AnswerBatch(opt, batch)
					if err != nil {
						t.Fatal(err)
					}
					if len(rep.Answers) != len(batch) {
						t.Fatalf("%s: %d answers for %d queries", label, len(rep.Answers), len(batch))
					}
					var generated int64
					for i, q := range batch {
						o := opt
						o.K = q.K
						o.Epsilon = q.Epsilon
						cold, err := Run(g, o)
						if err != nil {
							t.Fatal(err)
						}
						assertWarmEqualsCold(t, fmt.Sprintf("%s round %d member %d w%d", label, round, i, workers), rep.Answers[i].Res, cold)
						generated += rep.Answers[i].GeneratedSets
					}
					if round == 0 && (rep.Extensions == 0 || generated == 0) {
						t.Fatalf("%s: cold batch performed no extension (%d ext, %d generated)", label, rep.Extensions, generated)
					}
					if round == 1 && (rep.Extensions != 0 || generated != 0) {
						t.Fatalf("%s: repeat batch re-extended the pool (%d ext, %d generated)", label, rep.Extensions, generated)
					}
				}
			}
		}
	}
}

// TestAnswerBatchSharedExtension pins the amortization the planner
// advertises: on a warm pool, a batch of distinct-k queries performs
// exactly one physical extension — the largest member generates, every
// other member is a pure prefix read that consumes the shared samples.
func TestAnswerBatchSharedExtension(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Defaults()
	opt.Workers = 2
	opt.Seed = 7
	opt.MaxTheta = 8000
	we, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool with a small query.
	small := opt
	small.K = 3
	small.Epsilon = 0.8
	runWarm(t, g, we, small)
	physStart := we.PhysicalSets()
	if physStart == 0 {
		t.Fatal("warm-up generated nothing")
	}

	batch := []BatchQuery{
		{K: 4, Epsilon: 0.6},
		{K: 20, Epsilon: 0.4}, // largest requirement: the one extender
		{K: 8, Epsilon: 0.5},
		{K: 12, Epsilon: 0.5},
	}
	rep, err := we.AnswerBatch(opt, batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Extensions != 1 {
		t.Fatalf("batch performed %d extensions, want exactly 1", rep.Extensions)
	}
	var generators, shared int
	for i, a := range rep.Answers {
		if a.GeneratedSets > 0 {
			generators++
			if batch[i].K != 20 {
				t.Fatalf("member %d (k=%d) generated %d sets; want only k=20 to extend", i, batch[i].K, a.GeneratedSets)
			}
		}
		if a.SharedSets > 0 {
			shared++
			if a.ReusedSets <= physStart && a.GeneratedSets == 0 {
				t.Fatalf("member %d reports shared sets %d but reused only %d of %d pre-batch sets", i, a.SharedSets, a.ReusedSets, physStart)
			}
		}
	}
	if generators != 1 {
		t.Fatalf("%d members generated sets, want exactly 1", generators)
	}
	if shared == 0 {
		t.Fatal("no member consumed shared (same-batch) samples")
	}
	if rep.PoolBytes <= 0 {
		t.Fatalf("batch reports non-positive pool bytes %d", rep.PoolBytes)
	}
}

// TestWarmStatsMatchRescan pins the O(1) prefix summaries behind
// WarmEngine.Stats against the walk they replaced: on random prefixes,
// in random order (so the lazy array is read both behind and beyond what
// it has folded), across the set representations a pool can hold.
func TestWarmStatsMatchRescan(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g := testGraph(t, 8, model)
		opt := testOpts(Efficient, 2)
		const nsets = 700
		we := generatePool(t, g, opt, nsets)
		sets := we.p.flatten()
		if all := rrr.Summarize(g.N, sets); model == graph.IC && all.Bitmaps == 0 {
			t.Fatalf("%v: pool does not exercise the per-kind counts: %+v", model, all)
		}
		r := rng.NewStream(5, 0)
		for trial := 0; trial < 60; trial++ {
			we.limit = int64(r.Uint64() % (nsets + 1))
			want := rrr.Summarize(g.N, sets[:we.limit])
			if got := we.Stats(); got != want {
				t.Fatalf("%v limit %d: Stats() %+v, rescan %+v", model, we.limit, got, want)
			}
		}
	}
}

// TestWarmAnswerAllocs gates the warm path's allocation count on a pool
// that already covers the query. A miss (the memo is emptied before each
// answer) allocates for the round driver, the few parallel regions of
// each selection and the result — not per heap pop (the fork-join kernel
// spent about 30k allocations here). A hit allocates the result and one
// copy of the seeds per selection.
func TestWarmAnswerAllocs(t *testing.T) {
	g := testGraph(t, 10, graph.IC)
	opt := Defaults()
	opt.Workers = 2
	opt.Seed = 7
	we, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	batch := []BatchQuery{{K: 50, Epsilon: 0.5}}
	if _, err := we.AnswerBatch(opt, batch); err != nil { // builds the pool
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		hit  bool
		max  float64
	}{{"miss", false, 100}, {"hit", true, 16}} {
		allocs := testing.AllocsPerRun(5, func() {
			if !tc.hit {
				we.p.memo = selMemo{}
			}
			rep, err := we.AnswerBatch(opt, batch)
			if err != nil || rep.Extensions != 0 {
				t.Fatalf("warm answer extended the pool or failed: %v", err)
			}
			if a := rep.Answers[0]; tc.hit != (a.MemoHits == a.Selections) {
				t.Fatalf("%s: %d of %d selections hit the memo", tc.name, a.MemoHits, a.Selections)
			}
		})
		if allocs > tc.max {
			t.Fatalf("warm AnswerBatch (%s) allocates %v times, want <= %v", tc.name, allocs, tc.max)
		}
		t.Logf("%s: %v allocations", tc.name, allocs)
	}
}

// TestNewWarmEngineRejectsRipples pins the seam's contract: only the
// Efficient engine supports warm reuse.
func TestNewWarmEngineRejectsRipples(t *testing.T) {
	g := testGraph(t, 7, graph.IC)
	opt := Defaults()
	opt.Engine = Ripples
	if _, err := NewWarmEngine(g, opt); err == nil {
		t.Fatal("NewWarmEngine accepted the Ripples engine")
	}
}

// TestOverheadBytesCoversScratch pins OverheadBytes against what a warm
// engine actually holds beside its sets and postings, summed from the
// arrays themselves: once the pool is indexed and selected over, the
// offset array, the heap slab, the gain versions, the remembered seeds and
// the patch's marks and decode buffers. The footprint — what BENCH_baseline.json records — counts none
// of it.
func TestOverheadBytesCoversScratch(t *testing.T) {
	g := testGraph(t, 9, graph.IC)
	opt := testOpts(Efficient, 2)
	opt.Selection = SelectScan // so that generation leaves the pool unindexed
	we := generatePool(t, g, opt, 500)
	p := we.p
	bare, foot := we.OverheadBytes(), we.PhysicalFootprint()
	if want := 8*int64(g.N) + p.len()/8 + we.arenaSlackBytes(); bare != want || foot.IndexBytes != 0 {
		t.Fatalf("before any selection: OverheadBytes %d, want %d; footprint %+v", bare, want, foot)
	}
	seeds, _, _ := p.selectCELF(nil, 2, 5, p.len())
	held := 8*int64(cap(p.postIdx)) + int64(unsafe.Sizeof(counter.GainItem{}))*int64(cap(p.heapScratch)) +
		4*int64(cap(p.versionScratch)) + 4*int64(len(seeds)) + 4*int64(cap(p.scratch.mark)) + 8*int64(len(p.scratch.drop.Words()))
	var bufs int64
	for _, buf := range p.scratch.bufs {
		bufs += 4 * int64(cap(buf))
	}
	if grown := we.OverheadBytes() - bare; grown != held+bufs || held != int64(8*(int(g.N)+1)+24*int(g.N)+4*len(seeds)) || bufs == 0 {
		t.Fatalf("indexing and selecting grew OverheadBytes by %d; the arrays hold %d", grown, held)
	}
	after := we.PhysicalFootprint()
	if after.SetBytes != foot.SetBytes || after.RawBytes != foot.RawBytes || after.IndexBytes != 4*p.totalMembers {
		t.Fatalf("footprint moved with the scratch: %+v -> %+v", foot, after)
	}
}
