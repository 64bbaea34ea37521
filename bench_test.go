package efficientimm

// Benchmark harness: one benchmark family per table and figure of the
// paper's evaluation (see DESIGN.md for the experiment index). Custom
// metrics carry the quantities the paper reports — modeled runtime,
// speedups, cache misses, bitmap-time shares — since wall-clock on a
// small host cannot express 128-way scaling directly.
//
// The full-resolution regeneration lives in cmd/benchharness; these
// benches run the same code at bench-friendly sizes.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
	"repro/internal/numa"
	"repro/internal/rng"
	"repro/internal/rrr"
	"repro/internal/serve"
)

// benchProfile returns a scale-clamped clone.
func benchProfile(b *testing.B, name string, maxScale int, model graph.Model) *graph.Graph {
	b.Helper()
	p, err := gen.ProfileByName(name)
	if err != nil {
		b.Fatal(err)
	}
	if p.Scale > maxScale {
		p.Scale = maxScale
	}
	g, err := p.Generate(model, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchOpts(engine imm.EngineKind, model graph.Model, workers int) imm.Options {
	o := imm.Defaults()
	o.Engine = engine
	o.Workers = workers
	o.K = 25
	o.Seed = 1
	if model == graph.LT {
		o.MaxTheta = 50000
	} else {
		o.MaxTheta = 5000
	}
	return o
}

// BenchmarkTable1RRRCoverage regenerates the Table I coverage columns
// for every dataset clone.
func BenchmarkTable1RRRCoverage(b *testing.B) {
	for _, p := range gen.Profiles() {
		p := p
		if p.Scale > 10 {
			p.Scale = 10
		}
		b.Run(p.Name, func(b *testing.B) {
			g, err := p.Generate(graph.IC, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var st CoverageStats
			for i := 0; i < b.N; i++ {
				st = MeasureCoverage(g, 200, 2, 1)
			}
			b.ReportMetric(st.AvgCoverage*100, "avgCov%")
			b.ReportMetric(st.MaxCoverage*100, "maxCov%")
		})
	}
}

// BenchmarkFig1RipplesScaling regenerates the Ripples-only strong
// scaling view (Figure 1) on the web-Google clone.
func BenchmarkFig1RipplesScaling(b *testing.B) {
	for _, model := range []graph.Model{graph.LT, graph.IC} {
		g := benchProfile(b, "web-Google", 9, model)
		base := 0.0
		for _, w := range []int{1, 4, 16, 64} {
			b.Run(fmt.Sprintf("%s/w%d", model, w), func(b *testing.B) {
				var modeled float64
				for i := 0; i < b.N; i++ {
					res, err := imm.Run(g, benchOpts(imm.Ripples, model, w))
					if err != nil {
						b.Fatal(err)
					}
					modeled = res.Breakdown.TotalModeled()
				}
				if w == 1 {
					base = modeled
				}
				b.ReportMetric(modeled, "modeled")
				if base > 0 {
					b.ReportMetric(base/modeled, "speedup")
				}
			})
		}
	}
}

// BenchmarkFig2Breakdown regenerates the Ripples runtime breakdown
// (Figure 2): phase shares of modeled time.
func BenchmarkFig2Breakdown(b *testing.B) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g := benchProfile(b, "web-Google", 9, model)
		for _, w := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/w%d", model, w), func(b *testing.B) {
				var bd imm.Breakdown
				for i := 0; i < b.N; i++ {
					res, err := imm.Run(g, benchOpts(imm.Ripples, model, w))
					if err != nil {
						b.Fatal(err)
					}
					bd = res.Breakdown
				}
				total := bd.TotalModeled()
				b.ReportMetric(100*bd.SamplingModeled/total, "genRRR%")
				b.ReportMetric(100*bd.SelectionModeled/total, "findMIS%")
			})
		}
	}
}

// BenchmarkTable2NUMA regenerates the NUMA placement comparison
// (Table II): share of modeled core time spent on the visited bitmap.
func BenchmarkTable2NUMA(b *testing.B) {
	g := benchProfile(b, "com-YouTube", 10, graph.IC)
	topo := numa.PerlmutterLike()
	for _, placement := range []imm.NUMAPlacement{imm.PlacementOriginal, imm.PlacementAware} {
		b.Run(placement.String(), func(b *testing.B) {
			var rep imm.NUMAReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = imm.MeasureNUMAGeneration(g, topo, placement, 150, 64, 1)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.BitmapSharePercent(), "bitmap%")
			b.ReportMetric(rep.Imbalance, "nodeImbalance")
		})
	}
}

// BenchmarkFig5AdaptiveUpdate regenerates the adaptive counter update
// comparison (Figure 5) at high worker count.
func BenchmarkFig5AdaptiveUpdate(b *testing.B) {
	g := benchProfile(b, "com-YouTube", 9, graph.IC)
	for _, strat := range []counter.UpdateStrategy{counter.Decrement, counter.AdaptiveUpdate} {
		b.Run(strat.String(), func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				opt := benchOpts(imm.Efficient, graph.IC, 64)
				opt.Update = strat
				res, err := imm.Run(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				modeled = res.Breakdown.SelectionModeled
			}
			b.ReportMetric(modeled, "selModeled")
		})
	}
}

// BenchmarkTable3BestRuntime regenerates the engine comparison behind
// Table III on two representative clones.
func BenchmarkTable3BestRuntime(b *testing.B) {
	for _, name := range []string{"web-Google", "com-Amazon"} {
		for _, model := range []graph.Model{graph.IC, graph.LT} {
			g := benchProfile(b, name, 9, model)
			for _, engine := range []imm.EngineKind{imm.Ripples, imm.Efficient} {
				b.Run(fmt.Sprintf("%s/%s/%s", name, model, engine), func(b *testing.B) {
					var modeled float64
					for i := 0; i < b.N; i++ {
						res, err := imm.Run(g, benchOpts(engine, model, 64))
						if err != nil {
							b.Fatal(err)
						}
						modeled = res.Breakdown.TotalModeled()
					}
					b.ReportMetric(modeled, "modeled@64w")
				})
			}
		}
	}
}

// benchScaling regenerates the normalized strong-scaling curves of
// Figures 6 (LT) and 7 (IC).
func benchScaling(b *testing.B, model graph.Model) {
	g := benchProfile(b, "web-Google", 9, model)
	rip1 := 0.0
	for _, engine := range []imm.EngineKind{imm.Ripples, imm.Efficient} {
		for _, w := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/w%d", engine, w), func(b *testing.B) {
				var modeled float64
				for i := 0; i < b.N; i++ {
					res, err := imm.Run(g, benchOpts(engine, model, w))
					if err != nil {
						b.Fatal(err)
					}
					modeled = res.Breakdown.TotalModeled()
				}
				if engine == imm.Ripples && w == 1 {
					rip1 = modeled
				}
				if rip1 > 0 {
					b.ReportMetric(rip1/modeled, "speedupVsRipples1")
				}
			})
		}
	}
}

// BenchmarkFig6ScalingLT regenerates Figure 6 (LT model).
func BenchmarkFig6ScalingLT(b *testing.B) { benchScaling(b, graph.LT) }

// BenchmarkFig7ScalingIC regenerates Figure 7 (IC model).
func BenchmarkFig7ScalingIC(b *testing.B) { benchScaling(b, graph.IC) }

// BenchmarkTable4CacheMisses regenerates the simulated L1+L2 miss
// comparison (Table IV).
func BenchmarkTable4CacheMisses(b *testing.B) {
	g := benchProfile(b, "com-YouTube", 10, graph.IC)
	for _, engine := range []imm.EngineKind{imm.Ripples, imm.Efficient} {
		b.Run(engine.String(), func(b *testing.B) {
			var misses int64
			for i := 0; i < b.N; i++ {
				rep := imm.TraceSelection(g, engine, 10, 300, 64, 1)
				misses = rep.Stats.CombinedMisses()
			}
			b.ReportMetric(float64(misses), "L1+L2misses")
		})
	}
}

// BenchmarkAblation measures each §IV design choice in isolation at 64
// workers on the web-Google clone (the design-choice index in
// DESIGN.md).
func BenchmarkAblation(b *testing.B) {
	g := benchProfile(b, "web-Google", 9, graph.IC)
	variants := []struct {
		name   string
		mutate func(*imm.Options)
	}{
		{"full", func(*imm.Options) {}},
		{"no-fusion", func(o *imm.Options) { o.Fusion = false }},
		{"no-adaptive-rep", func(o *imm.Options) { o.AdaptiveRep = false }},
		{"decrement-only", func(o *imm.Options) { o.Update = counter.Decrement }},
		{"rebuild-only", func(o *imm.Options) { o.Update = counter.Rebuild }},
		{"static-schedule", func(o *imm.Options) { o.DynamicBalance = false }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var modeled float64
			for i := 0; i < b.N; i++ {
				opt := benchOpts(imm.Efficient, graph.IC, 64)
				v.mutate(&opt)
				res, err := imm.Run(g, opt)
				if err != nil {
					b.Fatal(err)
				}
				modeled = res.Breakdown.TotalModeled()
			}
			b.ReportMetric(modeled, "modeled")
		})
	}
}

// BenchmarkDistributed tracks the simulated MPI extension from PR 1
// onward: wall-clock of a full distributed run plus the metered
// communication volume per rank count, the comm-volume/scaling
// trajectory the future real-MPI backend will be judged against.
func BenchmarkDistributed(b *testing.B) {
	g := benchProfile(b, "web-Google", 9, graph.IC)
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			dopt := DefaultDistOptions()
			dopt.Options = benchOpts(imm.Efficient, graph.IC, 2)
			dopt.Ranks = ranks
			var res *DistResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = RunDistributed(g, dopt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Comm.BytesSent), "commBytes")
			b.ReportMetric(float64(res.Comm.Messages), "commMsgs")
			b.ReportMetric(float64(res.Comm.SetGather.BytesSent), "gatherBytes")
		})
	}
}

// BenchmarkEndToEnd measures real wall-clock of a complete Run on this
// machine — the sanity check that the optimized engine also wins in
// practice at the physical core count.
func BenchmarkEndToEnd(b *testing.B) {
	g := benchProfile(b, "web-Google", 10, graph.IC)
	for _, engine := range []imm.EngineKind{imm.Ripples, imm.Efficient} {
		b.Run(engine.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := imm.Run(g, benchOpts(engine, graph.IC, 2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerationKernel isolates the generation path: filling the
// same pool slots through the copy-out reference GenerateSlots (per-set
// copy + header) versus the engine's GenerateSlotsFused (arena storage,
// counter folded into the emit). allocs/op is the headline: the fused
// path's per-set allocation rate is amortized zero. The list policy is
// pinned because bitmap-represented sets allocate alike on both sides.
func BenchmarkGenerationKernel(b *testing.B) {
	g := benchProfile(b, "web-Google", 10, graph.IC)
	opt := benchOpts(imm.Efficient, graph.IC, 1)
	opt.AdaptiveRep = false
	policy := imm.PolicyFromOptions(opt)
	const slots = 4096
	out := make([]rrr.Set, slots)

	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		cnt := counter.New(g.N)
		for i := 0; i < b.N; i++ {
			imm.GenerateSlots(g, policy, opt.Seed, 0, out)
			for _, s := range out {
				s.ForEach(func(v int32) { cnt.Inc(v) })
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		arena := rrr.NewArena()
		cnt := counter.New(g.N)
		for i := 0; i < b.N; i++ {
			arena.Reset() // steady state: storage reused across rounds
			imm.GenerateSlotsFused(g, policy, opt.Seed, 0, out, arena, cnt)
		}
	})
}

// BenchmarkCELFSelect compares the two selection kernels at a high
// simulated worker count: modeled selection ops (the scaling quantity)
// and real wall-clock per full run.
func BenchmarkCELFSelect(b *testing.B) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g := benchProfile(b, "web-Google", 10, model)
		for _, sel := range []imm.SelectionKind{imm.SelectScan, imm.SelectCELF} {
			b.Run(fmt.Sprintf("%s/%s", model, sel), func(b *testing.B) {
				var modeled float64
				for i := 0; i < b.N; i++ {
					opt := benchOpts(imm.Efficient, model, 64)
					opt.Selection = sel
					res, err := imm.Run(g, opt)
					if err != nil {
						b.Fatal(err)
					}
					modeled = res.Breakdown.SelectionModeled
				}
				b.ReportMetric(modeled, "selModeled@64w")
			})
		}
	}
}

// BenchmarkIngest measures the parallel edge-list pipeline and the
// snapshot reload at several worker counts, reporting MB/s, edges/s and
// the three stage walls (imbench's ingest.* cells). The lt16 regime is
// cold-lt-sparse's file: R-MAT scale 16, edge factor 8, LT weights.
// lt16-undirected is the same file read undirected, whose edge list
// reaches graph.BuildTopology unsorted and so pays for both sorting
// passes and the sortedness check before them.
func BenchmarkIngest(b *testing.B) {
	edgeList := func(scale int, edgeFactor float64) []byte {
		g, err := gen.RMAT(gen.DefaultRMAT(scale, edgeFactor), graph.IC, 1)
		if err != nil {
			b.Fatal(err)
		}
		var text bytes.Buffer
		if err := graph.WriteEdgeList(&text, g); err != nil {
			b.Fatal(err)
		}
		return text.Bytes()
	}
	data, lt16 := edgeList(13, 8), edgeList(16, 8)
	for _, regime := range []struct {
		name       string
		data       []byte
		model      graph.Model
		undirected bool
		workers    []int
	}{
		{"edgelist", data, graph.IC, false, []int{1, 2, 4, 8}},
		{"lt16", lt16, graph.LT, false, []int{1, 2}},
		{"lt16-undirected", lt16, graph.LT, true, []int{1, 2}},
	} {
		for _, w := range regime.workers {
			b.Run(fmt.Sprintf("%s/workers=%d", regime.name, w), func(b *testing.B) {
				b.SetBytes(int64(len(regime.data)))
				b.ReportAllocs()
				var st ingest.Stats
				for i := 0; i < b.N; i++ {
					_, s, err := ingest.Bytes(regime.data, ingest.Options{Workers: w, Undirected: regime.undirected, Model: regime.model, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					st = s
				}
				b.ReportMetric(st.MBPerSec(), "MB/s")
				b.ReportMetric(st.EdgesPerSec(), "edges/s")
				b.ReportMetric(float64(st.ParseWall.Microseconds())/1e3, "parse-ms")
				b.ReportMetric(float64(st.BuildWall.Microseconds())/1e3, "build-ms")
				b.ReportMetric(float64(st.AssignWall.Microseconds())/1e3, "assign-ms")
			})
		}
	}
	ingested, _, err := ingest.Bytes(data, ingest.Options{Workers: 4, Model: graph.IC, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ingest.WriteSnapshot(&snap, ingested, 1); err != nil {
		b.Fatal(err)
	}
	b.Run("snapshot/reload", func(b *testing.B) {
		b.SetBytes(int64(snap.Len()))
		for i := 0; i < b.N; i++ {
			if _, _, err := ingest.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApplyDelta measures one graph epoch: graph.ApplyDelta on the
// serving graph (R-MAT 13, weighted cascade) over a fixed seeded stream
// of 3-add/3-remove deltas, every one applied to the same base epoch —
// the reproducible stand-in for imbench's graph.apply_delta_ms.
func BenchmarkApplyDelta(b *testing.B) {
	g, err := gen.RMAT(gen.DefaultRMAT(13, 8), graph.IC, 1)
	if err != nil {
		b.Fatal(err)
	}
	graph.AssignWC(g)
	deltas := servingDeltas(g, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.ApplyDelta(g, deltas[i%len(deltas)], graph.DeltaOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// servingDeltas draws count 3-add/3-remove deltas against g from one
// fixed seeded stream: removals of edges g has, additions between random
// endpoints.
func servingDeltas(g *graph.Graph, count int) []graph.Delta {
	r := rng.New(7)
	deltas := make([]graph.Delta, count)
	for i := range deltas {
		d := graph.Delta{Seed: uint64(i)}
		for j := 0; j < 3; j++ {
			u := int32(r.Intn(int(g.N)))
			for g.OutDegree(u) == 0 {
				u = int32(r.Intn(int(g.N)))
			}
			out := g.OutNeighbors(u)
			d.Remove = append(d.Remove, graph.Edge{Src: u, Dst: out[r.Intn(len(out))]})
			d.Add = append(d.Add, graph.Edge{Src: int32(r.Intn(int(g.N))), Dst: int32(r.Intn(int(g.N)))})
		}
		deltas[i] = d
	}
	return deltas
}

// BenchmarkServeCold measures the per-query cost when every query pays
// full RRR generation — a fresh server per iteration, the
// sample-from-scratch baseline the warm-pool service amortizes away.
func BenchmarkServeCold(b *testing.B) {
	g := benchProfile(b, "web-Google", 10, graph.IC)
	req := serve.QueryRequest{Graph: "g", K: 25, Epsilon: 0.5, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := serve.NewServer(serve.Options{Workers: 4, MaxTheta: 5000})
		if _, err := s.AddGraph("g", g, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Query(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeBatch measures a concurrent mixed-k burst on one warm
// pool through the batched planner: the whole burst shares at most one
// θ-extension (here zero — the pool is pre-warmed past every member),
// so per-burst cost is pure prefix selection. sharedSets reports the
// same-batch sample reuse the planner's gather window buys.
func BenchmarkServeBatch(b *testing.B) {
	g := benchProfile(b, "web-Google", 10, graph.IC)
	ks := []int{5, 10, 15, 20, 25}
	s := serve.NewServer(serve.Options{
		Workers: 4, MaxTheta: 5000,
		QueryWorkers: len(ks), GatherWindow: 2 * time.Millisecond,
	})
	if _, err := s.AddGraph("g", g, 1); err != nil {
		b.Fatal(err)
	}
	// Pre-warm with the largest member so every burst is extension-free.
	if _, err := s.Query(serve.QueryRequest{Graph: "g", K: 25, Epsilon: 0.5, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, k := range ks {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				res, err := s.Query(serve.QueryRequest{Graph: "g", K: k, Epsilon: 0.5, Seed: 1})
				if err != nil {
					b.Error(err)
					return
				}
				if res.GeneratedSets != 0 {
					b.Errorf("warm burst member k=%d regenerated %d sets", k, res.GeneratedSets)
				}
			}(k)
		}
		wg.Wait()
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.BatchedQueries)/float64(b.N), "batchedQ/burst")
	b.ReportMetric(float64(st.MaxBatchSize), "maxBatch")
}

// BenchmarkServeSequential measures one in-process client repeating a
// warm memo-hit query at the default gather window: the planner's fixed
// cost on a sequential stream. A leader that comes straight back to a
// pool whose last drain answered it alone skips the window, so an op is
// the warm answer plus the planner's bookkeeping rather than a window
// waiting for a second query that never comes. maxBatch stays 1.
func BenchmarkServeSequential(b *testing.B) {
	g := benchProfile(b, "web-Google", 10, graph.IC)
	s := serve.NewServer(serve.Options{Workers: 4, MaxTheta: 5000})
	if _, err := s.AddGraph("g", g, 1); err != nil {
		b.Fatal(err)
	}
	req := serve.QueryRequest{Graph: "g", K: 25, Epsilon: 0.5, Seed: 1}
	// Build the pool, then answer once from it so the memo holds req.
	for i := 0; i < 2; i++ {
		if _, err := s.Query(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Query(req)
		if err != nil {
			b.Fatal(err)
		}
		if res.GeneratedSets != 0 {
			b.Fatalf("warm repeat regenerated %d sets", res.GeneratedSets)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().MaxBatchSize), "maxBatch")
}

// BenchmarkWarmAnswer measures the engine's share of a warm query — one
// WarmEngine.AnswerBatch on a pool that already covers it, no planner,
// no HTTP — on the serving graph imbench uses (R-MAT 13, weighted-cascade
// IC, Workers=2), per serving shape. The shape's own sub-benchmark is the
// miss path: iteration i asks for ε + i%12 thousandths, which moves every
// θ of the trajectory by a fraction of a percent and so cycles through
// more distinct selections than the pool's sixteen-entry memo holds —
// every answer runs the CELF kernel, as every answer did before the memo.
// /hit repeats one query exactly: every selection is a memo lookup, which
// is what imbench's imm.warm_answer_ms and imm.warm_answer_allocs time
// now that they repeat one shape. /thawed is the first answer of a pool
// just thawed from a state frozen after a lap of the shape's nudged
// neighbours — so its memo does not hold the shape and every answer runs
// the kernel — with the selection scratch not yet allocated and the thaw
// itself off the clock: the miss a promotion meets on a shape its
// snapshot never answered.
func BenchmarkWarmAnswer(b *testing.B) {
	g, err := gen.RMAT(gen.DefaultRMAT(13, 8), graph.IC, 1)
	if err != nil {
		b.Fatal(err)
	}
	graph.AssignWC(g)
	opt := imm.Defaults()
	opt.Workers = 2
	opt.Seed = 1
	w, err := imm.NewWarmEngine(g, opt)
	if err != nil {
		b.Fatal(err)
	}
	const cycle = 12
	nudged := func(q imm.BatchQuery, i int) imm.BatchQuery {
		q.Epsilon += 0.001 * float64(i%cycle)
		return q
	}
	shapes := []imm.BatchQuery{{K: 50, Epsilon: 0.5}, {K: 25, Epsilon: 0.7}, {K: 100, Epsilon: 0.4}}
	var all []imm.BatchQuery
	for _, q := range shapes {
		for i := 0; i < cycle; i++ {
			all = append(all, nudged(q, i))
		}
	}
	if _, err := w.AnswerBatch(opt, all); err != nil { // builds the pool past every query below
		b.Fatal(err)
	}
	answerOn := func(b *testing.B, w *imm.WarmEngine, q imm.BatchQuery) imm.BatchAnswer {
		rep, err := w.AnswerBatch(opt, []imm.BatchQuery{q})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Extensions != 0 {
			b.Fatal("warm answer extended the pool")
		}
		return rep.Answers[0]
	}
	answer := func(b *testing.B, q imm.BatchQuery) imm.BatchAnswer { return answerOn(b, w, q) }
	for _, q := range shapes {
		b.Run(fmt.Sprintf("k=%d/eps=%g", q.K, q.Epsilon), func(b *testing.B) {
			for i := 0; i < cycle; i++ { // one lap: the memo now holds only the lap's tail
				answer(b, nudged(q, i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Only the final selection may hit, when it repeats the
				// last estimation round's.
				if a := answer(b, nudged(q, i)); a.MemoHits > 1 {
					b.Fatalf("%d of %d selections hit the memo, want a miss", a.MemoHits, a.Selections)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/eps=%g/hit", q.K, q.Epsilon), func(b *testing.B) {
			answer(b, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a := answer(b, q); a.MemoHits != a.Selections {
					b.Fatalf("%d of %d selections hit the memo, want all", a.MemoHits, a.Selections)
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/eps=%g/thawed", q.K, q.Epsilon), func(b *testing.B) {
			for i := 1; i < cycle; i++ { // one lap of neighbours pushes the shape out of the memo
				answer(b, nudged(q, i))
			}
			frozen, err := w.Freeze(0) // aliases w's index: valid while w's pool is not extended, as here
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tw, err := imm.ThawWarmEngine(g, opt, frozen)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if a := answerOn(b, tw, q); a.MemoHits > 1 {
					b.Fatalf("%d of %d selections hit the memo of a pool just thawed", a.MemoHits, a.Selections)
				}
			}
		})
	}
}

// BenchmarkRepair measures one warm-pool repair on the serving graph
// (R-MAT 13, weighted cascade, Workers=2, the default query's pool): the
// seeded 3-add/3-remove deltas of BenchmarkApplyDelta, each applied to the
// same base epoch and repaired on a pool thawed at that epoch, with only
// WarmEngine.ApplyDelta on the clock — invalidation through the index,
// resampling, the index patch and the counter. Every op does the work its
// delta dictates whatever ran before it, which makes it the repeatable
// stand-in for imbench's imm.repair_ms; sets/op is the resampled share.
func BenchmarkRepair(b *testing.B) {
	g, err := gen.RMAT(gen.DefaultRMAT(13, 8), graph.IC, 1)
	if err != nil {
		b.Fatal(err)
	}
	graph.AssignWC(g)
	opt := imm.Defaults()
	opt.Workers = 2
	opt.Seed = 1
	w, err := imm.NewWarmEngine(g, opt)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.AnswerBatch(opt, []imm.BatchQuery{{K: opt.K, Epsilon: opt.Epsilon}}); err != nil {
		b.Fatal(err)
	}
	frozen, err := w.Freeze(0)
	if err != nil {
		b.Fatal(err)
	}
	deltas := servingDeltas(g, 200)
	var resampled int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ng, rep, err := graph.ApplyDelta(g, deltas[i%len(deltas)], graph.DeltaOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tw, err := imm.ThawWarmEngine(g, opt, frozen)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rr, err := tw.ApplyDelta(ng, rep)
		if err != nil || rr.FullResample {
			b.Fatalf("repair: %+v, %v", rr, err)
		}
		resampled += rr.Resampled
	}
	b.ReportMetric(float64(resampled)/float64(b.N), "sets/op")
}

// BenchmarkServeWarm measures the steady-state served query: the pool
// is warm after the first query, so every iteration is selection-only.
// Compare against BenchmarkServeCold for the amortization win that
// imbench's serve-warm workload times end to end.
func BenchmarkServeWarm(b *testing.B) {
	g := benchProfile(b, "web-Google", 10, graph.IC)
	s := serve.NewServer(serve.Options{Workers: 4, MaxTheta: 5000})
	if _, err := s.AddGraph("g", g, 1); err != nil {
		b.Fatal(err)
	}
	req := serve.QueryRequest{Graph: "g", K: 25, Epsilon: 0.5, Seed: 1}
	if _, err := s.Query(req); err != nil { // warm the pool outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var reused int64
	for i := 0; i < b.N; i++ {
		res, err := s.Query(req)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Warm || res.GeneratedSets != 0 {
			b.Fatalf("warm query regenerated: %+v", res)
		}
		reused = res.ReusedSets
	}
	b.ReportMetric(float64(reused), "reusedSets")
}

// coldRegimes are the three regimes the sampler's density switch must
// serve — the same graphs imbench's cold-ic-dense, serving (cluster-cold,
// tier-rotate, delta-churn) and cold-lt-sparse workloads generate on.
var coldRegimes = []struct {
	name       string
	scale      int
	edgeFactor float64
	model      graph.Model
	wc         bool
}{
	{"dense-ic", 9, 16, graph.IC, false}, // uniform IC: bitmap sets, dense scan shape
	{"wc-ic", 13, 8, graph.IC, true},     // weighted cascade: list sets, sparse scan shape
	{"lt", 16, 8, graph.LT, false},       // ~2-member walks: per-set overhead
}

// BenchmarkColdRun is a complete cold Run in each of coldRegimes. ns/edge
// divides the whole run by the in-edges its θ slots examine, so it moves
// with the traversal and not with θ. Reproduce with
// `go test -run '^$' -bench 'ColdRun$' -cpu 1`.
func BenchmarkColdRun(b *testing.B) { benchColdRun(b, imm.Efficient) }

// BenchmarkColdRunRipples is BenchmarkColdRun on the Ripples baseline:
// static generation into its list-only store, and the vertex-partitioned
// selection that binary-searches every set.
func BenchmarkColdRunRipples(b *testing.B) { benchColdRun(b, imm.Ripples) }

func benchColdRun(b *testing.B, engine imm.EngineKind) {
	for _, rg := range coldRegimes {
		b.Run(rg.name, func(b *testing.B) {
			g, err := gen.RMAT(gen.DefaultRMAT(rg.scale, rg.edgeFactor), rg.model, 1)
			if err != nil {
				b.Fatal(err)
			}
			if rg.wc {
				graph.AssignWC(g)
			}
			opt := imm.Defaults()
			opt.Engine = engine
			opt.Workers = 2
			ref, err := imm.Run(g, opt)
			if err != nil {
				b.Fatal(err)
			}
			_, edges := imm.GenerateSlotsFused(g, imm.PolicyFromOptions(opt), opt.Seed, 0,
				make([]rrr.Set, ref.Theta), rrr.NewArena(), nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := imm.Run(g, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
		})
	}
}

// BenchmarkTierRotate is imbench's tier-rotate workload without the
// stack around it: on the serving graph (R-MAT 13, weighted-cascade IC,
// Workers=2) four tenants' pools are built and saved, a fresh server
// rehydrates them under a budget of 2.5 pools as they weigh once
// promoted, and the default query goes round-robin in-process with the
// gather window off, so every op promotes one pool from its .impool
// snapshot and demotes another. promotions/op must read 1 (the rotation
// goes through the disk tier), demotion_writes/op 0 (every pool's
// snapshot already holds it) and memo_hits/op the default query's
// Rounds+1 (the snapshot carries the memo of the query that built the
// pool, so no selection runs); ns/op and allocs/op are then the cost of
// one clean demotion plus one promotion plus one memo-hit answer.
func BenchmarkTierRotate(b *testing.B) { benchTierRotate(b, -1) }

// BenchmarkTierRotateDefaultWindow is the same rotation at the serving
// default gather window (DefaultGatherWindow), the planner the tier-rotate
// workload runs. A leader whose pool sits in the disk tier promotes it
// without waiting out the window, so ns/op should read close to
// BenchmarkTierRotate's rather than a window above it.
func BenchmarkTierRotateDefaultWindow(b *testing.B) { benchTierRotate(b, 0) }

// benchTierRotate runs the tier rotation with the given
// serve.Options.GatherWindow and reports its tier metrics.
func benchTierRotate(b *testing.B, window time.Duration) {
	const tenants = 4
	g, err := gen.RMAT(gen.DefaultRMAT(13, 8), graph.IC, 1)
	if err != nil {
		b.Fatal(err)
	}
	graph.AssignWC(g)
	opt := serve.Options{Workers: 2, GatherWindow: window, PoolDir: b.TempDir()}
	rotate := func(s *serve.Server, ops int) {
		for i := 0; i < ops; i++ {
			res, err := s.Query(serve.QueryRequest{Graph: "g", K: 50, Epsilon: 0.5, Seed: uint64(1 + i%tenants)})
			if err != nil {
				b.Fatal(err)
			}
			if s.Stats().Rehydrated > 0 && (!res.Warm || res.GeneratedSets != 0 || res.MemoHits != int64(res.Rounds)+1) {
				b.Fatalf("rotation regenerated or reselected: %+v", res)
			}
		}
	}
	boot := func(opt serve.Options) *serve.Server {
		s := serve.NewServer(opt)
		if _, err := s.AddGraph("g", g, 1); err != nil {
			b.Fatal(err)
		}
		if _, err := s.LoadPools(); err != nil {
			b.Fatal(err)
		}
		return s
	}

	build := boot(opt) // nothing to load yet: builds the pools
	rotate(build, tenants)
	if saved, err := build.SavePools(""); err != nil || saved != tenants {
		b.Fatalf("SavePools = %d, %v", saved, err)
	}
	sizing := boot(opt) // room for all of them: what the promoted working set weighs
	rotate(sizing, tenants)
	opt.PoolBudgetBytes = sizing.Stats().PoolBytes * 5 / (2 * tenants)

	s := boot(opt)
	rotate(s, tenants) // the LRU settles into its worst-case order
	before := s.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	rotate(s, b.N)
	b.StopTimer()
	after := s.Stats()
	if after.PromoteFailures != 0 {
		b.Fatalf("%d promotions failed", after.PromoteFailures)
	}
	b.ReportMetric(float64(after.Promotions-before.Promotions)/float64(b.N), "promotions/op")
	b.ReportMetric(float64(after.DemotionWrites-before.DemotionWrites)/float64(b.N), "demotion_writes/op")
	b.ReportMetric(float64(after.SelectionMemoHits-before.SelectionMemoHits)/float64(b.N), "memo_hits/op")
}
