package harness

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/diffusion"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/numa"
	"repro/internal/rrr"
)

// ---------------------------------------------------------------------
// Table I — input graph and RRRset characteristics.
// ---------------------------------------------------------------------

// Table1Row mirrors one row of Table I, with the paper's values attached
// for the side-by-side in EXPERIMENTS.md.
type Table1Row struct {
	Dataset     string
	Nodes       int32
	Edges       int64
	AvgCoverage float64
	MaxCoverage float64
	SCCFraction float64

	PaperNodes       int64
	PaperEdges       int64
	PaperAvgCoverage float64
	PaperMaxCoverage float64
}

// Table1 measures RRR coverage under IC with ε=0.5 weights, as in the
// paper's Table I.
func Table1(cfg Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, p := range cfg.profiles() {
		g, err := p.Generate(graph.IC, cfg.Seed)
		if err != nil {
			return nil, err
		}
		st := diffusion.MeasureCoverage(g, cfg.CoverageSamples, 2, cfg.Seed)
		rows = append(rows, Table1Row{
			Dataset:          p.Name,
			Nodes:            g.N,
			Edges:            g.M,
			AvgCoverage:      st.AvgCoverage,
			MaxCoverage:      st.MaxCoverage,
			SCCFraction:      g.LargestSCCFraction(),
			PaperNodes:       p.PaperNodes,
			PaperEdges:       p.PaperEdges,
			PaperAvgCoverage: p.PaperAvgCoverage,
			PaperMaxCoverage: p.PaperMaxCoverage,
		})
	}
	csv := [][]string{{"dataset", "nodes", "edges", "avg_coverage", "max_coverage", "scc_fraction", "paper_avg_coverage", "paper_max_coverage"}}
	for _, r := range rows {
		csv = append(csv, []string{r.Dataset, itoa(int(r.Nodes)), i64(r.Edges), pct(r.AvgCoverage), pct(r.MaxCoverage), pct(r.SCCFraction), pct(r.PaperAvgCoverage), pct(r.PaperMaxCoverage)})
	}
	return rows, cfg.writeCSV("table1_coverage.csv", csv)
}

// ---------------------------------------------------------------------
// Figures 1, 6, 7 — strong scaling.
// ---------------------------------------------------------------------

// ScalingPoint is one point of a strong-scaling curve.
type ScalingPoint struct {
	Dataset string
	Engine  string
	Model   string
	Workers int
	WallMS  float64
	Modeled float64
	// SpeedupVs1 and SpeedupVs8 normalize modeled runtime to the
	// Ripples 1-thread and 8-thread baselines, as in Figures 6 and 7.
	SpeedupVs1 float64
	SpeedupVs8 float64
}

// ScalingSweep runs both engines across the worker sweep for every
// selected dataset under the given model, producing the data behind
// Figures 1 (ripples-only view), 6 (LT) and 7 (IC).
func ScalingSweep(cfg Config, model graph.Model) ([]ScalingPoint, error) {
	var points []ScalingPoint
	for _, p := range cfg.profiles() {
		g, err := p.Generate(model, cfg.Seed)
		if err != nil {
			return nil, err
		}
		recs := map[string]map[int]RunRecord{"ripples": {}, "efficientimm": {}}
		for _, engine := range []imm.EngineKind{imm.Ripples, imm.Efficient} {
			for _, w := range cfg.Workers {
				rec, err := runOne(g, p.Name, cfg.options(engine, model, w))
				if err != nil {
					return nil, err
				}
				recs[rec.Engine][w] = rec
				if err := cfg.writeJSONLog(rec); err != nil {
					return nil, err
				}
			}
		}
		base1 := recs["ripples"][cfg.Workers[0]].Modeled
		base8 := base1
		if r, ok := recs["ripples"][8]; ok {
			base8 = r.Modeled
		}
		for _, engine := range []string{"ripples", "efficientimm"} {
			for _, w := range cfg.Workers {
				rec := recs[engine][w]
				points = append(points, ScalingPoint{
					Dataset: p.Name, Engine: engine, Model: model.String(), Workers: w,
					WallMS: rec.WallMS, Modeled: rec.Modeled,
					SpeedupVs1: safeDiv(base1, rec.Modeled),
					SpeedupVs8: safeDiv(base8, rec.Modeled),
				})
			}
		}
	}
	name := fmt.Sprintf("fig_scaling_%s.csv", lower(model.String()))
	csv := [][]string{{"dataset", "engine", "model", "workers", "wall_ms", "modeled", "speedup_vs_ripples1", "speedup_vs_ripples8"}}
	for _, pt := range points {
		csv = append(csv, []string{pt.Dataset, pt.Engine, pt.Model, itoa(pt.Workers), f2(pt.WallMS), f2(pt.Modeled), f2(pt.SpeedupVs1), f2(pt.SpeedupVs8)})
	}
	return points, cfg.writeCSV(name, csv)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---------------------------------------------------------------------
// Figure 2 — Ripples runtime breakdown.
// ---------------------------------------------------------------------

// BreakdownPoint is one stacked bar of Figure 2.
type BreakdownPoint struct {
	Model        string
	Workers      int
	SamplingPct  float64 // Generate_RRRsets share of modeled time
	SelectionPct float64 // Find_Most_Influential_Set share
}

// Fig2Breakdown reproduces the Ripples runtime breakdown on the
// web-Google clone for both models.
func Fig2Breakdown(cfg Config) ([]BreakdownPoint, error) {
	prof, err := gen.ProfileByName("web-Google")
	if err != nil {
		return nil, err
	}
	if cfg.MaxScale > 0 && prof.Scale > cfg.MaxScale {
		prof.Scale = cfg.MaxScale
	}
	var points []BreakdownPoint
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g, err := prof.Generate(model, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, w := range cfg.Workers {
			rec, err := runOne(g, prof.Name, cfg.options(imm.Ripples, model, w))
			if err != nil {
				return nil, err
			}
			total := rec.SamplingModeled + rec.SelectionModeled
			points = append(points, BreakdownPoint{
				Model: model.String(), Workers: w,
				SamplingPct:  100 * safeDiv(rec.SamplingModeled, total),
				SelectionPct: 100 * safeDiv(rec.SelectionModeled, total),
			})
		}
	}
	csv := [][]string{{"model", "workers", "generate_rrrsets_pct", "find_most_influential_pct"}}
	for _, pt := range points {
		csv = append(csv, []string{pt.Model, itoa(pt.Workers), f1(pt.SamplingPct), f1(pt.SelectionPct)})
	}
	return points, cfg.writeCSV("fig2_breakdown.csv", csv)
}

// ---------------------------------------------------------------------
// Table II — NUMA-aware data structure placement.
// ---------------------------------------------------------------------

// Table2Row compares bitmap-check time share under the two placements.
type Table2Row struct {
	Dataset        string
	OriginalPct    float64
	AwarePct       float64
	ImprovementPct float64 // (orig-aware)/orig, the paper's "Percentage Improvement"

	PaperOriginalPct    float64
	PaperAwarePct       float64
	PaperImprovementPct float64
}

// table2Paper holds the published Table II values for the report.
var table2Paper = map[string][3]float64{
	"com-Amazon":  {38.2, 23.8, 38},
	"com-YouTube": {38.6, 23.9, 38},
	"soc-Pokec":   {44.9, 16.6, 63},
	"com-LJ":      {46.3, 18.5, 60},
	"web-Google":  {29.0, 13.6, 53},
}

// Table2 runs the instrumented generation kernel under both placements
// on the paper's five datasets.
func Table2(cfg Config) ([]Table2Row, error) {
	topo := numa.PerlmutterLike()
	var rows []Table2Row
	for _, p := range cfg.profiles() {
		paper, ok := table2Paper[p.Name]
		if !ok {
			continue
		}
		g, err := p.Generate(graph.IC, cfg.Seed)
		if err != nil {
			return nil, err
		}
		workers := cfg.Workers[len(cfg.Workers)-1]
		orig, err := imm.MeasureNUMAGeneration(g, topo, imm.PlacementOriginal, cfg.NUMASamples, workers, cfg.Seed)
		if err != nil {
			return nil, err
		}
		aware, err := imm.MeasureNUMAGeneration(g, topo, imm.PlacementAware, cfg.NUMASamples, workers, cfg.Seed)
		if err != nil {
			return nil, err
		}
		op, ap := orig.BitmapSharePercent(), aware.BitmapSharePercent()
		rows = append(rows, Table2Row{
			Dataset:             p.Name,
			OriginalPct:         op,
			AwarePct:            ap,
			ImprovementPct:      100 * (op - ap) / op,
			PaperOriginalPct:    paper[0],
			PaperAwarePct:       paper[1],
			PaperImprovementPct: paper[2],
		})
	}
	csv := [][]string{{"dataset", "original_bitmap_pct", "numa_aware_bitmap_pct", "improvement_pct", "paper_original", "paper_aware", "paper_improvement"}}
	for _, r := range rows {
		csv = append(csv, []string{r.Dataset, f1(r.OriginalPct), f1(r.AwarePct), f1(r.ImprovementPct), f1(r.PaperOriginalPct), f1(r.PaperAwarePct), f1(r.PaperImprovementPct)})
	}
	return rows, cfg.writeCSV("table2_numa.csv", csv)
}

// ---------------------------------------------------------------------
// Figure 5 — adaptive counter update ablation.
// ---------------------------------------------------------------------

// Fig5Row compares selection cost with and without the adaptive update.
type Fig5Row struct {
	Dataset         string
	Model           string
	DecrementOnly   float64 // modeled selection cost
	Adaptive        float64
	RelativeSpeedup float64
}

// Fig5AdaptiveUpdate measures the adaptive-counter-update win at the
// maximum worker count on skew-heavy datasets.
func Fig5AdaptiveUpdate(cfg Config, datasets []string) ([]Fig5Row, error) {
	if datasets == nil {
		datasets = []string{"com-Amazon", "com-YouTube", "com-LJ", "soc-Pokec"}
	}
	workers := cfg.Workers[len(cfg.Workers)-1]
	var rows []Fig5Row
	for _, name := range datasets {
		p, err := gen.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		if cfg.MaxScale > 0 && p.Scale > cfg.MaxScale {
			p.Scale = cfg.MaxScale
		}
		g, err := p.Generate(graph.IC, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// The adaptive counter update is a property of the eager scan
		// kernel (CELF retires coverage through postings and never runs a
		// decrement/rebuild pass), so the ablation pins Selection to it.
		optDec := cfg.options(imm.Efficient, graph.IC, workers)
		optDec.Update = counter.Decrement
		optDec.Selection = imm.SelectScan
		recDec, err := runOne(g, p.Name, optDec)
		if err != nil {
			return nil, err
		}
		optAd := cfg.options(imm.Efficient, graph.IC, workers)
		optAd.Update = counter.AdaptiveUpdate
		optAd.Selection = imm.SelectScan
		recAd, err := runOne(g, p.Name, optAd)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig5Row{
			Dataset: p.Name, Model: "IC",
			DecrementOnly:   recDec.SelectionModeled,
			Adaptive:        recAd.SelectionModeled,
			RelativeSpeedup: safeDiv(recDec.SelectionModeled, recAd.SelectionModeled),
		})
	}
	csv := [][]string{{"dataset", "model", "decrement_selection_modeled", "adaptive_selection_modeled", "relative_speedup"}}
	for _, r := range rows {
		csv = append(csv, []string{r.Dataset, r.Model, f2(r.DecrementOnly), f2(r.Adaptive), f2(r.RelativeSpeedup)})
	}
	return rows, cfg.writeCSV("fig5_adaptive_update.csv", csv)
}

// ---------------------------------------------------------------------
// Table III — best runtime and the Twitter7 OOM analysis.
// ---------------------------------------------------------------------

// Table3Row is one dataset/model row: best runtime of each engine over
// the worker sweep plus the speedup.
type Table3Row struct {
	Dataset            string
	Model              string
	RipplesBest        float64 // modeled
	RipplesBestWorkers int
	EfficientBest      float64
	EffBestWorkers     int
	Speedup            float64
	// Paper-scale memory footprints (bytes) for the OOM analysis.
	RipplesFootprint   int64
	EfficientFootprint int64
	RipplesOOM         bool
}

// paperMemoryBudget is the evaluation machine's 512 GB.
const paperMemoryBudget = int64(512) << 30

// Table3 derives best-runtime rows from fresh scaling sweeps and adds
// the analytic paper-scale footprint comparison that explains the
// Twitter7 OOM row.
func Table3(cfg Config) ([]Table3Row, error) {
	var rows []Table3Row
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		points, err := ScalingSweep(cfg, model)
		if err != nil {
			return nil, err
		}
		best := map[string]*Table3Row{}
		order := []string{}
		for _, pt := range points {
			r, ok := best[pt.Dataset]
			if !ok {
				r = &Table3Row{Dataset: pt.Dataset, Model: model.String()}
				best[pt.Dataset] = r
				order = append(order, pt.Dataset)
			}
			switch pt.Engine {
			case "ripples":
				if r.RipplesBest == 0 || pt.Modeled < r.RipplesBest {
					r.RipplesBest = pt.Modeled
					r.RipplesBestWorkers = pt.Workers
				}
			default:
				if r.EfficientBest == 0 || pt.Modeled < r.EfficientBest {
					r.EfficientBest = pt.Modeled
					r.EffBestWorkers = pt.Workers
				}
			}
		}
		for _, name := range order {
			r := best[name]
			r.Speedup = safeDiv(r.RipplesBest, r.EfficientBest)
			p, err := gen.ProfileByName(name)
			if err != nil {
				return nil, err
			}
			// Paper-scale footprint: θ dense sets at the paper's coverage.
			meanSize := p.PaperAvgCoverage * float64(p.PaperNodes)
			thetaIC := int64(10000) // IC θ magnitude from §III.A
			r.RipplesFootprint = rrr.ListOnlyPolicy().FootprintBytes(int32(min64(p.PaperNodes, 1<<31-1)), thetaIC, meanSize)
			r.EfficientFootprint = rrr.DefaultPolicy().FootprintBytes(int32(min64(p.PaperNodes, 1<<31-1)), thetaIC, meanSize)
			r.RipplesOOM = model == graph.IC && r.RipplesFootprint > paperMemoryBudget
			rows = append(rows, *r)
		}
	}
	csv := [][]string{{"dataset", "model", "ripples_best_modeled", "ripples_best_workers", "efficientimm_best_modeled", "efficientimm_best_workers", "speedup", "ripples_paper_footprint_gb", "efficientimm_paper_footprint_gb", "ripples_oom"}}
	for _, r := range rows {
		csv = append(csv, []string{
			r.Dataset, r.Model, f2(r.RipplesBest), itoa(r.RipplesBestWorkers),
			f2(r.EfficientBest), itoa(r.EffBestWorkers), f2(r.Speedup),
			f2(float64(r.RipplesFootprint) / float64(1<<30)), f2(float64(r.EfficientFootprint) / float64(1<<30)),
			fmt.Sprintf("%v", r.RipplesOOM),
		})
	}
	return rows, cfg.writeCSV("table3_best_runtime.csv", csv)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------
// Distributed extension — communication volume versus rank count.
// ---------------------------------------------------------------------

// DistPoint is one point of the distributed rank sweep: how much
// communication the MPI-style extension costs at a given rank count,
// with the determinism check (seeds identical to the shared-memory run)
// folded into the measurement. The Bytes*/Messages figures are the
// modeled account; Measured* are actual bytes-on-the-wire from running
// the same rank count against real loopback TCP workers (zero at
// ranks=1, where no wire exists).
type DistPoint struct {
	Dataset       string
	Ranks         int
	BytesSent     int64
	Messages      int64
	SetGatherB    int64
	CounterRedB   int64
	ThetaExchB    int64
	SeedBcastB    int64
	MeasuredSent  int64
	MeasuredRecv  int64
	MeasuredMsgs  int64
	Failovers     int64
	Theta         int64
	SamplingMod   float64
	SeedsMatch    bool // distributed seeds == shared-memory seeds
	BytesPerTheta float64
}

// DistSweep runs the distributed engine across rank counts on every
// selected dataset, verifying bit-identical seeds against the
// shared-memory run and recording the communication volume — the
// comm-volume/scaling trajectory of the paper's future-work MPI
// extension. Rank counts above 1 run networked: the sweep boots
// ranks-1 in-process wire workers on loopback TCP, so the modeled
// column can be checked against measured bytes actually moved.
func DistSweep(cfg Config, rankCounts []int) ([]DistPoint, error) {
	if rankCounts == nil {
		rankCounts = []int{1, 2, 4, 8}
	}
	var points []DistPoint
	for _, p := range cfg.profiles() {
		g, err := p.Generate(graph.IC, cfg.Seed)
		if err != nil {
			return nil, err
		}
		opt := cfg.options(imm.Efficient, graph.IC, 2)
		shared, err := imm.Run(g, opt)
		if err != nil {
			return nil, fmt.Errorf("harness: %s shared baseline: %w", p.Name, err)
		}
		for _, ranks := range rankCounts {
			dopt := dist.Options{Options: opt, Ranks: ranks}
			res, err := distRunWired(g, dopt)
			if err != nil {
				return nil, fmt.Errorf("harness: %s ranks=%d: %w", p.Name, ranks, err)
			}
			match := len(res.Seeds) == len(shared.Seeds)
			for i := range shared.Seeds {
				if !match || res.Seeds[i] != shared.Seeds[i] {
					match = false
					break
				}
			}
			points = append(points, DistPoint{
				Dataset:       p.Name,
				Ranks:         ranks,
				BytesSent:     res.Comm.BytesSent,
				Messages:      res.Comm.Messages,
				SetGatherB:    res.Comm.SetGather.BytesSent,
				CounterRedB:   res.Comm.CounterReduce.BytesSent,
				ThetaExchB:    res.Comm.ThetaExchange.BytesSent,
				SeedBcastB:    res.Comm.SeedBroadcast.BytesSent,
				MeasuredSent:  res.Comm.MeasuredBytesSent,
				MeasuredRecv:  res.Comm.MeasuredBytesReceived,
				MeasuredMsgs:  res.Comm.MeasuredMessages,
				Failovers:     res.Comm.Failovers,
				Theta:         res.Theta,
				SamplingMod:   res.Breakdown.SamplingModeled,
				SeedsMatch:    match,
				BytesPerTheta: safeDiv(float64(res.Comm.BytesSent), float64(res.Theta)),
			})
		}
	}
	csv := [][]string{{"dataset", "ranks", "bytes_sent", "messages", "set_gather_bytes", "counter_reduce_bytes", "theta_exchange_bytes", "seed_bcast_bytes", "measured_bytes_sent", "measured_bytes_received", "measured_messages", "failovers", "theta", "sampling_modeled", "seeds_match", "bytes_per_theta"}}
	for _, pt := range points {
		csv = append(csv, []string{
			pt.Dataset, itoa(pt.Ranks), i64(pt.BytesSent), i64(pt.Messages),
			i64(pt.SetGatherB), i64(pt.CounterRedB), i64(pt.ThetaExchB), i64(pt.SeedBcastB),
			i64(pt.MeasuredSent), i64(pt.MeasuredRecv), i64(pt.MeasuredMsgs), i64(pt.Failovers),
			i64(pt.Theta), f2(pt.SamplingMod), fmt.Sprintf("%v", pt.SeedsMatch), f2(pt.BytesPerTheta),
		})
	}
	return points, cfg.writeCSV("dist_comm_sweep.csv", csv)
}

// distRunWired executes one distributed run; rank counts above 1 go
// over real loopback TCP (ranks-1 in-process workers, torn down after
// the run) so the result carries measured bytes-on-the-wire next to the
// modeled account. Seeds are byte-identical either way.
func distRunWired(g *graph.Graph, dopt dist.Options) (*dist.Result, error) {
	if dopt.Ranks <= 1 {
		return dist.Run(g, dopt)
	}
	copt := dist.DefaultClusterOptions()
	peers := []string{"harness-root.invalid:0"}
	workers := make([]*dist.RankServer, 0, dopt.Ranks-1)
	defer func() {
		for _, rs := range workers {
			rs.Close()
		}
	}()
	for i := 1; i < dopt.Ranks; i++ {
		rs, err := dist.ListenRank("127.0.0.1:0", copt)
		if err != nil {
			return nil, err
		}
		workers = append(workers, rs)
		peers = append(peers, rs.Addr())
		go rs.Serve()
	}
	cl, err := dist.Connect(dist.ClusterConfig{Rank: 0, Peers: peers}, copt)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return dist.RunCluster(g, dopt, cl)
}

// ---------------------------------------------------------------------
// Table IV — cache misses of Find_Most_Influential_Set.
// ---------------------------------------------------------------------

// Table4Row compares simulated L1+L2 misses between engines.
type Table4Row struct {
	Dataset         string
	RipplesMisses   int64
	EfficientMisses int64
	Reduction       float64

	PaperRipples   int64
	PaperEfficient int64
	PaperReduction float64
}

var table4Paper = map[string][3]float64{
	"com-Amazon":  {283963507, 10947324, 25.94},
	"web-Google":  {406351077, 18139797, 22.40},
	"soc-Pokec":   {48114540, 516602, 93.14},
	"com-YouTube": {135802513, 379979, 357.39},
	"com-LJ":      {69299959, 687345, 100.82},
}

// Table4 traces both selection kernels through the cache simulator on
// the paper's five datasets.
func Table4(cfg Config) ([]Table4Row, error) {
	var rows []Table4Row
	for _, p := range cfg.profiles() {
		paper, ok := table4Paper[p.Name]
		if !ok {
			continue
		}
		g, err := p.Generate(graph.IC, cfg.Seed)
		if err != nil {
			return nil, err
		}
		rip := imm.TraceSelection(g, imm.Ripples, cfg.K, cfg.TraceSets, cfg.TraceWorkers, cfg.Seed)
		eff := imm.TraceSelection(g, imm.Efficient, cfg.K, cfg.TraceSets, cfg.TraceWorkers, cfg.Seed)
		rm, em := rip.Stats.CombinedMisses(), eff.Stats.CombinedMisses()
		rows = append(rows, Table4Row{
			Dataset:         p.Name,
			RipplesMisses:   rm,
			EfficientMisses: em,
			Reduction:       safeDiv(float64(rm), float64(em)),
			PaperRipples:    int64(paper[0]),
			PaperEfficient:  int64(paper[1]),
			PaperReduction:  paper[2],
		})
	}
	csv := [][]string{{"dataset", "ripples_misses", "efficientimm_misses", "reduction_x", "paper_ripples", "paper_efficientimm", "paper_reduction_x"}}
	for _, r := range rows {
		csv = append(csv, []string{r.Dataset, i64(r.RipplesMisses), i64(r.EfficientMisses), f2(r.Reduction), i64(r.PaperRipples), i64(r.PaperEfficient), f2(r.PaperReduction)})
	}
	return rows, cfg.writeCSV("table4_cache_misses.csv", csv)
}

// ---------------------------------------------------------------------
// Ablations — each §IV design choice toggled independently.
// ---------------------------------------------------------------------

// AblationRow reports the modeled cost with one optimization disabled.
type AblationRow struct {
	Variant string
	Modeled float64
	Penalty float64 // Modeled / full-optimized Modeled
}

// Ablations measures the contribution of each optimization on the
// web-Google clone under IC at the top worker count.
func Ablations(cfg Config) ([]AblationRow, error) {
	prof, err := gen.ProfileByName("web-Google")
	if err != nil {
		return nil, err
	}
	if cfg.MaxScale > 0 && prof.Scale > cfg.MaxScale {
		prof.Scale = cfg.MaxScale
	}
	g, err := prof.Generate(graph.IC, cfg.Seed)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers[len(cfg.Workers)-1]
	full := cfg.options(imm.Efficient, graph.IC, workers)
	variants := []struct {
		name   string
		mutate func(*imm.Options)
	}{
		{"full", func(*imm.Options) {}},
		{"no-fusion", func(o *imm.Options) { o.Fusion = false }},
		{"no-adaptive-rep", func(o *imm.Options) { o.AdaptiveRep = false }},
		{"scan-selection", func(o *imm.Options) { o.Selection = imm.SelectScan }},
		{"scan-decrement", func(o *imm.Options) { o.Selection = imm.SelectScan; o.Update = counter.Decrement }},
		{"scan-rebuild", func(o *imm.Options) { o.Selection = imm.SelectScan; o.Update = counter.Rebuild }},
		{"static-schedule", func(o *imm.Options) { o.DynamicBalance = false }},
		{"ripples-baseline", func(o *imm.Options) { o.Engine = imm.Ripples }},
	}
	var rows []AblationRow
	var fullModeled float64
	for _, v := range variants {
		opt := full
		v.mutate(&opt)
		rec, err := runOne(g, prof.Name, opt)
		if err != nil {
			return nil, err
		}
		if v.name == "full" {
			fullModeled = rec.Modeled
		}
		rows = append(rows, AblationRow{Variant: v.name, Modeled: rec.Modeled, Penalty: safeDiv(rec.Modeled, fullModeled)})
	}
	csv := [][]string{{"variant", "modeled", "penalty_vs_full"}}
	for _, r := range rows {
		csv = append(csv, []string{r.Variant, f2(r.Modeled), f2(r.Penalty)})
	}
	return rows, cfg.writeCSV("ablations.csv", csv)
}
