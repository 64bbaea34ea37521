// Command benchharness regenerates every table and figure from the
// paper's evaluation section, writing CSVs (plus the artifact-style JSON
// logs and speedup summaries) to the output directory and a human-
// readable digest to stdout.
//
// Usage:
//
//	benchharness -out results              # full suite at default sizes
//	benchharness -exp table4 -out results  # one experiment
//	benchharness -quick -out results       # smoke-test sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/profiling"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table1|fig1|fig2|table2|fig5|table3|fig6|fig7|table4|ablations|dist|mem|ingest|serve|tier|load|churn|ci|all")
		ingScale   = flag.Int("ingest-scale", 0, "ingest experiment: log2 vertices of the generated graph (0 = 17 for ~1M+ edges, or 13 with -quick)")
		srvScale   = flag.Int("serve-scale", 0, "serve experiment: log2 vertices of the generated graph (0 = 16, the CI dataset shape, or 12 with -quick)")
		tierScale  = flag.Int("tier-scale", 0, "tier experiment: log2 vertices of the generated graph (0 = 14, or 11 with -quick)")
		loadScale  = flag.Int("load-scale", 0, "load experiment: log2 vertices of the generated graph (0 = 13, or 10 with -quick)")
		churnScale = flag.Int("churn-scale", 0, "churn experiment: log2 vertices of the generated graph (0 = 14, or 11 with -quick)")
		out        = flag.String("out", "results", "output directory for CSVs and JSON logs")
		quick      = flag.Bool("quick", false, "small sizes for a fast smoke run")
		scale      = flag.Int("scale", 0, "clamp profile scale (0 = config default)")
		dataset    = flag.String("datasets", "", "comma-separated dataset filter")
		baseline   = flag.String("baseline", "", "BENCH_baseline.json to gate the ci experiment against (fail on >tolerance regressions)")
		tol        = flag.Float64("tolerance", 0.10, "allowed fractional drift for the ci gate")
	)
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchharness:", err)
		os.Exit(1)
	}
	defer stopProf()

	cfg := harness.DefaultConfig()
	if *quick {
		cfg = harness.QuickConfig()
		cfg.Workers = []int{1, 4, 16}
	}
	cfg.OutDir = *out
	if *scale > 0 {
		cfg.MaxScale = *scale
	}
	if *dataset != "" {
		cfg.Datasets = strings.Split(*dataset, ",")
	}

	ran := false
	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		fmt.Printf("== %s ==\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchharness: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("   done in %.1fs\n\n", time.Since(start).Seconds())
	}

	run("table1", func() error {
		rows, err := harness.Table1(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %9s %10s %8s %8s %10s %10s\n", "dataset", "nodes", "edges", "avgCov", "maxCov", "paperAvg", "paperMax")
		for _, r := range rows {
			fmt.Printf("%-12s %9d %10d %7.1f%% %7.1f%% %9.1f%% %9.1f%%\n",
				r.Dataset, r.Nodes, r.Edges, 100*r.AvgCoverage, 100*r.MaxCoverage,
				100*r.PaperAvgCoverage, 100*r.PaperMaxCoverage)
		}
		return nil
	})

	run("fig1", func() error {
		// Figure 1 is the Ripples-only scaling view; the sweep emits both
		// engines, and the fig CSVs retain everything.
		for _, model := range []graph.Model{graph.LT, graph.IC} {
			cfgG := cfg
			cfgG.Datasets = pick(cfg.Datasets, "web-Google")
			points, err := harness.ScalingSweep(cfgG, model)
			if err != nil {
				return err
			}
			fmt.Printf("Ripples strong scaling, %v (speedup vs 1 worker):\n", model)
			for _, pt := range points {
				if pt.Engine != "ripples" {
					continue
				}
				fmt.Printf("  w=%-4d speedup=%.2f\n", pt.Workers, pt.SpeedupVs1)
			}
		}
		return nil
	})

	run("fig2", func() error {
		points, err := harness.Fig2Breakdown(cfg)
		if err != nil {
			return err
		}
		for _, pt := range points {
			fmt.Printf("%-3s w=%-4d Generate_RRRsets=%5.1f%%  Find_Most_Influential=%5.1f%%\n",
				pt.Model, pt.Workers, pt.SamplingPct, pt.SelectionPct)
		}
		return nil
	})

	run("table2", func() error {
		rows, err := harness.Table2(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %10s %10s %8s | paper: %6s %6s %5s\n", "dataset", "original", "aware", "improve", "orig", "aware", "impr")
		for _, r := range rows {
			fmt.Printf("%-12s %9.1f%% %9.1f%% %7.1f%% | %9.1f%% %5.1f%% %4.0f%%\n",
				r.Dataset, r.OriginalPct, r.AwarePct, r.ImprovementPct,
				r.PaperOriginalPct, r.PaperAwarePct, r.PaperImprovementPct)
		}
		return nil
	})

	run("fig5", func() error {
		rows, err := harness.Fig5AdaptiveUpdate(cfg, nil)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%-12s decrement=%12.0f adaptive=%12.0f speedup=%.1fx\n",
				r.Dataset, r.DecrementOnly, r.Adaptive, r.RelativeSpeedup)
		}
		return nil
	})

	run("table3", func() error {
		rows, err := harness.Table3(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-3s %14s %14s %8s %6s\n", "dataset", "mod", "ripplesBest", "efficientBest", "speedup", "OOM")
		for _, r := range rows {
			oom := ""
			if r.RipplesOOM {
				oom = "OOM"
			}
			fmt.Printf("%-12s %-3s %14.0f %14.0f %7.2fx %6s\n",
				r.Dataset, r.Model, r.RipplesBest, r.EfficientBest, r.Speedup, oom)
		}
		return nil
	})

	run("fig6", func() error { return sweepDigest(cfg, graph.LT) })
	run("fig7", func() error { return sweepDigest(cfg, graph.IC) })

	run("table4", func() error {
		rows, err := harness.Table4(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %14s %14s %10s | paper: %9s\n", "dataset", "ripples", "efficientimm", "reduction", "reduction")
		for _, r := range rows {
			fmt.Printf("%-12s %14d %14d %9.1fx | %12.1fx\n",
				r.Dataset, r.RipplesMisses, r.EfficientMisses, r.Reduction, r.PaperReduction)
		}
		return nil
	})

	run("ablations", func() error {
		rows, err := harness.Ablations(cfg)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Printf("%-18s modeled=%14.0f penalty=%.2fx\n", r.Variant, r.Modeled, r.Penalty)
		}
		return nil
	})

	run("mem", func() error {
		rows, err := harness.MemorySweep(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %-3s %-15s %10s %10s %10s %7s %12s %12s %6s\n",
			"dataset", "mod", "variant", "setBytes", "idxBytes", "rawBytes", "ratio", "selCELF", "selScan", "match")
		for _, r := range rows {
			fmt.Printf("%-12s %-3s %-15s %10d %10d %10d %6.2fx %12.0f %12.0f %6v\n",
				r.Dataset, r.Model, r.Variant, r.SetBytes, r.IndexBytes, r.RawBytes,
				r.CompressionRatio, r.SelectionCELF, r.SelectionScan, r.SeedsMatch)
		}
		return nil
	})

	run("ingest", func() error {
		scale := *ingScale
		if scale == 0 && *quick {
			scale = 13
		}
		rows, err := harness.IngestSweep(cfg, scale, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%7s %9s %10s %10s %10s %12s %9s %6s\n",
			"workers", "nodes", "edges", "wall_ms", "MB/s", "edges/s", "speedup", "ident")
		for _, r := range rows {
			fmt.Printf("%7d %9d %10d %10.1f %10.1f %12.0f %8.2fx %6v\n",
				r.Workers, r.Nodes, r.Edges, r.WallMS, r.MBPerSec, r.EdgesPerSec, r.SpeedupVs1, r.Identical)
		}
		if len(rows) > 0 {
			fmt.Printf("snapshot: %d bytes, reload %.1fms, identical=%v\n",
				rows[0].SnapshotBytes, rows[0].SnapshotLoadMS, rows[0].SnapshotIdentical)
		}
		return nil
	})

	run("serve", func() error {
		scale := *srvScale
		if scale == 0 && *quick {
			scale = 12
		}
		rows, err := harness.ServeSweep(cfg, scale)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %4s %5s %10s %8s %10s %10s %12s %9s %6s\n",
			"phase", "k", "eps", "wall_ms", "theta", "reused", "generated", "reusedB", "speedup", "match")
		for _, r := range rows {
			fmt.Printf("%-14s %4d %5.2f %10.1f %8d %10d %10d %12d %8.2fx %6v\n",
				r.Phase, r.K, r.Epsilon, r.WallMS, r.Theta, r.ReusedSets, r.GeneratedSets,
				r.ReusedBytes, r.SpeedupVsCold, r.SeedsMatch)
		}
		return nil
	})

	run("tier", func() error {
		scale := *tierScale
		if scale == 0 && *quick {
			scale = 11
		}
		rows, err := harness.TierSweep(cfg, scale)
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %13s %8s %6s %10s %8s %6s %10s %6s\n",
			"phase", "budget_bytes", "tenants", "held", "wall_ms", "theta", "warm", "generated", "match")
		for _, r := range rows {
			fmt.Printf("%-20s %13d %8d %6d %10.1f %8d %6v %10d %6v\n",
				r.Phase, r.BudgetBytes, r.Tenants, r.TenantsHeld, r.WallMS,
				r.Theta, r.Warm, r.GeneratedSets, r.SeedsMatch)
		}
		return nil
	})

	run("load", func() error {
		scale := *loadScale
		if scale == 0 && *quick {
			scale = 10
		}
		rows, err := harness.LoadSweep(cfg, scale)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %7s %5s %10s %8s %8s %9s %8s %8s %11s %10s %6s\n",
			"config", "queries", "pools", "wall_ms", "qps", "batches", "maxBatch", "shExt", "shSets", "generated", "coalesced", "match")
		for _, r := range rows {
			fmt.Printf("%-8s %7d %5d %10.1f %8.1f %8d %9d %8d %8d %11d %10d %6v\n",
				r.Config, r.Queries, r.Pools, r.WallMS, r.QPS, r.Batches, r.MaxBatchSize,
				r.SharedExtensions, r.SharedSets, r.GeneratedSets, r.Coalesced, r.SeedsMatch)
		}
		return nil
	})

	run("churn", func() error {
		scale := *churnScale
		if scale == 0 && *quick {
			scale = 11
		}
		rows, err := harness.ChurnSweep(cfg, scale)
		if err != nil {
			return err
		}
		fmt.Printf("%-11s %7s %7s %7s %10s %10s %10s %8s %7s %6s\n",
			"update_rate", "adds", "removes", "dirty", "resampled", "repair_ms", "cold_ms", "speedup", "wins", "match")
		for _, r := range rows {
			fmt.Printf("%-11g %7d %7d %7d %10d %10.1f %10.1f %7.2fx %7v %6v\n",
				r.UpdateRate, r.AddEdges, r.RemEdges, r.DirtyVertices, r.SetsResampled,
				r.RepairMS+r.RepairQueryMS, r.ColdMS, r.Speedup, r.RepairWins, r.SeedsMatch)
		}
		return nil
	})

	run("ci", func() error {
		digest, err := harness.CIBench()
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.OutDir, "BENCH_ci.json")
		if err := harness.WriteCIDigest(path, digest); err != nil {
			return err
		}
		for _, m := range digest.Metrics {
			fmt.Printf("%-45s theta=%-6d sampling=%12.0f selection=%12.0f poolB=%8d idxB=%8d ratio=%5.2f\n",
				m.Key, m.Theta, m.SamplingModeled, m.SelectionModeled, m.PoolSetBytes, m.PoolIndexBytes, m.CompressionRatio)
		}
		if in := digest.Ingest; in != nil {
			fmt.Printf("%-45s theta=%-6d nodes=%d edges=%d snapshotB=%d (%.1f MB/s, not gated)\n",
				"ingest (text->pipeline->snapshot->run)", in.Theta, in.Nodes, in.Edges, in.SnapshotBytes, in.MBPerSec)
		}
		fmt.Printf("digest written to %s\n", path)
		if *baseline == "" {
			return nil
		}
		base, err := harness.LoadCIDigest(*baseline)
		if err != nil {
			return fmt.Errorf("load baseline: %w", err)
		}
		if regressions := harness.CompareCI(base, digest, *tol); len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", r)
			}
			return fmt.Errorf("%d regression(s) vs %s at %.0f%% tolerance", len(regressions), *baseline, 100**tol)
		}
		fmt.Printf("no regressions vs %s at %.0f%% tolerance\n", *baseline, 100**tol)
		return nil
	})

	run("dist", func() error {
		points, err := harness.DistSweep(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %6s %12s %8s %12s %12s %6s\n", "dataset", "ranks", "bytesSent", "msgs", "gatherB", "counterB", "match")
		for _, pt := range points {
			fmt.Printf("%-12s %6d %12d %8d %12d %12d %6v\n",
				pt.Dataset, pt.Ranks, pt.BytesSent, pt.Messages, pt.SetGatherB, pt.CounterRedB, pt.SeedsMatch)
		}
		return nil
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "benchharness: unknown experiment %q (see -exp)\n", *exp)
		os.Exit(2)
	}
	if *exp == "all" {
		if _, err := harness.ExtractResults(cfg.OutDir); err != nil {
			fmt.Fprintf(os.Stderr, "benchharness: extract: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("speedup summaries written under %s/results\n", cfg.OutDir)
	}
}

// sweepDigest prints the normalized scaling table for one model.
func sweepDigest(cfg harness.Config, model graph.Model) error {
	points, err := harness.ScalingSweep(cfg, model)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-13s %5s %10s %10s\n", "dataset", "engine", "w", "vsRip@1", "vsRip@8")
	for _, pt := range points {
		fmt.Printf("%-12s %-13s %5d %9.2fx %9.2fx\n", pt.Dataset, pt.Engine, pt.Workers, pt.SpeedupVs1, pt.SpeedupVs8)
	}
	return nil
}

// pick returns base if it already filters, else just the named dataset.
func pick(base []string, name string) []string {
	if base != nil {
		return base
	}
	return []string{name}
}
