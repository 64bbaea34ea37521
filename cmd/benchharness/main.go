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

func main() { os.Exit(realMain(os.Args[1:])) }

// realMain returns the exit code instead of calling os.Exit so the
// deferred profile stop runs on every path: a failing gated run is
// exactly the one whose -cpuprofile/-trace is wanted.
func realMain(args []string) int {
	fs := flag.NewFlagSet("benchharness", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: table1|fig1|fig2|table2|fig5|table3|fig6|fig7|table4|ablations|dist|mem|ci|all")
		out      = fs.String("out", "results", "output directory for CSVs and JSON logs")
		quick    = fs.Bool("quick", false, "small sizes for a fast smoke run")
		scale    = fs.Int("scale", 0, "clamp profile scale (0 = config default)")
		dataset  = fs.String("datasets", "", "comma-separated dataset filter")
		baseline = fs.String("baseline", "", "BENCH_baseline.json to gate the ci experiment against (fail on >tolerance regressions)")
		tol      = fs.Float64("tolerance", 0.10, "allowed fractional drift for the ci gate")
	)
	prof := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchharness:", err)
		return 1
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

	ran, failed := false, false
	run := func(name string, fn func() error) {
		if failed || (*exp != "all" && *exp != name) {
			return
		}
		ran = true
		fmt.Printf("== %s ==\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchharness: %s: %v\n", name, err)
			failed = true
			return
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
			fmt.Printf("%-45s theta=%-6d nodes=%d edges=%d snapshotB=%d\n",
				"ingest (text->pipeline->snapshot->run)", in.Theta, in.Nodes, in.Edges, in.SnapshotBytes)
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

	if failed {
		return 1
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchharness: unknown experiment %q (see -exp)\n", *exp)
		return 2
	}
	if *exp == "all" {
		if _, err := harness.ExtractResults(cfg.OutDir); err != nil {
			fmt.Fprintf(os.Stderr, "benchharness: extract: %v\n", err)
			return 1
		}
		fmt.Printf("speedup summaries written under %s/results\n", cfg.OutDir)
	}
	return 0
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
