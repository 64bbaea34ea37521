package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// quick returns a test config restricted to two small datasets.
func quick(t *testing.T, withOut bool) Config {
	t.Helper()
	cfg := QuickConfig()
	cfg.Datasets = []string{"com-Amazon", "web-Google"}
	if withOut {
		cfg.OutDir = t.TempDir()
	}
	return cfg
}

func TestTable1(t *testing.T) {
	cfg := quick(t, true)
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Nodes == 0 || r.Edges == 0 {
			t.Fatalf("%s: empty graph", r.Dataset)
		}
		if r.AvgCoverage < 0 || r.AvgCoverage > 1 || r.MaxCoverage < r.AvgCoverage {
			t.Fatalf("%s: bad coverage %v/%v", r.Dataset, r.AvgCoverage, r.MaxCoverage)
		}
		if r.PaperAvgCoverage == 0 {
			t.Fatalf("%s: paper reference missing", r.Dataset)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "table1_coverage.csv")); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

func TestScalingSweepAndExtract(t *testing.T) {
	cfg := quick(t, true)
	cfg.Datasets = []string{"web-Google"}
	points, err := ScalingSweep(cfg, graph.IC)
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset × 2 engines × 2 worker counts.
	if len(points) != 4 {
		t.Fatalf("%d points, want 4", len(points))
	}
	for _, pt := range points {
		if pt.Modeled <= 0 {
			t.Fatalf("point %+v has no modeled cost", pt)
		}
		if pt.Workers == cfg.Workers[0] && pt.Engine == "ripples" && pt.SpeedupVs1 != 1 {
			t.Fatalf("ripples baseline point not normalized to 1: %+v", pt)
		}
	}
	// JSON logs must round-trip through the extract step.
	rows, err := ExtractResults(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	ic := rows["ic"]
	if len(ic) != 1 {
		t.Fatalf("extract found %d ic rows, want 1", len(ic))
	}
	if ic[0].Speedup <= 0 {
		t.Fatalf("speedup = %v", ic[0].Speedup)
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "results", "speedup_ic.csv")); err != nil {
		t.Fatalf("speedup csv not written: %v", err)
	}
}

func TestEfficientWinsOnSweep(t *testing.T) {
	cfg := quick(t, false)
	cfg.Datasets = []string{"web-Google"}
	cfg.Workers = []int{1, 16}
	points, err := ScalingSweep(cfg, graph.LT)
	if err != nil {
		t.Fatal(err)
	}
	var ripBest, effBest float64
	for _, pt := range points {
		switch pt.Engine {
		case "ripples":
			if ripBest == 0 || pt.Modeled < ripBest {
				ripBest = pt.Modeled
			}
		default:
			if effBest == 0 || pt.Modeled < effBest {
				effBest = pt.Modeled
			}
		}
	}
	if effBest >= ripBest {
		t.Fatalf("efficient best %.0f not below ripples best %.0f", effBest, ripBest)
	}
}

func TestFig2Breakdown(t *testing.T) {
	cfg := quick(t, true)
	points, err := Fig2Breakdown(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(cfg.Workers) {
		t.Fatalf("%d points", len(points))
	}
	for _, pt := range points {
		sum := pt.SamplingPct + pt.SelectionPct
		if sum < 99.9 || sum > 100.1 {
			t.Fatalf("shares don't sum to 100: %+v", pt)
		}
	}
}

func TestTable2(t *testing.T) {
	cfg := quick(t, true)
	rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Table II rows")
	}
	for _, r := range rows {
		if r.AwarePct >= r.OriginalPct {
			t.Fatalf("%s: aware %.1f%% not below original %.1f%%", r.Dataset, r.AwarePct, r.OriginalPct)
		}
		if r.ImprovementPct <= 0 {
			t.Fatalf("%s: no improvement", r.Dataset)
		}
	}
}

func TestFig5(t *testing.T) {
	cfg := quick(t, true)
	rows, err := Fig5AdaptiveUpdate(cfg, []string{"com-Amazon"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].RelativeSpeedup < 1 {
		t.Fatalf("adaptive update slower than decrement: %+v", rows[0])
	}
}

func TestTable3(t *testing.T) {
	cfg := quick(t, true)
	cfg.Datasets = []string{"web-Google"}
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // IC and LT
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Fatalf("%s/%s: EfficientIMM speedup %.2f not above 1", r.Dataset, r.Model, r.Speedup)
		}
		if r.RipplesFootprint <= r.EfficientFootprint {
			t.Fatalf("%s: footprint model inverted", r.Dataset)
		}
	}
}

func TestTable3TwitterOOM(t *testing.T) {
	cfg := quick(t, false)
	cfg.Datasets = []string{"twitter7"}
	cfg.MaxScale = 8
	rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	foundOOM := false
	for _, r := range rows {
		if r.Model == "IC" && r.RipplesOOM {
			foundOOM = true
		}
	}
	if !foundOOM {
		t.Fatal("Twitter7 IC row does not flag Ripples OOM at paper scale")
	}
}

func TestTable4(t *testing.T) {
	cfg := quick(t, true)
	// The miss-ratio gap needs the pool to exceed the L2 capacity; at
	// MaxScale 8 everything is cache-resident and both kernels miss only
	// on cold lines. Use a slightly larger clone and trace pool.
	cfg.MaxScale = 10
	cfg.TraceSets = 400
	cfg.Datasets = []string{"web-Google"}
	rows, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Table IV rows")
	}
	for _, r := range rows {
		if r.Reduction <= 1 {
			t.Fatalf("%s: miss reduction %.2f not above 1", r.Dataset, r.Reduction)
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := quick(t, true)
	rows, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d ablation rows, want 8", len(rows))
	}
	if rows[0].Variant != "full" || rows[0].Penalty != 1 {
		t.Fatalf("first row must be the full configuration: %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.Variant == "ripples-baseline" && r.Penalty <= 1 {
			t.Fatalf("baseline not slower than full: %+v", r)
		}
	}
}

func TestConfigProfileFiltering(t *testing.T) {
	cfg := QuickConfig()
	cfg.Datasets = []string{"com-DBLP"}
	ps := cfg.profiles()
	if len(ps) != 1 || ps[0].Name != "com-DBLP" {
		t.Fatalf("filtering failed: %v", ps)
	}
	if ps[0].Scale > cfg.MaxScale {
		t.Fatal("scale clamp not applied")
	}
}

func TestDistSweep(t *testing.T) {
	cfg := quick(t, true)
	cfg.Datasets = []string{"web-Google"}
	points, err := DistSweep(cfg, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points, want 3", len(points))
	}
	var prev int64 = -1
	for _, pt := range points {
		if !pt.SeedsMatch {
			t.Fatalf("ranks=%d: distributed seeds diverged from shared run", pt.Ranks)
		}
		if pt.BytesSent <= prev {
			t.Fatalf("ranks=%d: bytes %d not above previous %d", pt.Ranks, pt.BytesSent, prev)
		}
		prev = pt.BytesSent
		// ranks>1 go over real loopback TCP: the measured column must be
		// populated; at ranks=1 there is no wire, so it must be zero.
		if pt.Ranks == 1 {
			if pt.MeasuredSent != 0 || pt.MeasuredMsgs != 0 {
				t.Fatalf("ranks=1: unexpected measured traffic (%d B, %d msgs)", pt.MeasuredSent, pt.MeasuredMsgs)
			}
		} else {
			if pt.MeasuredSent == 0 || pt.MeasuredRecv == 0 || pt.MeasuredMsgs == 0 {
				t.Fatalf("ranks=%d: measured wire traffic missing (%d/%d B, %d msgs)",
					pt.Ranks, pt.MeasuredSent, pt.MeasuredRecv, pt.MeasuredMsgs)
			}
		}
		if pt.Failovers != 0 {
			t.Fatalf("ranks=%d: unexpected failovers: %d", pt.Ranks, pt.Failovers)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "dist_comm_sweep.csv")); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

func TestMemorySweep(t *testing.T) {
	cfg := quick(t, true)
	rows, err := MemorySweep(cfg, []string{"web-Google"})
	if err != nil {
		t.Fatal(err)
	}
	// 1 dataset x 2 models x 2 variants.
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byKey := map[string]MemoryRow{}
	for _, r := range rows {
		if !r.SeedsMatch {
			t.Fatalf("%s/%s/%s: seeds diverged from the slice baseline", r.Dataset, r.Model, r.Variant)
		}
		if r.SetBytes <= 0 || r.RawBytes <= 0 {
			t.Fatalf("footprint missing: %+v", r)
		}
		byKey[r.Model+"/"+r.Variant] = r
	}
	for _, model := range []string{"IC", "LT"} {
		raw := byKey[model+"/slice-list"]
		adaptive := byKey[model+"/slice-adaptive"]
		if adaptive.SetBytes > raw.SetBytes {
			t.Fatalf("%s: adaptive %dB above the list-only pool's %dB", model, adaptive.SetBytes, raw.SetBytes)
		}
		if raw.SetBytes != raw.RawBytes {
			t.Fatalf("%s: slice-list pool must cost exactly 4B/member: %d vs %d", model, raw.SetBytes, raw.RawBytes)
		}
	}
	// Under IC the dense sets become bitmap rows, which beat lists.
	if r := byKey["IC/slice-adaptive"]; r.CompressionRatio <= 1 {
		t.Fatalf("IC adaptive ratio %.2f, want > 1", r.CompressionRatio)
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "memory_selection_sweep.csv")); err != nil {
		t.Fatalf("csv not written: %v", err)
	}
}

func TestCIBenchDeterministicAndComparable(t *testing.T) {
	a, err := CIBench()
	if err != nil {
		t.Fatal(err)
	}
	b, err := CIBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Metrics) != 4 { // 2 models x (ripples + efficient)
		t.Fatalf("%d metrics, want 4", len(a.Metrics))
	}
	if a.Ingest == nil || a.Ingest.Edges == 0 || a.Ingest.SnapshotBytes == 0 || a.Ingest.Seeds == "" {
		t.Fatalf("ingest leg missing or empty: %+v", a.Ingest)
	}
	if regs := CompareCI(a, b, 0); len(regs) != 0 {
		t.Fatalf("two identical runs diverge: %v", regs)
	}
	// The digest is a pure function of the source tree: no wall-clock
	// field, so two runs marshal to the same bytes.
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("two CIBench runs marshal differently:\n%s\n%s", aj, bj)
	}
	// Round-trip through the JSON the CI job ships.
	path := filepath.Join(t.TempDir(), "BENCH_ci.json")
	if err := WriteCIDigest(path, a); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCIDigest(path)
	if err != nil {
		t.Fatal(err)
	}
	if regs := CompareCI(loaded, b, 0); len(regs) != 0 {
		t.Fatalf("JSON round trip diverges: %v", regs)
	}
}

func TestCompareCIFlagsRegressions(t *testing.T) {
	base := CIDigest{Config: ciConfigTag, Metrics: []CIMetric{{
		Key: "k", Theta: 100, SamplingModeled: 1000, SelectionModeled: 500,
		PoolSetBytes: 4000, PoolIndexBytes: 0, CompressionRatio: 3, Seeds: "[1 2]",
	}}}
	cur := base
	cur.Metrics = append([]CIMetric(nil), base.Metrics...)
	if regs := CompareCI(base, cur, 0.1); len(regs) != 0 {
		t.Fatalf("identical digests flagged: %v", regs)
	}
	// Within tolerance: +5% sampling passes.
	cur.Metrics[0].SamplingModeled = 1050
	if regs := CompareCI(base, cur, 0.1); len(regs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", regs)
	}
	// Beyond tolerance: +20% sampling fails.
	cur.Metrics[0].SamplingModeled = 1200
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 {
		t.Fatalf("sampling regression not flagged: %v", regs)
	}
	// Seeds drift fails regardless of costs.
	cur.Metrics[0].SamplingModeled = 1000
	cur.Metrics[0].Seeds = "[1 3]"
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 {
		t.Fatalf("seed drift not flagged: %v", regs)
	}
	// Compression-ratio collapse fails.
	cur.Metrics[0].Seeds = "[1 2]"
	cur.Metrics[0].CompressionRatio = 1.5
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 {
		t.Fatalf("ratio regression not flagged: %v", regs)
	}
	// A metric or an ingest leg the baseline lacks would ship ungated.
	cur.Metrics[0].CompressionRatio = 3
	cur.Metrics = append(cur.Metrics, CIMetric{Key: "new", Theta: 1})
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 || !strings.Contains(regs[0], "new: not in baseline") {
		t.Fatalf("metric absent from baseline not flagged: %v", regs)
	}
	cur.Metrics = cur.Metrics[:1]
	cur.Ingest = &CIIngest{Nodes: 1}
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 || !strings.Contains(regs[0], "ingest: leg not in baseline") {
		t.Fatalf("ingest leg absent from baseline not flagged: %v", regs)
	}
	cur.Ingest = nil
	// Missing metric fails.
	cur.Metrics = nil
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 {
		t.Fatalf("missing metric not flagged: %v", regs)
	}
	// Config mismatch fails fast.
	cur = base
	cur.Config = "other"
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 {
		t.Fatalf("config mismatch not flagged: %v", regs)
	}
}

func TestCompareCIFlagsIngestRegressions(t *testing.T) {
	base := CIDigest{Config: ciConfigTag, Ingest: &CIIngest{
		Nodes: 100, Edges: 500, SnapshotBytes: 10000, Theta: 42, Seeds: "[1 2]",
	}}
	clone := func() CIDigest {
		d := base
		in := *base.Ingest
		d.Ingest = &in
		return d
	}
	if regs := CompareCI(base, clone(), 0.1); len(regs) != 0 {
		t.Fatalf("identical ingest legs flagged: %v", regs)
	}
	// Snapshot growth beyond tolerance fails.
	cur := clone()
	cur.Ingest.SnapshotBytes = 12000
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 {
		t.Fatalf("snapshot growth not flagged: %v", regs)
	}
	// Seed or θ drift through the ingested graph fails exactly.
	cur = clone()
	cur.Ingest.Seeds = "[1 3]"
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 {
		t.Fatalf("ingest seed drift not flagged: %v", regs)
	}
	cur = clone()
	cur.Ingest.Theta = 43
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 {
		t.Fatalf("ingest theta drift not flagged: %v", regs)
	}
	// Missing leg fails.
	cur = clone()
	cur.Ingest = nil
	if regs := CompareCI(base, cur, 0.1); len(regs) != 1 {
		t.Fatalf("missing ingest leg not flagged: %v", regs)
	}
}
