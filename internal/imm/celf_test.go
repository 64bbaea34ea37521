package imm

import (
	"fmt"
	"testing"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/sched"
)

// generatePool builds a pool of nsets through the Efficient engine's
// generation path under opt and returns the engine (its pool fully
// generated, selection untouched).
func generatePool(t testing.TB, g *graph.Graph, opt Options, nsets int64) *WarmEngine {
	t.Helper()
	e, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	e.Generate(nsets)
	if e.SetCount() != nsets {
		t.Fatalf("generated %d sets, want %d", e.SetCount(), nsets)
	}
	return e
}

// TestCELFMatchesScanAcrossWorkers is the selection-equivalence pin: the
// lazy-greedy kernel must return byte-identical seeds to the eager scan
// at every worker count, with and without a fused base counter.
func TestCELFMatchesScanAcrossWorkers(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g := testGraph(t, 9, model)
		for _, fusion := range []bool{true, false} {
			opt := testOpts(Efficient, 2)
			opt.Fusion = fusion
			opt.Selection = SelectScan
			ref, err := Run(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4, 8} {
				o := opt
				o.Workers = w
				o.Selection = SelectCELF
				res, err := Run(g, o)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(res.Seeds) != fmt.Sprint(ref.Seeds) {
					t.Fatalf("%v fusion=%v workers=%d: CELF %v != scan %v",
						model, fusion, w, res.Seeds, ref.Seeds)
				}
				if res.Coverage != ref.Coverage {
					t.Fatalf("%v fusion=%v workers=%d: coverage %v != %v", model, fusion, w, res.Coverage, ref.Coverage)
				}
			}
		}
	}
}

// TestCELFAccountingGolden pins the kernel's accounting contract: how
// the posting walks are executed (inline, on the caller) must not show in
// the modeled cost, which bills each shard's work to the worker the
// static shard partition assigns it. Seeds, coverage and modeledOps are
// the values the shard-parallel walk of the previous kernel produced on
// this pool, at every worker count and view horizon; seeds and coverage
// are checked against the eager scan on the same prefix as well.
func TestCELFAccountingGolden(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	const theta, k = 900, 8
	limits := []int64{1, theta / 3, theta - 1, theta}
	golden := []struct {
		seeds    string
		coverage float64
	}{
		{"[0 1 2 3 4 5 6 7]", 1},
		{"[56 94 173 250 59 61 87 119]", 0.6666666666666666},
		{"[56 61 94 214 233 116 119 250]", 0.6140155728587319},
		{"[56 61 94 214 233 116 119 250]", 0.6133333333333333},
	}
	// ops[workers] lists modeledOps per limit in order — the first call
	// also pays the index extension of the fresh pool — then the
	// full-view selection seeded from the fused base counter.
	ops := map[int][5]float64{
		1:  {6287, 31828, 77326, 77326, 77103},
		2:  {4775, 18009, 41957, 41957, 41846},
		3:  {4231, 14081, 30135, 30135, 30060},
		4:  {4019, 11659, 24313, 24313, 24258},
		8:  {3641, 7840, 14337, 14337, 14310},
		32: {3444, 5918, 9198, 9198, 9192},
	}
	for _, w := range []int{1, 2, 3, 4, 8, 32} {
		e := generatePool(t, g, testOpts(Efficient, w), theta)
		if !e.baseFresh {
			t.Fatal("fused base counter not maintained")
		}
		sets := e.p.flatten()
		for i, lim := range limits {
			seeds, cov, got := e.p.selectCELF(nil, w, k, lim)
			if fmt.Sprint(seeds) != golden[i].seeds || cov != golden[i].coverage {
				t.Fatalf("workers=%d limit=%d: seeds %v coverage %v, want %s %v", w, lim, seeds, cov, golden[i].seeds, golden[i].coverage)
			}
			if got != ops[w][i] {
				t.Errorf("workers=%d limit=%d: modeledOps %v, want %v", w, lim, got, ops[w][i])
			}
			scanSeeds, scanCov, _ := SelectOnSetsScan(g.N, sets[:lim], e.p.membersUpTo(lim), nil, w, counter.AdaptiveUpdate, k)
			if fmt.Sprint(seeds) != fmt.Sprint(scanSeeds) || cov != scanCov {
				t.Fatalf("workers=%d limit=%d: CELF %v/%v != scan %v/%v", w, lim, seeds, cov, scanSeeds, scanCov)
			}
		}
		seeds, cov, got := e.p.selectCELF(e.base, w, k, theta)
		if fmt.Sprint(seeds) != golden[3].seeds || cov != golden[3].coverage {
			t.Fatalf("workers=%d fused: seeds %v coverage %v", w, seeds, cov)
		}
		if got != ops[w][4] {
			t.Errorf("workers=%d fused: modeledOps %v, want %v", w, got, ops[w][4])
		}
	}
}

// TestSelectViewMatchesColdPool pins the truncated view against the pool
// it stands for: over one physical pool, every limit in a sweep selects
// what a pool of exactly limit sets selects — seeds, coverage and modeled
// cost — at every worker count. The pools stay under 64 sets a shard,
// where the coverage reset, billed by the physical pool, costs a view
// what it costs the cold pool.
func TestSelectViewMatchesColdPool(t *testing.T) {
	g := testGraph(t, 8, graph.LT)
	const theta, k = 1000, 8
	for _, w := range []int{1, 2, 3, 8} {
		warm := generatePool(t, g, testOpts(Efficient, w), theta).p
		for _, limit := range []int64{1, 2, 15, 16, 17, 100, 333, 512, 999, 1000} {
			cold := generatePool(t, g, testOpts(Efficient, w), limit).p
			seeds, cov, ops := warm.selectCELF(nil, w, k, limit)
			wantSeeds, wantCov, wantOps := cold.selectCELF(nil, w, k, cold.count)
			if fmt.Sprint(seeds) != fmt.Sprint(wantSeeds) || cov != wantCov || ops != wantOps {
				t.Errorf("workers=%d limit=%d: view selects %v/%v at %v ops, a pool of %d sets %v/%v at %v",
					w, limit, seeds, cov, ops, limit, wantSeeds, wantCov, wantOps)
			}
		}
	}
}

// TestPrefixBelow checks the horizon search against a linear count on
// every horizon around a segment with gaps and at its ends.
func TestPrefixBelow(t *testing.T) {
	for _, post := range [][]int32{nil, {4}, {0, 1, 2}, {3, 7, 8, 20, 21, 40}} {
		for lim := int32(0); lim <= 42; lim++ {
			want := 0
			for _, j := range post {
				if j < lim {
					want++
				}
			}
			if got := prefixBelow(post, lim); got != want {
				t.Fatalf("prefixBelow(%v, %d) = %d, want %d", post, lim, got, want)
			}
		}
	}
}

// TestShardOwnersMatchStatic pins the attribution table against the
// partition sched.Static actually hands out.
func TestShardOwnersMatchStatic(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 5, 8, 16, 32} {
		var want [poolShards]int
		sched.Static(w, poolShards, func(wk, s0, s1 int) {
			for s := s0; s < s1; s++ {
				want[s] = wk
			}
		})
		if got := shardOwners(w); got != want {
			t.Errorf("workers=%d: owners %v, Static gives %v", w, got, want)
		}
	}
}

// TestScanModeSkipsIndex pins the memory trade-off: scan-mode selection
// never builds the inverted index, CELF does.
func TestScanModeSkipsIndex(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	scan := testOpts(Efficient, 2)
	scan.Selection = SelectScan
	res, err := Run(g, scan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pool.IndexBytes != 0 {
		t.Fatalf("scan mode built an index: %+v", res.Pool)
	}
	celf := testOpts(Efficient, 2)
	resC, err := Run(g, celf)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Pool.IndexBytes <= 0 {
		t.Fatalf("CELF mode reported no index: %+v", resC.Pool)
	}
	if resC.Pool.IndexBytes != resC.Pool.RawBytes {
		t.Fatalf("index bytes %d != 4 bytes/member %d", resC.Pool.IndexBytes, resC.Pool.RawBytes)
	}
}

// TestParseSelection covers the selection-kernel parser.
func TestParseSelection(t *testing.T) {
	if s, err := ParseSelection("celf"); err != nil || s != SelectCELF {
		t.Fatal("ParseSelection(celf)")
	}
	if s, err := ParseSelection("scan"); err != nil || s != SelectScan {
		t.Fatal("ParseSelection(scan)")
	}
	if _, err := ParseSelection("x"); err == nil {
		t.Fatal("bad selection accepted")
	}
	if SelectCELF.String() != "celf" || SelectScan.String() != "scan" {
		t.Fatal("SelectionKind.String")
	}
}

// TestCELFSelectionScalesWithWorkers mirrors the Figure 6/7 claim for
// the lazy kernel: modeled selection cost must keep dropping with the
// worker count up to the shard grain.
func TestCELFSelectionScalesWithWorkers(t *testing.T) {
	g := testGraph(t, 10, graph.LT)
	sel := func(w int) float64 {
		opt := testOpts(Efficient, w)
		res, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Breakdown.SelectionModeled
	}
	s1, s8 := sel(1), sel(8)
	if speedup := s1 / s8; speedup < 3 {
		t.Fatalf("CELF selection speedup at 8 workers = %.2f, want >= 3", speedup)
	}
}
