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

// smallCELFGraph is an IC graph on n vertices: a ring with one chord out
// of every vertex, so that a pool over it mixes one-vertex sets with sets
// spanning most of the graph.
func smallCELFGraph(t testing.TB, n int32) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := int32(0); n > 1 && v < n; v++ {
		b.AddEdge(v, (v+1)%n)
		if c := (3*v + 2) % n; c != v {
			b.AddEdge(v, c)
		}
	}
	g, err := b.Build(graph.IC, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// celfSmallWorkers are the worker counts TestCELFAccountingSmallGraphs
// bills: one, an uneven split of the regions, and more workers than
// there are regions.
var celfSmallWorkers = [4]int{1, 2, 3, 32}

// celfSmallCases are the selections TestCELFAccountingSmallGraphs runs
// over a pool of celfSmallTheta sets, in order: views of 1, half and all
// of the pool without a base counter, then the whole pool seeded from
// the fused base, each at k = 1, 3 and 50 (more seeds than most of the
// graphs have vertices).
const celfSmallTheta = 40

type celfSmallCase struct {
	limit int64
	k     int
	base  bool
}

func celfSmallCases() []celfSmallCase {
	var cs []celfSmallCase
	for _, lim := range []int64{1, celfSmallTheta / 2, celfSmallTheta} {
		for _, k := range []int{1, 3, 50} {
			cs = append(cs, celfSmallCase{lim, k, false})
		}
	}
	for _, k := range []int{1, 3, 50} {
		cs = append(cs, celfSmallCase{celfSmallTheta, k, true})
	}
	return cs
}

// celfSmallWant is one selection's result: seeds and coverage, which no
// worker count may change, and the modeled ops at each of
// celfSmallWorkers.
type celfSmallWant struct {
	seeds    string
	coverage float64
	ops      [4]float64
}

// runCELFSmall runs celfSmallCases over a fresh pool on g at every worker
// count and returns what each selected and billed.
func runCELFSmall(t *testing.T, g *graph.Graph) []celfSmallWant {
	t.Helper()
	cases := celfSmallCases()
	got := make([]celfSmallWant, len(cases))
	for wi, w := range celfSmallWorkers {
		e := generatePool(t, g, testOpts(Efficient, w), celfSmallTheta)
		for i, c := range cases {
			var base *counter.Counter
			if c.base {
				base = e.base
			}
			seeds, cov, ops := e.p.selectCELF(base, w, c.k, c.limit)
			if wi == 0 {
				got[i].seeds, got[i].coverage = fmt.Sprint(seeds), cov
			} else if fmt.Sprint(seeds) != got[i].seeds || cov != got[i].coverage {
				t.Fatalf("n=%d workers=%d %+v: seeds %v coverage %v, one worker %s %v", g.N, w, c, seeds, cov, got[i].seeds, got[i].coverage)
			}
			got[i].ops[wi] = ops
		}
	}
	return got
}

// TestCELFAccountingSmallGraphs pins the CELF bill where the heap regions
// are uneven or fewer than sixteen (n < 16): graphs of 1 to 100 vertices,
// views of one set to the whole pool, k past n, the fused-base path, and
// worker counts from one to more than there are regions. The values were
// recorded from the kernel that kept one heap per region.
func TestCELFAccountingSmallGraphs(t *testing.T) {
	for _, n := range []int32{1, 2, 5, 15, 16, 17, 33, 100} {
		want, ok := celfSmallGolden[n]
		if !ok {
			t.Fatalf("n=%d: no golden", n)
		}
		got := runCELFSmall(t, smallCELFGraph(t, n))
		for i, c := range celfSmallCases() {
			if got[i] != want[i] {
				t.Errorf("n=%d %+v: got %+v, want %+v", n, c, got[i], want[i])
			}
		}
	}
}

// celfSmallGolden is TestCELFAccountingSmallGraphs' record, by vertex
// count, in celfSmallCases order.
var celfSmallGolden = map[int32][12]celfSmallWant{
	1: {
		{"[0]", 1, [4]float64{36, 20, 14, 6}},
		{"[0]", 1, [4]float64{36, 20, 14, 6}},
		{"[0]", 1, [4]float64{36, 20, 14, 6}},
		{"[0]", 1, [4]float64{55, 31, 22, 7}},
		{"[0]", 1, [4]float64{55, 31, 22, 7}},
		{"[0]", 1, [4]float64{55, 31, 22, 7}},
		{"[0]", 1, [4]float64{75, 43, 28, 8}},
		{"[0]", 1, [4]float64{75, 43, 28, 8}},
		{"[0]", 1, [4]float64{75, 43, 28, 8}},
		{"[0]", 1, [4]float64{75, 43, 28, 8}},
		{"[0]", 1, [4]float64{75, 43, 28, 8}},
		{"[0]", 1, [4]float64{75, 43, 28, 8}},
	},
	2: {
		{"[0]", 1, [4]float64{39, 21, 15, 7}},
		{"[0 1]", 1, [4]float64{76, 42, 31, 14}},
		{"[0 1]", 1, [4]float64{76, 42, 31, 14}},
		{"[0]", 0.8, [4]float64{54, 30, 21, 8}},
		{"[0 1]", 1, [4]float64{121, 69, 48, 17}},
		{"[0 1]", 1, [4]float64{121, 69, 48, 17}},
		{"[0]", 0.8, [4]float64{70, 40, 26, 9}},
		{"[0 1]", 1, [4]float64{161, 95, 61, 20}},
		{"[0 1]", 1, [4]float64{161, 95, 61, 20}},
		{"[0]", 0.8, [4]float64{69, 40, 26, 9}},
		{"[0 1]", 1, [4]float64{160, 95, 61, 20}},
		{"[0 1]", 1, [4]float64{160, 95, 61, 20}},
	},
	5: {
		{"[0]", 1, [4]float64{48, 27, 21, 10}},
		{"[0 1 2]", 1, [4]float64{134, 81, 67, 36}},
		{"[0 1 2 3 4]", 1, [4]float64{220, 135, 113, 62}},
		{"[3]", 0.85, [4]float64{64, 35, 26, 11}},
		{"[3 0 1]", 1, [4]float64{300, 173, 144, 69}},
		{"[3 0 1 2 4]", 1, [4]float64{432, 253, 208, 101}},
		{"[3]", 0.825, [4]float64{80, 46, 31, 12}},
		{"[3 0 1]", 1, [4]float64{399, 240, 169, 77}},
		{"[3 0 1 2 4]", 1, [4]float64{615, 381, 263, 122}},
		{"[3]", 0.825, [4]float64{76, 45, 30, 12}},
		{"[3 0 1]", 1, [4]float64{395, 239, 168, 77}},
		{"[3 0 1 2 4]", 1, [4]float64{611, 380, 263, 122}},
	},
	15: {
		{"[0]", 1, [4]float64{78, 47, 37, 20}},
		{"[0 1 2]", 1, [4]float64{406, 294, 255, 198}},
		{"[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14]", 1, [4]float64{1172, 868, 771, 604}},
		{"[3]", 0.65, [4]float64{90, 54, 43, 21}},
		{"[3 6 1]", 0.8, [4]float64{842, 596, 506, 362}},
		{"[3 6 1 4 8 10 13 0 2 5 7 9 11 12 14]", 1, [4]float64{1930, 1381, 1174, 852}},
		{"[3]", 0.675, [4]float64{104, 60, 48, 22}},
		{"[3 6 1]", 0.825, [4]float64{1071, 761, 598, 407}},
		{"[3 6 1 10 13 0 4 8 2 5 7 9 11 12 14]", 1, [4]float64{2501, 1792, 1405, 990}},
		{"[3]", 0.675, [4]float64{91, 54, 44, 22}},
		{"[3 6 1]", 0.825, [4]float64{1058, 755, 594, 407}},
		{"[3 6 1 10 13 0 4 8 2 5 7 9 11 12 14]", 1, [4]float64{2488, 1786, 1401, 990}},
	},
	16: {
		{"[3]", 1, [4]float64{81, 49, 40, 21}},
		{"[3 0 1]", 1, [4]float64{245, 173, 153, 110}},
		{"[3 0 1 2 4 5 6 7 8 9 10 11 12 13 14 15]", 1, [4]float64{1092, 812, 738, 567}},
		{"[2]", 0.7, [4]float64{94, 55, 45, 22}},
		{"[2 14 1]", 0.9, [4]float64{978, 679, 600, 429}},
		{"[2 14 1 3 8 0 4 5 6 7 9 10 11 12 13 15]", 1, [4]float64{2198, 1541, 1375, 998}},
		{"[1]", 0.6, [4]float64{104, 63, 46, 23}},
		{"[1 14 3]", 0.875, [4]float64{1211, 868, 672, 468}},
		{"[1 14 3 9 10 11 0 2 4 5 6 7 8 12 13 15]", 1, [4]float64{2930, 2116, 1646, 1166}},
		{"[1]", 0.6, [4]float64{91, 57, 42, 23}},
		{"[1 14 3]", 0.875, [4]float64{1198, 862, 668, 468}},
		{"[1 14 3 9 10 11 0 2 4 5 6 7 8 12 13 15]", 1, [4]float64{2917, 2110, 1642, 1166}},
	},
	17: {
		{"[1]", 1, [4]float64{83, 50, 41, 21}},
		{"[1 0 2]", 1, [4]float64{417, 303, 269, 205}},
		{"[1 0 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16]", 1, [4]float64{1340, 1002, 900, 708}},
		{"[9]", 0.7, [4]float64{96, 58, 44, 22}},
		{"[9 1 11]", 1, [4]float64{1106, 785, 697, 493}},
		{"[9 1 11 0 2 3 4 5 6 7 8 10 12 13 14 15 16]", 1, [4]float64{2209, 1584, 1408, 1010}},
		{"[9]", 0.55, [4]float64{104, 63, 46, 23}},
		{"[9 1 11]", 0.875, [4]float64{1167, 812, 668, 457}},
		{"[9 1 11 4 16 14 0 2 3 5 6 7 8 10 12 13 15]", 1, [4]float64{2827, 2004, 1646, 1151}},
		{"[9]", 0.55, [4]float64{90, 57, 42, 23}},
		{"[9 1 11]", 0.875, [4]float64{1153, 806, 663, 457}},
		{"[9 1 11 4 16 14 0 2 3 5 6 7 8 10 12 13 15]", 1, [4]float64{2813, 1998, 1641, 1151}},
	},
	33: {
		{"[6]", 1, [4]float64{116, 67, 53, 23}},
		{"[6 0 1]", 1, [4]float64{247, 166, 144, 94}},
		{"[6 0 1 2 3 4 5 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32]", 1, [4]float64{2213, 1652, 1510, 1160}},
		{"[12]", 0.4, [4]float64{123, 70, 56, 23}},
		{"[12 19 6]", 0.7, [4]float64{1386, 1013, 871, 642}},
		{"[12 19 6 24 0 13 18 22 1 2 3 4 5 7 8 9 10 11 14 15 16 17 20 21 23 25 26 27 28 29 30 31 32]", 1, [4]float64{3997, 2959, 2584, 1952}},
		{"[6]", 0.35, [4]float64{129, 74, 57, 25}},
		{"[6 19 0]", 0.625, [4]float64{1660, 1204, 1001, 744}},
		{"[6 19 0 4 9 21 24 5 7 13 18 22 27 32 1 2 3 8 10 11 12 14 15 16 17 20 23 25 26 28 29 30 31]", 1, [4]float64{5194, 3808, 3218, 2434}},
		{"[6]", 0.35, [4]float64{101, 61, 48, 25}},
		{"[6 19 0]", 0.625, [4]float64{1632, 1191, 992, 744}},
		{"[6 19 0 4 9 21 24 5 7 13 18 22 27 32 1 2 3 8 10 11 12 14 15 16 17 20 23 25 26 28 29 30 31]", 1, [4]float64{5166, 3795, 3209, 2434}},
	},
	100: {
		{"[19]", 1, [4]float64{251, 135, 102, 31}},
		{"[19 0 1]", 1, [4]float64{387, 239, 198, 107}},
		{"[19 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49]", 1, [4]float64{3536, 2636, 2407, 1846}},
		{"[60]", 0.2, [4]float64{254, 136, 103, 32}},
		{"[60 7 31]", 0.45, [4]float64{1210, 866, 779, 542}},
		{"[60 7 31 83 0 6 19 20 39 57 67 78 88 1 2 3 4 5 8 9 10 11 12 13 14 15 16 17 18 21 22 23 24 25 26 27 28 29 30 32 33 34 35 36 37 38 40 41 42 43]", 1, [4]float64{6572, 4967, 4566, 3472}},
		{"[11]", 0.2, [4]float64{258, 139, 106, 31}},
		{"[11 43 58]", 0.425, [4]float64{1886, 1341, 1180, 858}},
		{"[11 43 58 32 60 62 83 0 6 19 21 31 39 64 67 69 78 86 88 96 1 2 3 4 5 7 8 9 10 12 13 14 15 16 17 18 20 22 23 24 25 26 27 28 29 30 33 34 35 36]", 1, [4]float64{8951, 6612, 5927, 4534}},
		{"[11]", 0.2, [4]float64{171, 96, 77, 29}},
		{"[11 43 58]", 0.425, [4]float64{1799, 1298, 1151, 856}},
		{"[11 43 58 32 60 62 83 0 6 19 21 31 39 64 67 69 78 86 88 96 1 2 3 4 5 7 8 9 10 12 13 14 15 16 17 18 20 22 23 24 25 26 27 28 29 30 33 34 35 36]", 1, [4]float64{8864, 6569, 5898, 4532}},
	},
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
