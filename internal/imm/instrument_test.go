package imm

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numa"
)

func TestMeasureNUMAGenerationPlacements(t *testing.T) {
	g := testGraph(t, 10, graph.IC)
	topo := numa.PerlmutterLike()
	orig, err := MeasureNUMAGeneration(g, topo, PlacementOriginal, 200, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := MeasureNUMAGeneration(g, topo, PlacementAware, 200, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Table II's headline: the NUMA-aware placement spends a smaller
	// share of core time on the bitmap check and less total time.
	if aware.BitmapSharePercent() >= orig.BitmapSharePercent() {
		t.Fatalf("aware bitmap share %.1f%% not below original %.1f%%",
			aware.BitmapSharePercent(), orig.BitmapSharePercent())
	}
	if aware.TotalCost >= orig.TotalCost {
		t.Fatalf("aware total cost %.0f not below original %.0f", aware.TotalCost, orig.TotalCost)
	}
	if aware.LocalFraction <= orig.LocalFraction {
		t.Fatalf("aware local fraction %.2f not above original %.2f", aware.LocalFraction, orig.LocalFraction)
	}
	if aware.Imbalance >= orig.Imbalance {
		t.Fatalf("aware imbalance %.2f not below original %.2f", aware.Imbalance, orig.Imbalance)
	}
	if orig.Placement.String() != "original" || aware.Placement.String() != "numa-aware" {
		t.Fatal("placement names wrong")
	}
}

func TestMeasureNUMADeterministic(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	topo := numa.PerlmutterLike()
	a, err := MeasureNUMAGeneration(g, topo, PlacementAware, 50, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureNUMAGeneration(g, topo, PlacementAware, 50, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost != b.TotalCost || a.BitmapCost != b.BitmapCost {
		t.Fatal("instrumented run not deterministic")
	}
}

func TestTraceSelectionEfficientFewerMisses(t *testing.T) {
	// Table IV: on identical pools, the set-partitioned kernel must
	// produce far fewer L1+L2 misses than the vertex-partitioned one.
	g, err := gen.RMAT(gen.DefaultRMAT(11, 6), graph.IC, 9)
	if err != nil {
		t.Fatal(err)
	}
	rip := TraceSelection(g, Ripples, 10, 400, 32, 5)
	eff := TraceSelection(g, Efficient, 10, 400, 32, 5)
	ripMiss := rip.Stats.CombinedMisses()
	effMiss := eff.Stats.CombinedMisses()
	if effMiss == 0 || ripMiss == 0 {
		t.Fatalf("degenerate trace: ripples=%d efficient=%d", ripMiss, effMiss)
	}
	if ratio := float64(ripMiss) / float64(effMiss); ratio < 3 {
		t.Fatalf("miss reduction = %.2fx at 32 threads, want >= 3x (paper reports 22-357x at 128)", ratio)
	}
}

func TestTraceSelectionGapGrowsWithThreads(t *testing.T) {
	// The redundancy is per-thread, so the miss ratio must widen as the
	// simulated thread count grows — the reason the paper's 128-core
	// machine shows such large reductions.
	g := testGraph(t, 10, graph.IC)
	ratioAt := func(workers int) float64 {
		rip := TraceSelection(g, Ripples, 5, 200, workers, 5)
		eff := TraceSelection(g, Efficient, 5, 200, workers, 5)
		return float64(rip.Stats.CombinedMisses()) / float64(eff.Stats.CombinedMisses())
	}
	if r8, r64 := ratioAt(8), ratioAt(64); r64 <= r8 {
		t.Fatalf("miss ratio did not grow with threads: 8→%.2f 64→%.2f", r8, r64)
	}
}

func TestTraceSelectionDeterministic(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	a := TraceSelection(g, Efficient, 5, 100, 8, 7)
	b := TraceSelection(g, Efficient, 5, 100, 8, 7)
	if a.Stats != b.Stats {
		t.Fatal("trace not deterministic")
	}
}

// TestTraceSelectionPinned pins the whole Table IV trace — every hit and
// miss count and the access total — for both kernels at one and at eight
// simulated workers, so that a change to how the traced pool is built or
// walked cannot move a figure unseen. The set-partitioned kernel's trace
// does not depend on the worker count. LT sets are ~1.5 members: at 300
// sets the trace misses only 93 times, so the LT rows use 2,000.
func TestTraceSelectionPinned(t *testing.T) {
	type row struct {
		model    graph.Model
		nsets    int
		kind     EngineKind
		workers  int
		stats    cachesim.Stats
		accesses int64
	}
	ripIC1 := cachesim.Stats{L1Hits: 161072, L1Misses: 5110, L2Hits: 2560, L2Misses: 2550}
	ripIC8 := cachesim.Stats{L1Hits: 194341, L1Misses: 17627, L2Hits: 15077, L2Misses: 2550}
	effIC := cachesim.Stats{L1Hits: 155787, L1Misses: 5110, L2Hits: 2560, L2Misses: 2550}
	ripLT1 := cachesim.Stats{L1Hits: 26350, L1Misses: 269, L2Hits: 0, L2Misses: 269}
	ripLT8 := cachesim.Stats{L1Hits: 144703, L1Misses: 269, L2Hits: 0, L2Misses: 269}
	effLT := cachesim.Stats{L1Hits: 20296, L1Misses: 269, L2Hits: 0, L2Misses: 269}
	rows := []row{
		{graph.IC, 300, Ripples, 1, ripIC1, 166182},
		{graph.IC, 300, Ripples, 8, ripIC8, 211968},
		{graph.IC, 300, Efficient, 1, effIC, 160897},
		{graph.IC, 300, Efficient, 8, effIC, 160897},
		{graph.LT, 2000, Ripples, 1, ripLT1, 26619},
		{graph.LT, 2000, Ripples, 8, ripLT8, 144972},
		{graph.LT, 2000, Efficient, 1, effLT, 20565},
		{graph.LT, 2000, Efficient, 8, effLT, 20565},
	}
	graphs := map[graph.Model]*graph.Graph{graph.IC: testGraph(t, 9, graph.IC), graph.LT: testGraph(t, 9, graph.LT)}
	for _, r := range rows {
		got := TraceSelection(graphs[r.model], r.kind, 5, r.nsets, r.workers, 3)
		if got.Engine != r.kind || got.Stats != r.stats || got.Accesses != r.accesses {
			t.Errorf("%v %v nsets=%d workers=%d: %+v, %d accesses; want %+v, %d",
				r.model, r.kind, r.nsets, r.workers, got.Stats, got.Accesses, r.stats, r.accesses)
		}
	}
}
