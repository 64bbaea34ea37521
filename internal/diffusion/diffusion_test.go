package diffusion

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// lineGraph returns 0→1→2→…→(n-1) with all probabilities forced to p.
func lineGraph(t *testing.T, n int32, p float32, model graph.Model) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := int32(0); i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: i, Dst: i + 1})
	}
	g, err := graph.FromEdges(n, edges, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	forceProb(g, p)
	return g
}

// forceProb overwrites every edge parameter with p and rebuilds InAccum.
func forceProb(g *graph.Graph, p float32) {
	for i := range g.InProb {
		g.InProb[i] = p
	}
	for i := range g.OutProb {
		g.OutProb[i] = p
	}
	if g.Model() == graph.LT {
		for v := int32(0); v < g.N; v++ {
			var acc float32
			for k := g.InIndex[v]; k < g.InIndex[v+1]; k++ {
				acc += g.InProb[k]
				g.InAccum[k] = acc
			}
		}
	}
}

func TestICSampleCertainEdges(t *testing.T) {
	// With p=1 the RRR set of root v is every vertex that reaches v.
	g := lineGraph(t, 10, 1, graph.IC)
	s := NewSampler(g)
	r := rng.New(1)
	out := s.Sample(r, 9, nil)
	if len(out) != 10 {
		t.Fatalf("RRR(9) size = %d, want 10 (whole chain)", len(out))
	}
	out = s.Sample(r, 0, nil)
	if len(out) != 1 || out[0] != 0 {
		t.Fatalf("RRR(0) = %v, want {0} (nothing reaches vertex 0)", out)
	}
}

func TestICSampleImpossibleEdges(t *testing.T) {
	g := lineGraph(t, 10, 0, graph.IC)
	s := NewSampler(g)
	r := rng.New(1)
	for root := int32(0); root < 10; root++ {
		out := s.Sample(r, root, nil)
		if len(out) != 1 || out[0] != root {
			t.Fatalf("RRR(%d) = %v with p=0", root, out)
		}
	}
}

func TestSamplerScratchReuseIsClean(t *testing.T) {
	// After a huge sample, a following sample must not see stale visited
	// bits.
	g := lineGraph(t, 100, 1, graph.IC)
	s := NewSampler(g)
	r := rng.New(1)
	first := s.Sample(r, 99, nil)
	if len(first) != 100 {
		t.Fatalf("first sample size %d", len(first))
	}
	second := s.Sample(r, 99, nil)
	if len(second) != 100 {
		t.Fatalf("stale visited bits: second sample size %d", len(second))
	}
}

func TestSampleAppendsToOut(t *testing.T) {
	g := lineGraph(t, 5, 1, graph.IC)
	s := NewSampler(g)
	r := rng.New(1)
	prefix := []int32{42}
	out := s.Sample(r, 2, prefix)
	if out[0] != 42 || len(out) != 4 { // 42 + {2,1,0}
		t.Fatalf("append semantics broken: %v", out)
	}
}

func TestLTSampleWalkOnCycle(t *testing.T) {
	// Cycle with weight-1 edges: the reverse walk always follows the
	// single in-edge and stops upon revisiting the root.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	g, err := graph.FromEdges(3, edges, graph.LT, 1)
	if err != nil {
		t.Fatal(err)
	}
	forceProb(g, 1)
	s := NewSampler(g)
	r := rng.New(1)
	out := s.Sample(r, 0, nil)
	if len(out) != 3 {
		t.Fatalf("LT walk covered %d vertices, want full cycle 3", len(out))
	}
}

func TestLTSampleRespectsZeroWeight(t *testing.T) {
	g := lineGraph(t, 10, 0, graph.LT)
	s := NewSampler(g)
	r := rng.New(1)
	out := s.Sample(r, 5, nil)
	if len(out) != 1 {
		t.Fatalf("LT RRR with zero weights = %v", out)
	}
}

func TestLTSetsAreSmallerThanIC(t *testing.T) {
	// The structural claim from §III.A: on the same topology LT RRR sets
	// are much smaller than IC sets because each step picks one in-edge.
	gic, err := gen.RMAT(gen.DefaultRMAT(10, 8), graph.IC, 3)
	if err != nil {
		t.Fatal(err)
	}
	glt, err := gen.RMAT(gen.DefaultRMAT(10, 8), graph.LT, 3)
	if err != nil {
		t.Fatal(err)
	}
	ic := MeasureCoverage(gic, 300, 2, 9)
	lt := MeasureCoverage(glt, 300, 2, 9)
	if lt.AvgSize >= ic.AvgSize {
		t.Fatalf("LT avg size %.1f not below IC %.1f", lt.AvgSize, ic.AvgSize)
	}
}

func TestSampleDeterministicPerStream(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 4), graph.IC, 5)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := NewSampler(g), NewSampler(g)
	r1, r2 := rng.NewStream(7, 0), rng.NewStream(7, 0)
	for i := 0; i < 50; i++ {
		a := s1.SampleUniformRoot(r1, nil)
		b := s2.SampleUniformRoot(r2, nil)
		if len(a) != len(b) {
			t.Fatalf("sample %d diverged", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("sample %d diverged at %d", i, j)
			}
		}
	}
}

func TestMeasureCoverage(t *testing.T) {
	g := lineGraph(t, 10, 1, graph.IC)
	st := MeasureCoverage(g, 1000, 4, 11)
	if st.Samples != 1000 {
		t.Fatalf("Samples = %d", st.Samples)
	}
	// Root uniform on a p=1 chain: RRR(v) = v+1 vertices, avg = 5.5.
	if math.Abs(st.AvgSize-5.5) > 0.3 {
		t.Fatalf("AvgSize = %v, want ≈5.5", st.AvgSize)
	}
	if st.MaxSize != 10 {
		t.Fatalf("MaxSize = %d, want 10", st.MaxSize)
	}
	if st.MaxCoverage != 1 {
		t.Fatalf("MaxCoverage = %v", st.MaxCoverage)
	}
	if st.TotalEdges == 0 {
		t.Fatal("edge work not accounted")
	}
}

func TestEstimateSpreadDeterministicGraphs(t *testing.T) {
	// p=1 chain: seeding vertex 0 activates everything.
	g := lineGraph(t, 20, 1, graph.IC)
	if got := EstimateSpread(g, []int32{0}, 100, 2, 3); got != 20 {
		t.Fatalf("spread = %v, want 20", got)
	}
	// p=0: only the seeds themselves.
	g0 := lineGraph(t, 20, 0, graph.IC)
	if got := EstimateSpread(g0, []int32{3, 7}, 100, 2, 3); got != 2 {
		t.Fatalf("spread = %v, want 2", got)
	}
	// Duplicate seeds count once.
	if got := EstimateSpread(g0, []int32{3, 3}, 10, 1, 3); got != 1 {
		t.Fatalf("duplicate seeds spread = %v, want 1", got)
	}
}

func TestEstimateSpreadLTChain(t *testing.T) {
	g := lineGraph(t, 15, 1, graph.LT)
	if got := EstimateSpread(g, []int32{0}, 50, 2, 3); got != 15 {
		t.Fatalf("LT spread = %v, want 15 (weight-1 chain)", got)
	}
}

func TestEstimateSpreadEmpty(t *testing.T) {
	g := lineGraph(t, 5, 1, graph.IC)
	if got := EstimateSpread(g, nil, 100, 2, 3); got != 0 {
		t.Fatalf("empty seed spread = %v", got)
	}
	if got := EstimateSpread(g, []int32{0}, 0, 2, 3); got != 0 {
		t.Fatalf("zero runs spread = %v", got)
	}
}

// TestRISDuality verifies the identity that makes RIS work:
// n · P[v ∈ RRR(uniform root)] = σ({v}). Both sides are estimated by
// independent Monte Carlo, so this cross-checks the reverse sampler
// against the forward simulator for both models.
func TestRISDuality(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g, err := gen.ErdosRenyi(60, 240, model, 17)
		if err != nil {
			t.Fatal(err)
		}
		const samples = 60000
		counts := make([]int64, g.N)
		s := NewSampler(g)
		r := rng.New(23)
		var buf []int32
		for i := 0; i < samples; i++ {
			buf = s.SampleUniformRoot(r, buf[:0])
			for _, v := range buf {
				counts[v]++
			}
		}
		// Check the three most frequent vertices plus vertex 0.
		type cand struct {
			v int32
			c int64
		}
		best := []cand{{0, counts[0]}}
		for v := int32(1); v < g.N; v++ {
			best = append(best, cand{v, counts[v]})
		}
		// Partial selection of top 3 by count.
		for i := 0; i < 3; i++ {
			for j := i + 1; j < len(best); j++ {
				if best[j].c > best[i].c {
					best[i], best[j] = best[j], best[i]
				}
			}
		}
		for _, cd := range best[:3] {
			risEst := float64(cd.c) / samples * float64(g.N)
			fwd := EstimateSpread(g, []int32{cd.v}, 20000, 2, 31)
			if fwd == 0 && risEst == 0 {
				continue
			}
			rel := math.Abs(risEst-fwd) / math.Max(fwd, 1)
			if rel > 0.1 {
				t.Errorf("%v: vertex %d RIS estimate %.2f vs forward %.2f (rel err %.3f)",
					model, cd.v, risEst, fwd, rel)
			}
		}
	}
}

func TestGreedySpreadTinyGraph(t *testing.T) {
	// Star: center 0 points at 1..9 with p=1. Greedy's first pick must be
	// the center.
	edges := make([]graph.Edge, 0, 9)
	for i := int32(1); i < 10; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: i})
	}
	g, err := graph.FromEdges(10, edges, graph.IC, 1)
	if err != nil {
		t.Fatal(err)
	}
	forceProb(g, 1)
	seeds := GreedySpread(g, 2, 50, 2, 3)
	if len(seeds) != 2 || seeds[0] != 0 {
		t.Fatalf("greedy seeds = %v, want center first", seeds)
	}
}

type countingProbe struct {
	visited, edge, output int64
}

func (p *countingProbe) TouchVisited(int64) { p.visited++ }
func (p *countingProbe) TouchEdge(int64)    { p.edge++ }
func (p *countingProbe) TouchOutput(int64)  { p.output++ }

func TestProbeReceivesTouches(t *testing.T) {
	g := lineGraph(t, 10, 1, graph.IC)
	s := NewSampler(g)
	probe := &countingProbe{}
	s.Probe = probe
	out := s.Sample(rng.New(1), 9, nil)
	if probe.output != int64(len(out)) {
		t.Fatalf("output touches %d != set size %d", probe.output, len(out))
	}
	if probe.edge == 0 || probe.visited == 0 {
		t.Fatalf("probe missed accesses: %+v", probe)
	}
}

// BenchmarkTraverse times one traversal per iteration in the three
// regimes the sampler serves: uniform IC (dense sets, the two-pass scan),
// weighted-cascade IC (sparse sets, the plain scan) and LT (two-member
// walks, per-set overhead).
func BenchmarkTraverse(b *testing.B) {
	regimes := []struct {
		name       string
		scale      int
		edgeFactor float64
		model      graph.Model
		wc         bool
	}{{"dense-ic", 9, 16, graph.IC, false}, {"wc-ic", 13, 8, graph.IC, true}, {"lt", 16, 8, graph.LT, false}}
	for _, rg := range regimes {
		b.Run(rg.name, func(b *testing.B) {
			g, err := gen.RMAT(gen.DefaultRMAT(rg.scale, rg.edgeFactor), rg.model, 5)
			if err != nil {
				b.Fatal(err)
			}
			if rg.wc {
				graph.AssignWC(g)
			}
			s := NewSampler(g)
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.TraverseUniformRoot(r)
				s.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.EdgesVisited), "ns/edge")
		})
	}
}
