package graph

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// triangle builds the directed 3-cycle 0→1→2→0 plus chord 0→2.
func triangle(t *testing.T, model Model) *Graph {
	t.Helper()
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 2}}, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasicTopology(t *testing.T) {
	g := triangle(t, IC)
	if g.N != 3 || g.M != 4 {
		t.Fatalf("N=%d M=%d", g.N, g.M)
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("out(0) = %v", got)
	}
	if got := g.InNeighbors(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("in(2) = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDedupAndSelfLoops(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {0, 1}, {1, 1}, {1, 2}}, IC, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M != 2 {
		t.Fatalf("M = %d, want 2 after dedup and self-loop removal", g.M)
	}
}

func TestHasEdge(t *testing.T) {
	g := triangle(t, IC)
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Fatal("missing expected edges")
	}
	if g.HasEdge(1, 0) || g.HasEdge(2, 1) {
		t.Fatal("phantom edges")
	}
}

func TestDegrees(t *testing.T) {
	g := triangle(t, IC)
	if g.OutDegree(0) != 2 || g.InDegree(0) != 1 {
		t.Fatalf("degree(0) out=%d in=%d", g.OutDegree(0), g.InDegree(0))
	}
	st := g.Degrees()
	if st.MaxOut != 2 || st.MeanOut <= 1 || st.Zeros != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDegreesZeroVertex(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1}}, IC, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Degrees()
	if st.Zeros != 2 {
		t.Fatalf("Zeros = %d, want 2", st.Zeros)
	}
}

func TestICProbMirrored(t *testing.T) {
	g := triangle(t, IC)
	// For every in-edge (u→v) the forward copy must carry the same prob.
	for v := int32(0); v < g.N; v++ {
		for k := g.InIndex[v]; k < g.InIndex[v+1]; k++ {
			u := g.InEdges[k]
			seg := g.OutNeighbors(u)
			base := g.OutIndex[u]
			found := false
			for i, w := range seg {
				if w == v {
					if g.OutProb[base+int64(i)] != g.InProb[k] {
						t.Fatalf("edge (%d,%d) prob mismatch", u, v)
					}
					found = true
				}
			}
			if !found {
				t.Fatalf("in-edge (%d,%d) has no forward copy", u, v)
			}
		}
	}
}

func TestLTWeightsSumAtMostOne(t *testing.T) {
	g := triangle(t, LT)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < g.N; v++ {
		var sum float32
		for k := g.InIndex[v]; k < g.InIndex[v+1]; k++ {
			if g.InProb[k] < 0 {
				t.Fatalf("negative LT weight at vertex %d", v)
			}
			sum += g.InProb[k]
		}
		if sum > 1.0001 {
			t.Fatalf("vertex %d in-weights sum to %f", v, sum)
		}
	}
}

func TestLTAccumMonotone(t *testing.T) {
	b := NewBuilder(50)
	r := rng.New(3)
	for i := 0; i < 300; i++ {
		b.AddEdge(int32(r.Intn(50)), int32(r.Intn(50)))
	}
	g, err := b.Build(LT, 7)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < g.N; v++ {
		var prev float32
		for k := g.InIndex[v]; k < g.InIndex[v+1]; k++ {
			if g.InAccum[k] < prev {
				t.Fatalf("InAccum not monotone at vertex %d", v)
			}
			prev = g.InAccum[k]
		}
	}
}

func TestWCAssignsInverseDegree(t *testing.T) {
	g := triangle(t, IC)
	AssignWC(g)
	// Vertex 2 has in-degree 2, so both incoming probs must be 0.5.
	for k := g.InIndex[2]; k < g.InIndex[2+1]; k++ {
		if g.InProb[k] != 0.5 {
			t.Fatalf("WC prob = %v, want 0.5", g.InProb[k])
		}
	}
}

func TestRandomGraphCSRInvariantsProperty(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawM uint16) bool {
		n := int32(rawN%100) + 2
		m := int(rawM % 1000)
		r := rng.New(seed)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(int32(r.Intn(int(n))), int32(r.Intn(int(n))))
		}
		g, err := b.Build(IC, seed)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeIsInvolution(t *testing.T) {
	// Every forward edge must appear exactly once in the transpose and
	// vice versa.
	r := rng.New(11)
	b := NewBuilder(64)
	for i := 0; i < 500; i++ {
		b.AddEdge(int32(r.Intn(64)), int32(r.Intn(64)))
	}
	g, err := b.Build(IC, 5)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ u, v int32 }
	fwd := map[pair]int{}
	for u := int32(0); u < g.N; u++ {
		for _, v := range g.OutNeighbors(u) {
			fwd[pair{u, v}]++
		}
	}
	for v := int32(0); v < g.N; v++ {
		for _, u := range g.InNeighbors(v) {
			fwd[pair{u, v}]--
		}
	}
	for p, c := range fwd {
		if c != 0 {
			t.Fatalf("edge %v imbalance %d between CSR directions", p, c)
		}
	}
}

func TestLoadEdgeList(t *testing.T) {
	src := `# comment line
0 1
1 2
2 0
# another comment
5 0
`
	g, err := LoadEdgeList(strings.NewReader(src), false, IC, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.M != 4 {
		t.Fatalf("N=%d M=%d, want 4 and 4", g.N, g.M)
	}
}

func TestLoadEdgeListUndirected(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("0 1\n1 2\n"), true, IC, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M != 4 {
		t.Fatalf("M = %d, want 4 (both directions)", g.M)
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Fatal("reverse edges missing")
	}
}

func TestLoadEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "a b\n", "0 b\n", "-1 2\n"}
	for _, c := range cases {
		if _, err := LoadEdgeList(strings.NewReader(c), false, IC, 1); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := triangle(t, IC)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeList(strings.NewReader(sb.String()), false, IC, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.M != g.M {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g2.N, g2.M, g.N, g.M)
	}
	for u := int32(0); u < g.N; u++ {
		a, b := g.OutNeighbors(u), g2.OutNeighbors(u)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
}

func TestSCCThreeCycle(t *testing.T) {
	g := triangle(t, IC)
	_, count := g.SCC()
	if count != 1 {
		t.Fatalf("triangle SCC count = %d, want 1", count)
	}
	if f := g.LargestSCCFraction(); f != 1 {
		t.Fatalf("LargestSCCFraction = %v, want 1", f)
	}
}

func TestSCCChain(t *testing.T) {
	// 0→1→2 is a DAG: three singleton components.
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}}, IC, 1)
	if err != nil {
		t.Fatal(err)
	}
	comp, count := g.SCC()
	if count != 3 {
		t.Fatalf("chain SCC count = %d, want 3", count)
	}
	if comp[0] == comp[1] || comp[1] == comp[2] {
		t.Fatal("DAG vertices merged into one SCC")
	}
}

func TestSCCTwoCyclesBridged(t *testing.T) {
	// cycle {0,1}, cycle {2,3}, bridge 1→2.
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}}, IC, 1)
	if err != nil {
		t.Fatal(err)
	}
	comp, count := g.SCC()
	if count != 2 {
		t.Fatalf("SCC count = %d, want 2", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Fatalf("components wrong: %v", comp)
	}
}

func TestSCCMatchesBruteForceOnRandomGraphs(t *testing.T) {
	// Brute force: u,v in same SCC iff reach(u,v) && reach(v,u).
	reach := func(g *Graph, from int32) []bool {
		seen := make([]bool, g.N)
		stack := []int32{from}
		seen[from] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.OutNeighbors(u) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		return seen
	}
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := int32(r.Intn(20) + 2)
		b := NewBuilder(n)
		for i := 0; i < int(n)*2; i++ {
			b.AddEdge(int32(r.Intn(int(n))), int32(r.Intn(int(n))))
		}
		g, err := b.Build(IC, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		comp, _ := g.SCC()
		reachAll := make([][]bool, n)
		for v := int32(0); v < n; v++ {
			reachAll[v] = reach(g, v)
		}
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				same := comp[u] == comp[v]
				mutual := reachAll[u][v] && reachAll[v][u]
				if same != mutual {
					t.Fatalf("trial %d: SCC disagrees with brute force for %d,%d", trial, u, v)
				}
			}
		}
	}
}

func TestWCC(t *testing.T) {
	g, err := FromEdges(5, []Edge{{0, 1}, {2, 3}}, IC, 1)
	if err != nil {
		t.Fatal(err)
	}
	comp, count := g.WCC()
	if count != 3 {
		t.Fatalf("WCC count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[4] == comp[0] || comp[4] == comp[2] {
		t.Fatalf("WCC ids wrong: %v", comp)
	}
}

func TestMemoryFootprint(t *testing.T) {
	g := triangle(t, IC)
	want := int64(2*4*8) + int64(2*4*4) + int64(2*4*4) // indexes + edges + probs
	if got := g.MemoryFootprintBytes(); got != want {
		t.Fatalf("footprint = %d, want %d", got, want)
	}
}

func TestParseModel(t *testing.T) {
	if m, err := ParseModel("IC"); err != nil || m != IC {
		t.Fatal("ParseModel(IC) failed")
	}
	if m, err := ParseModel("lt"); err != nil || m != LT {
		t.Fatal("ParseModel(lt) failed")
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("ParseModel(bogus) should fail")
	}
	if IC.String() != "IC" || LT.String() != "LT" {
		t.Fatal("String() wrong")
	}
}

func TestTranspose(t *testing.T) {
	g := triangle(t, IC)
	tr, err := g.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every edge must be reversed with its probability intact.
	for u := int32(0); u < g.N; u++ {
		base := g.OutIndex[u]
		for i, v := range g.OutNeighbors(u) {
			if !tr.HasEdge(v, u) {
				t.Fatalf("edge (%d,%d) not reversed", u, v)
			}
			p := g.OutProb[base+int64(i)]
			trBase := tr.InIndex[u]
			found := false
			for j, w := range tr.InNeighbors(u) {
				if w == v && tr.InProb[trBase+int64(j)] == p {
					found = true
				}
			}
			if !found {
				t.Fatalf("probability of (%d,%d) lost in transpose", u, v)
			}
		}
	}
	// Transposing twice restores the original adjacency.
	tr2, err := tr.Transpose()
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < g.N; u++ {
		a, b := g.OutNeighbors(u), tr2.OutNeighbors(u)
		if len(a) != len(b) {
			t.Fatalf("double transpose changed degree of %d", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("double transpose changed adjacency")
			}
		}
	}
}

func TestTransposeRejectsLT(t *testing.T) {
	g := triangle(t, LT)
	if _, err := g.Transpose(); err == nil {
		t.Fatal("LT transpose accepted")
	}
}

func TestBuilderPanicsOnBadEdge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

// TestChecksumMemo pins the content fingerprint's memo: equal content
// fingerprints equally across graph objects, a repeat reads the memo,
// and the in-place weight assigners — the only sanctioned way a built
// graph changes — invalidate it.
func TestChecksumMemo(t *testing.T) {
	a, b := triangle(t, IC), triangle(t, IC)
	sum := a.Checksum()
	if sum != b.Checksum() || sum != a.Checksum() {
		t.Fatal("equal graphs fingerprint differently")
	}
	if lt := triangle(t, LT); lt.Checksum() == sum {
		t.Fatal("LT and IC weights share a fingerprint")
	}
	AssignWC(a)
	if a.Checksum() == sum {
		t.Fatal("fingerprint survived an in-place reweighting")
	}
	AssignIC(a, 1)
	if a.Checksum() != sum {
		t.Fatal("the same weights drawn again fingerprint differently")
	}
}

func TestBuildTopologyMatchesReference(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 60; trial++ {
		// From one vertex to more than 256 (the bucket fan-out), sparse
		// to dense, with self-loops and duplicates throughout.
		n := int32(1 + r.Intn(1<<(1+trial%11)))
		edges := make([]Edge, r.Intn(6*int(n)+2))
		for i := range edges {
			u := int32(r.Intn(int(n)))
			edges[i] = Edge{u, int32(r.Intn(int(n)))}
			if r.Intn(3) == 0 { // skew: a hub's out-segment spans buckets
				edges[i].Src = 0
			}
		}
		want, err := referenceTopology(n, slices.Clone(edges))
		if err != nil {
			t.Fatal(err)
		}
		var wantLoops int64
		for _, e := range edges {
			if e.Src == e.Dst {
				wantLoops++
			}
		}
		for _, w := range []int{1, 2, 3, 8, 64, 128} {
			got, loops, dups := BuildTopology(n, slices.Clone(edges), w)
			if !Equal(want, got) {
				t.Fatalf("trial %d n=%d m=%d workers=%d: topology differs from reference", trial, n, len(edges), w)
			}
			if loops != wantLoops || dups != int64(len(edges))-wantLoops-want.M {
				t.Fatalf("trial %d workers=%d: loops=%d dups=%d, want %d, %d", trial, w, loops, dups, wantLoops, int64(len(edges))-wantLoops-want.M)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestBuildTopologySortedInput(t *testing.T) {
	// A (src, dst)-sorted list skips the sorting passes; it must build
	// what a shuffled copy of it builds, drop counts included.
	r := rng.New(8)
	for _, n := range []int32{0, 1, 2, 3, 17, 256, 257, 1000} {
		for _, m := range []int{0, 1, 2, 5 * int(n)} {
			if n == 0 && m > 0 {
				continue
			}
			edges := make([]Edge, m)
			for i := range edges {
				edges[i] = Edge{int32(r.Intn(int(n))), int32(r.Intn(int(n)))}
				if i > 0 && r.Intn(4) == 0 { // duplicates, and self-loops on tiny n
					edges[i] = edges[i-1]
				}
			}
			if m > 0 {
				edges[0] = Edge{int32(n) - 1, int32(n) - 1} // one self-loop at least
			}
			shuffled := slices.Clone(edges)
			for i := len(shuffled) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			}
			slices.SortFunc(edges, func(a, b Edge) int {
				return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
			})
			for _, w := range []int{1, 2, 3, 8, 64, 128} {
				if !sortedBySrcDst(edges, w) {
					t.Fatalf("n=%d m=%d workers=%d: sorted list not recognised", n, m, w)
				}
				want, wantLoops, wantDups := BuildTopology(n, slices.Clone(shuffled), w)
				got, loops, dups := BuildTopology(n, slices.Clone(edges), w)
				if !Equal(want, got) || loops != wantLoops || dups != wantDups {
					t.Fatalf("n=%d m=%d workers=%d: sorted input built (%d, %d), shuffled (%d, %d) or a different graph", n, m, w, loops, dups, wantLoops, wantDups)
				}
				if m > 0 && loops == 0 {
					t.Fatalf("n=%d m=%d: the self-loop was not counted", n, m)
				}
			}
		}
	}
}

func TestSortedBySrcDstFindsEveryDescent(t *testing.T) {
	// One descent anywhere, a worker's range boundary included, makes
	// the list unsorted.
	sorted := make([]Edge, 40)
	for i := range sorted {
		sorted[i] = Edge{int32(i / 3), int32(i % 3)}
	}
	for at := 1; at < len(sorted); at++ {
		edges := slices.Clone(sorted)
		edges[at-1], edges[at] = edges[at], edges[at-1]
		for _, w := range []int{1, 2, 3, 8, 64} {
			if sortedBySrcDst(edges, w) {
				t.Fatalf("descent at %d, workers=%d: reported sorted", at, w)
			}
		}
	}
}

func TestMirrorMatchesSearch(t *testing.T) {
	// The cursor-walk mirror against the per-edge binary search it
	// replaced (oracleMirror, delta_test.go).
	r := rng.New(9)
	b := NewBuilder(300)
	for i := 0; i < 2400; i++ {
		b.AddEdge(int32(r.Intn(300)), int32(r.Intn(300)))
	}
	g, err := b.Build(LT, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(g.OutProb)
	clear(g.OutProb)
	oracleMirror(g)
	if !slices.Equal(want, g.OutProb) {
		t.Fatal("cursor-walk mirror differs from binary-search mirror")
	}
}

// referenceTopology is Builder.buildTopology as it stood before
// BuildTopology — a comparison sort over the edge list, then one
// scatter — kept verbatim as the oracle (receiver fields aside).
func referenceTopology(n int32, edges []Edge) (*Graph, error) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	// Dedup and drop self-loops in place.
	kept := edges[:0]
	for i, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		if i > 0 && e == edges[i-1] {
			continue
		}
		kept = append(kept, e)
	}
	edges = kept
	m := int64(len(edges))

	g := &Graph{
		N:        n,
		M:        m,
		OutIndex: make([]int64, n+1),
		OutEdges: make([]int32, m),
		InIndex:  make([]int64, n+1),
		InEdges:  make([]int32, m),
	}
	for _, e := range edges {
		g.OutIndex[e.Src+1]++
		g.InIndex[e.Dst+1]++
	}
	for i := int32(0); i < n; i++ {
		g.OutIndex[i+1] += g.OutIndex[i]
		g.InIndex[i+1] += g.InIndex[i]
	}
	// Out-edges: already sorted by (src, dst), so a single pass fills
	// segments in sorted order.
	for i, e := range edges {
		g.OutEdges[i] = e.Dst
		_ = i
	}
	// In-edges: counting sort by dst preserves src order within a
	// segment because the edge list is sorted by src first.
	cursor := make([]int64, n)
	copy(cursor, g.InIndex[:n])
	for _, e := range edges {
		g.InEdges[cursor[e.Dst]] = e.Src
		cursor[e.Dst]++
	}
	return g, nil
}
