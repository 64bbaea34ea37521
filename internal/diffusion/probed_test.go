package diffusion

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// The differential harness for the traversals. The instrumented loop
// taken when Sampler.Probe is set is the straightforward spelling of both
// models; the fast paths (generator in locals, the two IC scan shapes,
// the hand-written LT search) must be indistinguishable from it.

// handBuiltCSR returns a graph of the given model whose in-adjacency is
// written by hand rather than through the Builder, so it can hold what
// the Builder would normalize away and deltas or foreign CSR can produce:
// duplicate in-edges (adjacent and apart), self-loops and unsorted
// segments. probScale scales the IC probabilities; 255 leaves them
// uniform in [0,1), which on these degrees grows sets across the
// sparse→dense switch.
func handBuiltCSR(t testing.TB, model graph.Model, n int32, maxDeg int, probScale byte, seed uint64) *graph.Graph {
	t.Helper()
	g := edgeless(t, model, n)
	r := rng.New(seed)
	g.InIndex, g.InEdges = handBuiltSegments(r, n, maxDeg, -1)
	g.M = int64(len(g.InEdges))
	g.InProb = make([]float32, g.M)
	for k := range g.InProb {
		g.InProb[k] = r.Float32() * float32(probScale) / 255
	}
	if model == graph.LT {
		g.InAccum = make([]float32, g.M)
		for v := int32(0); v < n; v++ {
			lo, hi := g.InIndex[v], g.InIndex[v+1]
			var sum float32
			for k := lo; k < hi; k++ {
				sum += g.InProb[k]
			}
			if sum == 0 {
				sum = 1
			}
			var acc float32
			for k := lo; k < hi; k++ {
				g.InProb[k] /= sum // weights sum to ~1: walks run long enough to revisit
				acc += g.InProb[k]
				g.InAccum[k] = acc
			}
		}
	}
	return g
}

// wcHub is the hub vertex of handBuiltWC's graphs.
const wcHub = 0

// handBuiltWC is handBuiltCSR's IC graph under weighted-cascade
// probabilities, 1/indeg on every in-edge of a segment, the shape every
// served pool is sampled from: sets stay far below the dense switch, so
// each segment goes through the sparse kernel. Vertex wcHub has 64 to 127
// in-edges and is the source of about one in-edge in eight elsewhere, so
// most sets reach it and scan its long segment sparse.
func handBuiltWC(t testing.TB, n int32, maxDeg int, seed uint64) *graph.Graph {
	t.Helper()
	g := edgeless(t, graph.IC, n)
	g.InIndex, g.InEdges = handBuiltSegments(rng.New(seed), n, maxDeg, wcHub)
	g.M = int64(len(g.InEdges))
	g.InProb = make([]float32, g.M)
	for v := int32(0); v < n; v++ {
		lo, hi := g.InIndex[v], g.InIndex[v+1]
		for k := lo; k < hi; k++ {
			g.InProb[k] = 1 / float32(hi-lo)
		}
	}
	return g
}

// edgeless returns an n-vertex graph of the given model with no edges,
// for a test to write its CSR arrays by hand.
func edgeless(t testing.TB, model graph.Model, n int32) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, nil, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.InEdges, g.InProb, g.InAccum = nil, nil, nil
	return g
}

// handBuiltSegments returns a random adjacency over n vertices as CSR
// offsets and entries: up to maxDeg entries a vertex, among them
// self-loops and duplicates (adjacent and apart), segments unsorted. With
// hub ≥ 0, vertex hub gets 64 to 127 entries and about one entry in
// eight elsewhere is hub; with hub < 0 no draw is spent on it.
func handBuiltSegments(r *rng.Xoshiro256, n int32, maxDeg int, hub int32) (index []int64, edges []int32) {
	index = make([]int64, n+1)
	for v := int32(0); v < n; v++ {
		deg := r.Intn(maxDeg + 1)
		if v == hub {
			deg = 64 + r.Intn(64)
		}
		for d := 0; d < deg; d++ {
			u := int32(r.Intn(int(n)))
			switch r.Intn(8) {
			case 0:
				u = v // self-loop
			case 1:
				if d > 0 {
					u = edges[len(edges)-1] // adjacent duplicate
				}
			case 2:
				if d > 0 {
					u = edges[int(index[v])+r.Intn(d)] // duplicate, possibly apart
				}
			case 3:
				if hub >= 0 {
					u = hub
				}
			}
			edges = append(edges, u)
		}
		index[v+1] = int64(len(edges))
	}
	return index, edges
}

// matchProbed draws samples sets with a fast-path sampler and a probed
// one from identical streams and fails on any observable difference. It
// returns the sets, in discovery order.
func matchProbed(t *testing.T, g *graph.Graph, seed uint64, samples int) (sets [][]int32) {
	t.Helper()
	fast, ref := NewSampler(g), NewSampler(g)
	ref.Probe = &countingProbe{}
	var rf, rr rng.Xoshiro256
	for i := 0; i < samples; i++ {
		rf.SeedStream(seed, i)
		rr = rf
		got, want := fast.TraverseUniformRoot(&rf), ref.TraverseUniformRoot(&rr)
		if !slices.Equal(got, want) {
			t.Fatalf("sample %d: members diverged:\nfast   %v\nprobed %v", i, got, want)
		}
		if rf != rr {
			t.Fatalf("sample %d: generator state diverged after %d members", i, len(got))
		}
		if fast.EdgesVisited != ref.EdgesVisited {
			t.Fatalf("sample %d: EdgesVisited %d, probed %d", i, fast.EdgesVisited, ref.EdgesVisited)
		}
		sets = append(sets, slices.Clone(got))
		// End the set both ways in turn; either must leave a clean sampler.
		if i%2 == 0 {
			fast.Release()
		} else {
			row, size := fast.TakeBitmap(nil), 0
			for _, w := range row {
				size += bits.OnesCount64(w)
			}
			for _, v := range want {
				if row[v>>6]>>uint(v&63)&1 == 0 {
					t.Fatalf("sample %d: bitmap row misses member %d", i, v)
				}
			}
			if size != len(want) {
				t.Fatalf("sample %d: bitmap row holds %d bits for %d members", i, size, len(want))
			}
		}
		ref.Release()
		if fast.visited.Any() || ref.visited.Any() {
			t.Fatalf("sample %d: visited bitmap not clear after the set ended", i)
		}
	}
	return sets
}

func FuzzSampleMatchesProbed(f *testing.F) {
	f.Add(byte(0), byte(200), byte(6), byte(255), uint16(1)) // IC, crosses the switch
	f.Add(byte(0), byte(200), byte(6), byte(40), uint16(2))  // IC, stays sparse
	f.Add(byte(0), byte(9), byte(3), byte(255), uint16(3))   // IC, dense from the root (n < 16)
	f.Add(byte(1), byte(120), byte(4), byte(255), uint16(4)) // LT
	f.Add(byte(1), byte(1), byte(2), byte(255), uint16(5))   // LT, two vertices
	f.Add(byte(2), byte(255), byte(6), byte(0), uint16(6))   // IC weighted cascade, a hub scanned sparse
	f.Fuzz(func(t *testing.T, modelByte, nByte, degByte, probScale byte, seed16 uint16) {
		n := int32(nByte) + 1
		var g *graph.Graph
		switch modelByte % 4 {
		case 1, 3:
			g = handBuiltCSR(t, graph.LT, n, int(degByte%12), probScale, uint64(seed16))
		case 2:
			g = handBuiltWC(t, n, int(degByte%12), uint64(seed16))
		default:
			g = handBuiltCSR(t, graph.IC, n, int(degByte%12), probScale, uint64(seed16))
		}
		matchProbed(t, g, uint64(seed16)+1, 40)
	})
}

// TestProbedCorpusCrossesDenseSwitch keeps the fuzz corpus honest: its
// first entry must grow sets past the point where the IC scan changes
// shape, from a start below it.
func TestProbedCorpusCrossesDenseSwitch(t *testing.T) {
	const n = 201
	g := handBuiltCSR(t, graph.IC, n, 6, 255, 1)
	largest := 0
	for _, set := range matchProbed(t, g, 2, 40) {
		largest = max(largest, len(set))
	}
	if dense := n>>denseFillShift + 1; largest <= 2*dense {
		t.Fatalf("largest set %d does not clear the dense switch at %d", largest, dense)
	}
}

// TestProbedCorpusScansWCHub keeps the weighted-cascade corpus entry
// honest: its hub has at least 64 in-edges, and some set holds the hub
// while staying below the dense switch, so the hub's whole segment went
// through the sparse kernel.
func TestProbedCorpusScansWCHub(t *testing.T) {
	const n = 256
	g := handBuiltWC(t, n, 6, 6)
	if deg := g.InIndex[wcHub+1] - g.InIndex[wcHub]; deg < 64 {
		t.Fatalf("hub has %d in-edges, want at least 64", deg)
	}
	dense, hits := n>>denseFillShift+1, 0
	for _, set := range matchProbed(t, g, 7, 40) {
		if len(set) < dense && slices.Contains(set, wcHub) {
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("no sparse set reached the hub")
	}
	t.Logf("%d of 40 sets scanned the hub sparse", hits)
}
