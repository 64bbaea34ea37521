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
	g, err := graph.FromEdges(n, nil, model, 1) // edgeless, but of the right model
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	g.InIndex = make([]int64, n+1)
	g.InEdges, g.InProb, g.InAccum = nil, nil, nil
	for v := int32(0); v < n; v++ {
		deg := r.Intn(maxDeg + 1)
		for d := 0; d < deg; d++ {
			u := int32(r.Intn(int(n)))
			switch r.Intn(8) {
			case 0:
				u = v // self-loop
			case 1:
				if d > 0 {
					u = g.InEdges[len(g.InEdges)-1] // adjacent duplicate
				}
			case 2:
				if d > 0 {
					u = g.InEdges[int(g.InIndex[v])+r.Intn(d)] // duplicate, possibly apart
				}
			}
			g.InEdges = append(g.InEdges, u)
		}
		g.InIndex[v+1] = int64(len(g.InEdges))
	}
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

// matchProbed draws samples sets with a fast-path sampler and a probed
// one from identical streams and fails on any observable difference. It
// returns the largest set seen.
func matchProbed(t *testing.T, g *graph.Graph, seed uint64, samples int) (maxSize int) {
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
		maxSize = max(maxSize, len(got))
		// End the set both ways in turn; either must leave a clean sampler.
		if i%2 == 0 {
			fast.Release()
		} else {
			row, size := fast.TakeBitmap(), 0
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
	return maxSize
}

func FuzzSampleMatchesProbed(f *testing.F) {
	f.Add(byte(0), byte(200), byte(6), byte(255), uint16(1)) // IC, crosses the switch
	f.Add(byte(0), byte(200), byte(6), byte(40), uint16(2))  // IC, stays sparse
	f.Add(byte(0), byte(9), byte(3), byte(255), uint16(3))   // IC, dense from the root (n < 16)
	f.Add(byte(1), byte(120), byte(4), byte(255), uint16(4)) // LT
	f.Add(byte(1), byte(1), byte(2), byte(255), uint16(5))   // LT, two vertices
	f.Fuzz(func(t *testing.T, modelByte, nByte, degByte, probScale byte, seed16 uint16) {
		model := graph.IC
		if modelByte%2 == 1 {
			model = graph.LT
		}
		n := int32(nByte) + 1
		g := handBuiltCSR(t, model, n, int(degByte%12), probScale, uint64(seed16))
		matchProbed(t, g, uint64(seed16)+1, 40)
	})
}

// TestProbedCorpusCrossesDenseSwitch keeps the fuzz corpus honest: its
// first entry must grow sets past the point where the IC scan changes
// shape, from a start below it.
func TestProbedCorpusCrossesDenseSwitch(t *testing.T) {
	const n = 201
	g := handBuiltCSR(t, graph.IC, n, 6, 255, 1)
	if largest, dense := matchProbed(t, g, 2, 40), n>>denseFillShift+1; largest <= 2*dense {
		t.Fatalf("largest set %d does not clear the dense switch at %d", largest, dense)
	}
}
