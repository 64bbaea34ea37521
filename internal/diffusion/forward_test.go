package diffusion

import (
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// simulateICReference is the forward IC cascade written the
// straightforward way, the loop simulateIC ran before it shared the
// sparse kernel: breadth-first over out-edges, one draw for each out-edge
// whose target is inactive at its turn. It returns the activation order.
func simulateICReference(g *graph.Graph, seeds []int32, r *rng.Xoshiro256, active *bitset.Bitset) []int32 {
	var order []int32
	for _, s := range seeds {
		if !active.TestAndSet(int(s)) {
			order = append(order, s)
		}
	}
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		for k := g.OutIndex[u]; k < g.OutIndex[u+1]; k++ {
			v := g.OutEdges[k]
			if !active.Test(int(v)) && r.Float32() < g.OutProb[k] {
				active.Set(int(v))
				order = append(order, v)
			}
		}
	}
	active.ClearList(order)
	return order
}

// FuzzSimulateICMatchesReference holds simulateIC to the reference loop
// on hand-written out-adjacency with duplicate out-edges and self-loops:
// same count, same activation order, same generator state, and the
// active bitmap clear after every run, over runs that reuse the scratch.
func FuzzSimulateICMatchesReference(f *testing.F) {
	f.Add(byte(200), byte(6), byte(255), byte(3), uint16(1)) // uniform probabilities: cascades reach most vertices
	f.Add(byte(200), byte(6), byte(60), byte(1), uint16(2))  // small cascades
	f.Add(byte(255), byte(8), byte(0), byte(2), uint16(3))   // weighted cascade around a hub
	f.Add(byte(0), byte(3), byte(255), byte(4), uint16(4))   // one vertex, repeated seeds
	f.Fuzz(func(t *testing.T, nByte, degByte, probScale, seedsByte byte, seed16 uint16) {
		n := int32(nByte) + 1
		g := edgeless(t, graph.IC, n)
		r := rng.New(uint64(seed16))
		hub := int32(-1)
		if probScale == 0 {
			hub = wcHub
		}
		g.OutIndex, g.OutEdges = handBuiltSegments(r, n, int(degByte%12), hub)
		g.OutProb = make([]float32, len(g.OutEdges))
		for u := int32(0); u < n; u++ {
			lo, hi := g.OutIndex[u], g.OutIndex[u+1]
			for k := lo; k < hi; k++ {
				if hub >= 0 {
					g.OutProb[k] = 1 / float32(hi-lo)
				} else {
					g.OutProb[k] = r.Float32() * float32(probScale) / 255
				}
			}
		}
		seeds := make([]int32, int(seedsByte%8)+1) // may repeat a vertex
		for i := range seeds {
			seeds[i] = int32(r.Intn(int(n)))
		}
		active, ref := bitset.New(int(n)), bitset.New(int(n))
		var frontier []int32
		var rf, rr rng.Xoshiro256
		rf.SeedStream(uint64(seed16), 1)
		rr = rf
		for run := 0; run < 20; run++ {
			frontier = simulateIC(g, seeds, &rf, active, frontier)
			want := simulateICReference(g, seeds, &rr, ref)
			if !slices.Equal(frontier, want) {
				t.Fatalf("run %d: activated %d %v, reference %d %v", run, len(frontier), frontier, len(want), want)
			}
			if rf != rr {
				t.Fatalf("run %d: generator state diverged after %d activations", run, len(frontier))
			}
			if active.Any() {
				t.Fatalf("run %d: active bitmap not clear after the run", run)
			}
		}
	})
}
