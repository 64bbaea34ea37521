package graph

import (
	"fmt"
	"slices"

	"repro/internal/rng"
)

// Edge is a directed edge used during graph construction.
type Edge struct {
	Src, Dst int32
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are dropped, matching the preprocessing applied to
// the SNAP datasets in the paper's artifact.
type Builder struct {
	n     int32
	edges []Edge
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int32) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the directed edge (src, dst). Out-of-range endpoints
// panic: edges come from our own generators and loaders, which validate
// inputs, so a bad id here is a programming error.
func (b *Builder) AddEdge(src, dst int32) {
	if src < 0 || src >= b.n || dst < 0 || dst >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.n))
	}
	b.edges = append(b.edges, Edge{src, dst})
}

// AddUndirected records both directions of an undirected edge, mirroring
// how the paper treats the undirected SNAP community graphs.
func (b *Builder) AddUndirected(a, c int32) {
	b.AddEdge(a, c)
	b.AddEdge(c, a)
}

// EdgeCount returns the number of edges recorded so far (before dedup).
func (b *Builder) EdgeCount() int { return len(b.edges) }

// Build finalizes the CSR arrays and attaches diffusion parameters for
// model using the given seed. See AssignIC and AssignLT for the weighting
// schemes.
func (b *Builder) Build(model Model, seed uint64) (*Graph, error) {
	// BuildTopology consumes its input; the builder keeps its edges.
	g, _, _ := BuildTopology(b.n, slices.Clone(b.edges), 1)
	switch model {
	case IC:
		AssignIC(g, seed)
	case LT:
		AssignLT(g, seed)
	default:
		return nil, fmt.Errorf("graph: unknown model %v", model)
	}
	return g, nil
}

// AssignIC attaches Independent Cascade probabilities: each directed edge
// gets an independent uniform [0,1) probability, the scheme the paper's
// evaluation uses ("we simulate the IC diffusion model by assigning
// uniformly random [0,1] edge probabilities"). Probabilities are drawn
// per incoming edge and mirrored to the forward direction so the two CSR
// views agree edge-for-edge.
func AssignIC(g *Graph, seed uint64) {
	g.sumOK.Store(false)
	g.model = IC
	g.InProb = make([]float32, g.M)
	g.OutProb = make([]float32, g.M)
	g.InAccum = nil
	r := rng.New(seed)
	for k := range g.InProb {
		g.InProb[k] = r.Float32()
	}
	mirrorInToOut(g)
}

// AssignWC attaches Weighted Cascade probabilities, the classic
// benchmark alternative where p(u,v) = 1/indeg(v). It exercises the same
// code paths as AssignIC with a different sparsity profile and is used by
// ablation experiments.
func AssignWC(g *Graph) {
	g.sumOK.Store(false)
	g.model = IC
	g.InProb = make([]float32, g.M)
	g.OutProb = make([]float32, g.M)
	g.InAccum = nil
	for v := int32(0); v < g.N; v++ {
		lo, hi := g.InIndex[v], g.InIndex[v+1]
		if hi == lo {
			continue
		}
		p := float32(1) / float32(hi-lo)
		for k := lo; k < hi; k++ {
			g.InProb[k] = p
		}
	}
	mirrorInToOut(g)
}

// AssignLT attaches Linear Threshold weights: for each vertex v the
// incoming weights are drawn uniformly and normalized so that activating
// a neighbor or activating none partitions the unit interval — i.e. the
// weights sum to s in (0,1] and the no-activation mass is 1-s, matching
// the paper's "weights are adjusted so that the probabilities of either
// activating a neighbor or activating none sum to one".
func AssignLT(g *Graph, seed uint64) {
	g.sumOK.Store(false)
	g.model = LT
	g.InProb = make([]float32, g.M)
	g.OutProb = make([]float32, g.M)
	g.InAccum = make([]float32, g.M)
	r := rng.New(seed)
	for v := int32(0); v < g.N; v++ {
		drawLTSegment(g, v, r)
	}
	mirrorInToOut(g)
}

// drawLTSegment draws v's incoming LT weights and their prefix sums
// from r. ApplyDelta re-derives a dirty segment with it, from a stream
// of that vertex's own.
func drawLTSegment(g *Graph, v int32, r *rng.Xoshiro256) {
	lo, hi := g.InIndex[v], g.InIndex[v+1]
	if hi == lo {
		return
	}
	var sum float64
	for k := lo; k < hi; k++ {
		w := r.Float64()
		g.InProb[k] = float32(w)
		sum += w
	}
	// Scale so total incoming weight lands uniformly in (0, 1]: the
	// normalizer is sum / target where target = r in (0,1].
	target := r.Float64()
	if target == 0 {
		target = 1
	}
	scale := float32(target / sum)
	var acc float32
	for k := lo; k < hi; k++ {
		g.InProb[k] *= scale
		acc += g.InProb[k]
		g.InAccum[k] = acc
	}
}

// mirrorInToOut copies per-in-edge parameters onto the corresponding
// forward edges. Both directions are sorted, so visiting destinations in
// ascending order meets every source's out-edges in segment order: one
// cursor per source, no search.
func mirrorInToOut(g *Graph) {
	cur := slices.Clone(g.OutIndex[:g.N])
	for v := int32(0); v < g.N; v++ {
		for k := g.InIndex[v]; k < g.InIndex[v+1]; k++ {
			u := g.InEdges[k]
			g.OutProb[cur[u]] = g.InProb[k]
			cur[u]++
		}
	}
}

// FromEdges is a convenience constructor used heavily by tests: build a
// graph over n vertices from an explicit edge list.
func FromEdges(n int32, edges []Edge, model Model, seed uint64) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.Build(model, seed)
}
