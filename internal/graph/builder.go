package graph

import (
	"fmt"
	"sort"

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
	g, err := b.buildTopology()
	if err != nil {
		return nil, err
	}
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

// buildTopology sorts, dedups and lays out both CSR directions.
func (b *Builder) buildTopology() (*Graph, error) {
	edges := b.edges
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
		N:        b.n,
		M:        m,
		OutIndex: make([]int64, b.n+1),
		OutEdges: make([]int32, m),
		InIndex:  make([]int64, b.n+1),
		InEdges:  make([]int32, m),
	}
	for _, e := range edges {
		g.OutIndex[e.Src+1]++
		g.InIndex[e.Dst+1]++
	}
	for i := int32(0); i < b.n; i++ {
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
	cursor := make([]int64, b.n)
	copy(cursor, g.InIndex[:b.n])
	for _, e := range edges {
		g.InEdges[cursor[e.Dst]] = e.Src
		cursor[e.Dst]++
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
		lo, hi := g.InIndex[v], g.InIndex[v+1]
		if hi == lo {
			continue
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
	mirrorInToOut(g)
}

// mirrorInToOut copies per-in-edge parameters onto the corresponding
// forward edges, using binary search over the sorted out-segments.
func mirrorInToOut(g *Graph) {
	for v := int32(0); v < g.N; v++ {
		for k := g.InIndex[v]; k < g.InIndex[v+1]; k++ {
			u := g.InEdges[k]
			seg := g.OutNeighbors(u)
			base := g.OutIndex[u]
			i := sort.Search(len(seg), func(i int) bool { return seg[i] >= v })
			g.OutProb[base+int64(i)] = g.InProb[k]
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
