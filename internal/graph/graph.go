// Package graph implements the directed-graph substrate for influence
// maximization: a compressed sparse row (CSR) representation with both
// forward and transpose adjacency, per-edge diffusion parameters for the
// Independent Cascade and Linear Threshold models, text loaders for
// SNAP-style edge lists, and the structural analyses (degree statistics,
// strongly and weakly connected components) the paper uses to
// characterize its inputs.
//
// Reverse influence sampling traverses incoming edges, so the transpose
// CSR (InIndex/InEdges) is the hot structure; the forward CSR is kept for
// forward Monte-Carlo spread estimation and for graph generation.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Model selects the influence diffusion model.
type Model int

const (
	// IC is the Independent Cascade model: each activated vertex u has
	// one chance to activate each out-neighbor v with probability p(u,v).
	IC Model = iota
	// LT is the Linear Threshold model: vertex v activates when the
	// weight of its activated in-neighbors crosses a uniform threshold;
	// incoming weights sum to at most one.
	LT
)

func (m Model) String() string {
	switch m {
	case IC:
		return "IC"
	case LT:
		return "LT"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel converts "IC" or "LT" (case sensitive) to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "IC", "ic":
		return IC, nil
	case "LT", "lt":
		return LT, nil
	}
	return 0, fmt.Errorf("graph: unknown diffusion model %q (want IC or LT)", s)
}

// Graph is an immutable directed graph in CSR form. Vertices are dense
// int32 ids in [0, N). Both adjacency directions are materialized:
//
//	out-edges of u: OutEdges[OutIndex[u]:OutIndex[u+1]]
//	in-edges  of v: InEdges[InIndex[v]:InIndex[v+1]]
//
// InProb[k] carries the diffusion parameter of the k'th incoming edge:
// under IC it is the activation probability of edge (u→v); under LT it is
// the edge weight w(u,v) with sum over in-edges of v at most 1. InAccum
// is only populated for LT and holds the inclusive prefix sums of InProb
// within each vertex's in-edge segment, so a single uniform draw selects
// the "live" incoming edge in O(log indeg) — or none, when the draw lands
// beyond the total weight.
type Graph struct {
	N int32 // number of vertices
	M int64 // number of directed edges

	OutIndex []int64 // length N+1
	OutEdges []int32 // length M, sorted within each segment
	OutProb  []float32

	InIndex []int64 // length N+1
	InEdges []int32 // length M, sorted within each segment
	InProb  []float32
	InAccum []float32 // LT only: prefix sums of InProb per segment

	model Model

	// sum memoizes Checksum once sumOK is set. A graph is immutable once
	// it is handed to an engine; the in-place weight assigners (AssignIC,
	// AssignWC, AssignLT) clear sumOK.
	sum   atomic.Uint64
	sumOK atomic.Bool
}

// Model returns the diffusion model the edge parameters were built for.
func (g *Graph) Model() Model { return g.model }

// Checksum fingerprints the graph's full CSR content (shape, model,
// adjacency, and edge parameters) with FNV-1a over the array elements.
// Pool snapshots bind to it, so a snapshot whose (N, M, model, epoch)
// happen to match a different graph is still rejected at thaw. The
// O(N+M) pass runs once per graph object: every freeze, promotion and
// thaw of every pool on the graph reads the memo. Safe for concurrent
// use (racing first callers compute the same value).
func (g *Graph) Checksum() uint64 {
	if g.sumOK.Load() {
		return g.sum.Load()
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	mix(uint64(g.N))
	mix(uint64(g.M))
	mix(uint64(g.model))
	for _, x := range g.OutIndex {
		mix(uint64(x))
	}
	for _, v := range g.OutEdges {
		mix(uint64(uint32(v)))
	}
	for _, p := range g.OutProb {
		mix(uint64(math.Float32bits(p)))
	}
	for _, x := range g.InIndex {
		mix(uint64(x))
	}
	for _, v := range g.InEdges {
		mix(uint64(uint32(v)))
	}
	for _, p := range g.InProb {
		mix(uint64(math.Float32bits(p)))
	}
	for _, p := range g.InAccum {
		mix(uint64(math.Float32bits(p)))
	}
	g.sum.Store(h)
	g.sumOK.Store(true)
	return h
}

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u int32) int64 { return g.OutIndex[u+1] - g.OutIndex[u] }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v int32) int64 { return g.InIndex[v+1] - g.InIndex[v] }

// OutNeighbors returns the out-neighbor slice of u (do not modify).
func (g *Graph) OutNeighbors(u int32) []int32 {
	return g.OutEdges[g.OutIndex[u]:g.OutIndex[u+1]]
}

// InNeighbors returns the in-neighbor slice of v (do not modify).
func (g *Graph) InNeighbors(v int32) []int32 {
	return g.InEdges[g.InIndex[v]:g.InIndex[v+1]]
}

// HasEdge reports whether the directed edge (u, v) exists, by binary
// search over u's sorted out-segment.
func (g *Graph) HasEdge(u, v int32) bool {
	seg := g.OutNeighbors(u)
	i := sort.Search(len(seg), func(i int) bool { return seg[i] >= v })
	return i < len(seg) && seg[i] == v
}

// MemoryFootprintBytes returns the exact size of the CSR arrays. The
// harness uses this for the Twitter7 OOM analysis.
func (g *Graph) MemoryFootprintBytes() int64 {
	b := int64(len(g.OutIndex)+len(g.InIndex)) * 8
	b += int64(len(g.OutEdges)+len(g.InEdges)) * 4
	b += int64(len(g.OutProb)+len(g.InProb)+len(g.InAccum)) * 4
	return b
}

// Validate checks the CSR invariants. It is used by tests and by loaders
// before returning a graph to callers.
func (g *Graph) Validate() error {
	if int64(len(g.OutIndex)) != int64(g.N)+1 || int64(len(g.InIndex)) != int64(g.N)+1 {
		return fmt.Errorf("graph: index arrays have wrong length")
	}
	if g.OutIndex[0] != 0 || g.InIndex[0] != 0 {
		return fmt.Errorf("graph: index arrays must start at 0")
	}
	if g.OutIndex[g.N] != g.M || g.InIndex[g.N] != g.M {
		return fmt.Errorf("graph: index arrays must end at M=%d (got out=%d in=%d)", g.M, g.OutIndex[g.N], g.InIndex[g.N])
	}
	if int64(len(g.OutEdges)) != g.M || int64(len(g.InEdges)) != g.M {
		return fmt.Errorf("graph: edge arrays must have length M")
	}
	for u := int32(0); u < g.N; u++ {
		if g.OutIndex[u] > g.OutIndex[u+1] || g.InIndex[u] > g.InIndex[u+1] {
			return fmt.Errorf("graph: index arrays not monotone at %d", u)
		}
		seg := g.OutNeighbors(u)
		for i := 1; i < len(seg); i++ {
			if seg[i-1] >= seg[i] {
				return fmt.Errorf("graph: out-segment of %d not strictly sorted", u)
			}
		}
		iseg := g.InNeighbors(u)
		for i := 1; i < len(iseg); i++ {
			if iseg[i-1] >= iseg[i] {
				return fmt.Errorf("graph: in-segment of %d not strictly sorted", u)
			}
		}
	}
	for _, v := range g.OutEdges {
		if v < 0 || v >= g.N {
			return fmt.Errorf("graph: out-edge target %d out of range", v)
		}
	}
	for _, v := range g.InEdges {
		if v < 0 || v >= g.N {
			return fmt.Errorf("graph: in-edge source %d out of range", v)
		}
	}
	if g.model == LT {
		if int64(len(g.InAccum)) != g.M {
			return fmt.Errorf("graph: LT graph missing InAccum")
		}
		for v := int32(0); v < g.N; v++ {
			lo, hi := g.InIndex[v], g.InIndex[v+1]
			var sum float32
			for k := lo; k < hi; k++ {
				sum += g.InProb[k]
				if diff := g.InAccum[k] - sum; diff > 1e-4 || diff < -1e-4 {
					return fmt.Errorf("graph: InAccum mismatch at vertex %d", v)
				}
			}
			if sum > 1+1e-4 {
				return fmt.Errorf("graph: LT in-weights of %d sum to %f > 1", v, sum)
			}
		}
	}
	return nil
}

// Transpose returns the reverse graph: every edge (u,v) becomes (v,u),
// keeping its IC probability. Running IMM on the transpose answers the
// dual question — which vertices are most influenced — which is how
// outbreak-detection sensor placement maps onto influence maximization.
// Only IC graphs can be transposed: LT in-weight normalization does not
// survive edge reversal.
func (g *Graph) Transpose() (*Graph, error) {
	if g.model != IC {
		return nil, fmt.Errorf("graph: only IC graphs can be transposed (LT weights are direction-normalized)")
	}
	return &Graph{
		N:        g.N,
		M:        g.M,
		OutIndex: g.InIndex,
		OutEdges: g.InEdges,
		OutProb:  g.InProb,
		InIndex:  g.OutIndex,
		InEdges:  g.OutEdges,
		InProb:   g.OutProb,
		model:    IC,
	}, nil
}

// DegreeStats summarizes the degree distribution of a graph.
type DegreeStats struct {
	MaxOut, MaxIn   int64
	MeanOut, MeanIn float64
	// Gini of the out-degree distribution: 0 is perfectly even, values
	// near 1 indicate the heavy skew typical of social networks.
	GiniOut float64
	Zeros   int64 // vertices with neither in- nor out-edges
}

// Degrees computes degree statistics in one pass.
func (g *Graph) Degrees() DegreeStats {
	var st DegreeStats
	if g.N == 0 {
		return st
	}
	outs := make([]int64, g.N)
	var sumOut, sumIn int64
	for u := int32(0); u < g.N; u++ {
		od, id := g.OutDegree(u), g.InDegree(u)
		outs[u] = od
		sumOut += od
		sumIn += id
		if od > st.MaxOut {
			st.MaxOut = od
		}
		if id > st.MaxIn {
			st.MaxIn = id
		}
		if od == 0 && id == 0 {
			st.Zeros++
		}
	}
	st.MeanOut = float64(sumOut) / float64(g.N)
	st.MeanIn = float64(sumIn) / float64(g.N)
	sort.Slice(outs, func(i, j int) bool { return outs[i] < outs[j] })
	// Gini = (2*sum(i*x_i))/(n*sum(x)) - (n+1)/n with 1-based ranks.
	var weighted float64
	for i, x := range outs {
		weighted += float64(i+1) * float64(x)
	}
	if sumOut > 0 {
		n := float64(g.N)
		st.GiniOut = 2*weighted/(n*float64(sumOut)) - (n+1)/n
	}
	return st
}
