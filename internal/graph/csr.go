package graph

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/sched"
)

// BuildTopology lays out both CSR directions of an edge set over n
// vertices, without diffusion parameters: the one construction path
// under Builder and the parallel ingestion pipeline (internal/ingest),
// which attach weights afterwards through AssignIC/AssignLT. Self-loops
// and duplicate edges are dropped and counted.
//
// It runs counting-sort scatters only. Reversing the list twice, each
// time stably sorted by the new source (reverseSorted), leaves it
// sorted by (src, dst), where duplicates are adjacent; a list that
// arrives in that order (the ingest pipeline's merge writes it so)
// skips both passes. Reversing the compacted list once more sorts it by
// (dst, src), which is the transpose. Every array of the result is
// allocated once, at its exact size. edges is consumed as scratch, in
// any order; endpoints must lie in [0, n). The result is a pure
// function of the edge set, whatever workers is.
func BuildTopology(n int32, edges []Edge, workers int) (g *Graph, selfLoops, duplicates int64) {
	workers = max(workers, 1)
	a, b := edges, make([]Edge, len(edges))
	if !sortedBySrcDst(a, workers) {
		reverseSorted(n, a, b, workers)
		reverseSorted(n, a, b, workers)
	}

	// Compact a into b. A record's fate depends only on its sorted
	// predecessor, so ranges count, then write, independently.
	kept := make([]int64, workers+1)
	loops := make([]int64, workers)
	sched.Static(workers, len(a), func(w, lo, hi int) {
		var k, l int64
		for i := lo; i < hi; i++ {
			if e := a[i]; e.Src == e.Dst {
				l++
			} else if i == 0 || e != a[i-1] {
				k++
			}
		}
		kept[w+1], loops[w] = k, l
	})
	for w := 0; w < workers; w++ {
		kept[w+1] += kept[w]
		selfLoops += loops[w]
	}
	m := kept[workers]
	sched.Static(workers, len(a), func(w, lo, hi int) {
		at := kept[w]
		for i := lo; i < hi; i++ {
			if e := a[i]; e.Src != e.Dst && (i == 0 || e != a[i-1]) {
				b[at] = e
				at++
			}
		}
	})

	g = &Graph{N: n, M: m}
	g.OutIndex, g.OutEdges = layout(n, b[:m], workers)
	reverseSorted(n, b[:m], a[:m], workers)
	g.InIndex, g.InEdges = layout(n, b[:m], workers)
	return g, selfLoops, int64(len(edges)) - selfLoops - m
}

// sortedBySrcDst reports whether edges are in (src, dst) order. Each
// worker reads its range, and the edge before it, up to the first
// descent, so an unsorted list costs a few reads per worker.
func sortedBySrcDst(edges []Edge, workers int) bool {
	var unsorted atomic.Bool
	sched.Static(workers, len(edges), func(_, lo, hi int) {
		for i := max(lo, 1); i < hi; i++ {
			if p, e := edges[i-1], edges[i]; e.Src < p.Src || e.Src == p.Src && e.Dst < p.Dst {
				unsorted.Store(true)
				return
			}
		}
	})
	return !unsorted.Load()
}

// reverseSorted reverses every edge of a and sorts the result stably by
// its new source; the result lands back in a, with b as scratch. It is
// a counting sort in two levels. Each worker first scatters its share
// of a into b by the top bits of the key, at most 256 buckets; each
// bucket — one key range, one run of b — is then counting-sorted back
// into its own run of a. A worker takes buckets as it finishes them, so
// skewed degrees do not idle the others, and its one cursor table spans
// a bucket's key range, never n: small enough to stay in cache.
func reverseSorted(n int32, a, b []Edge, workers int) {
	if len(a) == 0 {
		return
	}
	shift := max(0, bits.Len32(uint32(n-1))-8)
	nb := int(uint32(n-1)>>shift) + 1
	parts := min(workers, len(a))
	cur := make([]int, parts*nb) // cur[p*nb+q]: part p's cursor into bucket q
	sched.Static(parts, len(a), func(p, lo, hi int) {
		for _, e := range a[lo:hi] {
			cur[p*nb+int(e.Dst>>shift)]++
		}
	})
	start := make([]int, nb+1)
	for q, at := 0, 0; q < nb; q++ {
		for p := 0; p < parts; p++ {
			cur[p*nb+q], at = at, at+cur[p*nb+q]
		}
		start[q+1] = at
	}
	sched.Static(parts, len(a), func(p, lo, hi int) {
		c := cur[p*nb : (p+1)*nb]
		for _, e := range a[lo:hi] {
			q := e.Dst >> shift
			b[c[q]] = e
			c[q]++
		}
	})
	tables := make([][]int, workers)
	sched.Dynamic(workers, nb, 1, func(w, q, _ int) {
		if tables[w] == nil {
			tables[w] = make([]int, 1<<shift+1)
		}
		in, out, c := b[start[q]:start[q+1]], a[start[q]:start[q+1]], tables[w]
		clear(c)
		lo := int32(q) << shift
		for _, e := range in {
			c[e.Dst-lo+1]++
		}
		for k := 1; k < len(c); k++ {
			c[k] += c[k-1]
		}
		for _, e := range in {
			out[c[e.Dst-lo]] = Edge{Src: e.Dst, Dst: e.Src}
			c[e.Dst-lo]++
		}
	})
}

// layout splits edges sorted by Src into a CSR index and adjacency
// array. Index cell u is written by whoever holds the first edge with
// Src >= u, so ranges of edges never write the same cell.
func layout(n int32, sorted []Edge, workers int) ([]int64, []int32) {
	index, adj := make([]int64, n+1), make([]int32, len(sorted))
	sched.Static(workers, len(sorted), func(_, lo, hi int) {
		next := int32(0) // first index cell not yet written
		if lo > 0 {
			next = sorted[lo-1].Src + 1
		}
		for i := lo; i < hi; i++ {
			for ; next <= sorted[i].Src; next++ {
				index[next] = int64(i)
			}
			adj[i] = sorted[i].Dst
		}
	})
	next := int32(0)
	if len(sorted) > 0 {
		next = sorted[len(sorted)-1].Src + 1
	}
	for ; next <= n; next++ {
		index[next] = int64(len(sorted))
	}
	return index, adj
}

// FromCSR assembles a complete Graph — topology plus per-edge diffusion
// parameters — from prebuilt arrays. It is the constructor the snapshot
// reader uses: the stored weights are adopted verbatim instead of being
// re-drawn, which is what makes a snapshot reload reproduce the exact
// graph (and therefore the exact seeds) of the original ingestion. For
// IC, inAccum must be empty; for LT it must hold the per-segment prefix
// sums of inProb. All invariants are validated before the graph is
// returned.
func FromCSR(model Model, n int32, m int64, outIndex []int64, outEdges []int32, outProb []float32, inIndex []int64, inEdges []int32, inProb []float32, inAccum []float32) (*Graph, error) {
	if model != IC && model != LT {
		return nil, fmt.Errorf("graph: unknown model %v", model)
	}
	if int64(len(outProb)) != m || int64(len(inProb)) != m {
		return nil, fmt.Errorf("graph: probability arrays must have length M=%d (got out=%d in=%d)", m, len(outProb), len(inProb))
	}
	switch model {
	case IC:
		if len(inAccum) != 0 {
			return nil, fmt.Errorf("graph: IC graph must not carry InAccum")
		}
		inAccum = nil
	case LT:
		if int64(len(inAccum)) != m {
			return nil, fmt.Errorf("graph: LT graph needs InAccum of length M=%d, got %d", m, len(inAccum))
		}
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative shape n=%d m=%d", n, m)
	}
	g := &Graph{
		N: n, M: m, model: model,
		OutIndex: outIndex, OutEdges: outEdges, OutProb: outProb,
		InIndex: inIndex, InEdges: inEdges, InProb: inProb, InAccum: inAccum,
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Equal reports whether two graphs are byte-identical: same model, same
// CSR arrays, same per-edge parameters. This is the property the
// ingestion tests pin across worker counts and snapshot round trips —
// not isomorphism, exact array equality.
func Equal(a, b *Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.N != b.N || a.M != b.M || a.model != b.model {
		return false
	}
	return eqI64(a.OutIndex, b.OutIndex) && eqI32(a.OutEdges, b.OutEdges) && eqF32(a.OutProb, b.OutProb) &&
		eqI64(a.InIndex, b.InIndex) && eqI32(a.InEdges, b.InEdges) && eqF32(a.InProb, b.InProb) &&
		eqF32(a.InAccum, b.InAccum)
}

func eqI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Bit-identity, not numeric closeness: snapshots store the exact
		// float32 payload.
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
