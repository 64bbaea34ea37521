// Package diffusion implements the two sides of influence propagation:
//
//   - Reverse influence sampling (RIS): the probabilistic reverse
//     traversals that produce random reverse-reachable (RRR) sets, the
//     core of IMM's sampling phase. Under IC this is a probabilistic BFS
//     over incoming edges; under LT it is a random walk that picks at
//     most one live incoming edge per step (which is why LT RRR sets are
//     small and θ is large, as the paper observes).
//
//   - Forward Monte-Carlo simulation: estimates the expected spread
//     σ(S) of a seed set, used to validate seed quality and by the
//     examples to report campaign reach.
package diffusion

import (
	"sort"
	"sync"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Probe observes the memory operations of a sampler so engines can feed
// cost models (NUMA latency accounting, cache simulation). Index
// arguments are element indices into the respective logical arrays; the
// consumer maps them to addresses. A nil Probe disables instrumentation.
type Probe interface {
	// TouchVisited is called for every visited-bitmap word probe.
	TouchVisited(wordIdx int64)
	// TouchEdge is called for every CSR in-edge inspected.
	TouchEdge(edgeIdx int64)
	// TouchOutput is called for every vertex appended to the RRR set.
	TouchOutput(i int64)
}

// Sampler holds the per-worker scratch state for RRR generation: a
// visited bitmap and a BFS queue, reused across millions of samples.
// Each worker owns one Sampler; none of its methods are safe for
// concurrent use.
//
// The BFS queue already is the member list in discovery order, so
// Traverse returns the sampler's own queue; nothing is copied or called
// back per member. The members' visited bits stay set until the caller
// ends the set with Release (clear them) or TakeBitmap (take the visited
// words as the set's bitmap row), so a set stored as a bitmap never pays
// a per-member set or clear. There is one traversal per model, plus the
// instrumented loop taken when Probe is set, which draws the same random
// numbers in the same order and is the fast paths' differential oracle.
type Sampler struct {
	G     *graph.Graph
	Probe Probe

	visited *bitset.Bitset
	queue   []int32 // len == cap; queue[:held] are the live set's members
	held    int     // members whose visited bits are still set
	surv    []int32 // dense IC scan: segment offsets of unvisited in-neighbours

	// EdgesVisited counts in-edges examined, the sampling-phase work
	// metric used by the modeled runtime.
	EdgesVisited int64
}

// NewSampler returns a sampler with scratch sized for g.
func NewSampler(g *graph.Graph) *Sampler {
	return &Sampler{G: g, visited: bitset.New(int(g.N)), queue: make([]int32, 1024)}
}

// Sample generates one RRR set rooted at root, appending the members to
// out (BFS/walk discovery order, root first) and returning the extended
// slice. The graph's model selects the traversal.
func (s *Sampler) Sample(r *rng.Xoshiro256, root int32, out []int32) []int32 {
	out = append(out, s.Traverse(r, root)...)
	s.Release()
	return out
}

// SampleUniformRoot draws a uniform root and delegates to Sample.
func (s *Sampler) SampleUniformRoot(r *rng.Xoshiro256, out []int32) []int32 {
	return s.Sample(r, int32(r.Uint32n(uint32(s.G.N))), out)
}

// Traverse generates one RRR set rooted at root and returns its members
// in discovery order (root first, each vertex exactly once). The slice
// is the sampler's queue: valid until the next traversal, and the caller
// may reorder it. End the set with Release or TakeBitmap.
func (s *Sampler) Traverse(r *rng.Xoshiro256, root int32) []int32 {
	if s.held != 0 {
		panic("diffusion: Traverse before the previous set was released")
	}
	switch {
	case s.Probe != nil:
		s.held = s.traverseProbed(r, root)
	case s.G.Model() == graph.LT:
		s.held = s.traverseLT(r, root)
	default:
		s.held = s.traverseIC(r, root)
	}
	return s.queue[:s.held]
}

// TraverseUniformRoot draws a uniform root (the draw SampleUniformRoot
// makes) and delegates to Traverse.
func (s *Sampler) TraverseUniformRoot(r *rng.Xoshiro256) []int32 {
	return s.Traverse(r, int32(r.Uint32n(uint32(s.G.N))))
}

// Release ends the current set by clearing its members' visited bits.
func (s *Sampler) Release() {
	s.visited.ClearMany(s.queue[:s.held])
	s.held = 0
}

// TakeBitmap ends the current set by appending a copy of the visited
// words — the set's bitmap row over the graph's vertices — to dst, and
// clearing the visited bitmap by word.
func (s *Sampler) TakeBitmap(dst []uint64) []uint64 {
	vis := s.visited.Words()
	dst = append(dst, vis...)
	clear(vis)
	s.held = 0
	return dst
}

// room returns the queue with space for need members, contents kept.
func (s *Sampler) room(need int) []int32 {
	if need > len(s.queue) {
		s.queue = append(s.queue, make([]int32, need-len(s.queue))...)
		s.queue = s.queue[:cap(s.queue)]
	}
	return s.queue
}

// denseFillShift sets where the IC scan changes shape: a set is dense
// once it holds more than 1/2^denseFillShift of the vertices.
const denseFillShift = 4

// traverseIC runs a probabilistic BFS over incoming edges: an
// in-neighbor u of an activated vertex w joins with probability p(u,w),
// matching Algorithm 3 of the paper (lines 1-13). The generator state
// lives in locals for the length of the set.
//
// One in-segment is scanned in one of two shapes. While the set is
// sparse nearly every in-neighbour is unvisited and the plain loop's
// visited branch is predictable. Once it is dense that branch is a coin
// flip, so a branch-free filter first compacts the offsets of the
// in-neighbours whose visited bit is clear, then only those survivors
// are drawn for and committed without a data-dependent branch. Either
// way an edge draws iff its source is unvisited at its turn in edge
// order (the second pass re-tests the bit, so a duplicate in-edge still
// sees its first copy's outcome): both shapes consume the random stream
// identically.
func (s *Sampler) traverseIC(r *rng.Xoshiro256, root int32) int {
	g := s.G
	inIndex, inEdges, inProb := g.InIndex, g.InEdges, g.InProb
	vis := s.visited.Words()
	dense := int(g.N)>>denseFillShift + 1
	x := *r
	q := s.queue
	q[0] = root
	vis[root>>6] |= 1 << uint(root&63)
	qlen := 1
	var edges int64
	for qi := 0; qi < qlen; qi++ {
		w := q[qi]
		lo, hi := inIndex[w], inIndex[w+1]
		edges += hi - lo
		if qlen+int(hi-lo) > len(q) {
			q = s.room(qlen + int(hi-lo))
		}
		if qlen < dense {
			for k := lo; k < hi; k++ {
				u := inEdges[k]
				if vis[u>>6]>>uint(u&63)&1 != 0 {
					continue
				}
				if x.Float32() < inProb[k] {
					vis[u>>6] |= 1 << uint(u&63)
					q[qlen] = u
					qlen++
				}
			}
			continue
		}
		seg, prob := inEdges[lo:hi], inProb[lo:hi]
		if len(seg) > len(s.surv) {
			s.surv = make([]int32, 2*len(seg))
		}
		surv := s.surv[:len(seg)]
		nc := unvisited(vis, seg, surv)
		for _, j := range surv[:nc] {
			u := seg[j]
			word, bit := vis[u>>6], uint(u&63)
			if word>>bit&1 != 0 {
				continue // an earlier copy of this in-edge was just admitted
			}
			var acc uint64
			if x.Float32() < prob[j] {
				acc = 1
			}
			q[qlen] = u
			qlen += int(acc)
			vis[u>>6] = word | acc<<bit
		}
	}
	*r = x
	s.EdgesVisited += edges
	return qlen
}

// unvisited compacts into surv the offsets within seg of the vertices
// whose visited bit is clear, in order, and returns how many there are.
// surv must be at least as long as seg. Kept out of line: inlined into
// traverseIC its counters spill to the stack, which costs the dense scan
// a quarter of its speed.
//
//go:noinline
func unvisited(vis []uint64, seg, surv []int32) int {
	nc := 0
	for j, u := range seg {
		surv[nc] = int32(j)
		nc += int(^(vis[u>>6] >> uint(u&63)) & 1)
	}
	return nc
}

// traverseLT runs the reverse live-edge walk: each vertex picks at most
// one incoming edge (probability proportional to its LT weight, none
// with the residual probability), and the walk follows picks until it
// stalls or revisits. Sets average under two members, so the wall here
// is per-set overhead: no callbacks, generator in locals.
func (s *Sampler) traverseLT(r *rng.Xoshiro256, root int32) int {
	g := s.G
	inIndex, inEdges, inAccum := g.InIndex, g.InEdges, g.InAccum
	vis := s.visited.Words()
	x := *r
	q := s.queue
	q[0] = root
	vis[root>>6] |= 1 << uint(root&63)
	qlen := 1
	var edges int64
	for w := root; ; {
		lo, hi := inIndex[w], inIndex[w+1]
		if hi == lo {
			break
		}
		// One uniform draw against the inclusive prefix sums selects the
		// live in-edge; a draw beyond the total weight selects none.
		d := float32(x.Float64())
		if d >= inAccum[hi-1] {
			edges++ // the draw still reads the segment header
			break
		}
		// Upper bound: the first prefix sum above d.
		seg := inAccum[lo:hi]
		i, j := 0, len(seg)
		for i < j {
			h := int(uint(i+j) >> 1)
			if seg[h] > d {
				j = h
			} else {
				i = h + 1
			}
		}
		edges += int64(i) + 1
		u := inEdges[lo+int64(i)]
		if vis[u>>6]>>uint(u&63)&1 != 0 {
			break
		}
		vis[u>>6] |= 1 << uint(u&63)
		if qlen == len(q) {
			q = s.room(2 * qlen)
		}
		q[qlen] = u
		qlen++
		w = u
	}
	*r = x
	s.EdgesVisited += edges
	return qlen
}

// traverseProbed is both traversals written the straightforward way
// around one candidate loop, reporting every memory touch to the Probe.
// It feeds the NUMA and cache models (internal/imm/instrument.go) and is
// the reference the fast paths are fuzzed against: same members in the
// same order, same draws, same EdgesVisited.
func (s *Sampler) traverseProbed(r *rng.Xoshiro256, root int32) int {
	g, p, lt := s.G, s.Probe, s.G.Model() == graph.LT
	s.visited.Set(int(root))
	p.TouchVisited(int64(root) / 64)
	p.TouchOutput(0)
	q := append(s.queue[:0], root)
	for qi := 0; qi < len(q); qi++ {
		lo, hi := g.InIndex[q[qi]], g.InIndex[q[qi]+1]
		if !lt {
			s.EdgesVisited += hi - lo // IC: every in-edge is a candidate
		} else if hi > lo {
			// LT: one draw against the prefix sums leaves one candidate,
			// taken without a further draw, or none. The walk ends when
			// a step admits nothing.
			d := float32(r.Float64())
			seg := g.InAccum[lo:hi]
			j := int64(sort.Search(len(seg), func(i int) bool { return seg[i] > d }))
			if j == hi-lo {
				s.EdgesVisited++ // the draw still reads the segment header
				break
			}
			s.EdgesVisited += j + 1
			lo, hi = lo+j, lo+j+1
		}
		for k := lo; k < hi; k++ {
			u := g.InEdges[k]
			p.TouchEdge(k)
			p.TouchVisited(int64(u) / 64)
			if !s.visited.Test(int(u)) && (lt || r.Float32() < g.InProb[k]) {
				s.visited.Set(int(u))
				p.TouchOutput(int64(len(q)))
				q = append(q, u)
			}
		}
	}
	s.queue = q[:cap(q)]
	return len(q)
}

// CoverageStats reports RRR-set size statistics for Table I.
type CoverageStats struct {
	Samples     int
	AvgSize     float64
	MaxSize     int
	AvgCoverage float64 // AvgSize / N
	MaxCoverage float64 // MaxSize / N
	TotalEdges  int64   // traversal work
}

// MeasureCoverage draws samples RRR sets with workers parallel samplers
// and summarizes their sizes. It reproduces the Average/Max RRRset
// Coverage columns of Table I.
func MeasureCoverage(g *graph.Graph, samples, workers int, seed uint64) CoverageStats {
	if workers < 1 {
		workers = 1
	}
	type partial struct {
		count int
		sum   int64
		max   int
		edges int64
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewSampler(g)
			r := rng.NewStream(seed, w)
			for i := w; i < samples; i += workers {
				size := len(s.TraverseUniformRoot(r))
				s.Release()
				parts[w].count++
				parts[w].sum += int64(size)
				if size > parts[w].max {
					parts[w].max = size
				}
			}
			parts[w].edges = s.EdgesVisited
		}(w)
	}
	wg.Wait()
	var st CoverageStats
	var sum int64
	for _, p := range parts {
		st.Samples += p.count
		sum += p.sum
		if p.max > st.MaxSize {
			st.MaxSize = p.max
		}
		st.TotalEdges += p.edges
	}
	if st.Samples > 0 {
		st.AvgSize = float64(sum) / float64(st.Samples)
	}
	if g.N > 0 {
		st.AvgCoverage = st.AvgSize / float64(g.N)
		st.MaxCoverage = float64(st.MaxSize) / float64(g.N)
	}
	return st
}
