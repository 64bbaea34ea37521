package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/rng"
)

// Delta is a batch of edge additions and removals to apply to an
// immutable Graph. Applying a delta never mutates the input graph; it
// produces a fresh Graph (a new "epoch" in the serving layer's terms)
// whose untouched per-edge parameters are carried over verbatim — that
// carry-over is what makes incremental warm-pool repair meaningful,
// because a from-scratch reweighting would perturb every edge.
//
// Weight policy for changed edges:
//
//   - IC: an added edge keeps its explicit probability from AddProb
//     when provided, otherwise it gets a probability derived
//     deterministically from (Seed, src, dst) — independent of the
//     order edges appear in the delta or of any other edge.
//   - LT: the whole in-segment of every touched vertex is re-derived
//     with AssignLT's per-segment scheme from a per-vertex stream of
//     (Seed, dst), keeping the "activate a neighbor or none" partition
//     invariant; AddProb is ignored. Untouched segments keep their
//     exact weights and prefix sums.
type Delta struct {
	// Add lists directed edges to insert. Endpoints at or beyond the
	// current vertex count grow the graph (CSR growth).
	Add []Edge
	// AddProb optionally carries explicit IC probabilities aligned
	// with Add (len 0 or len(Add)). Ignored for LT graphs.
	AddProb []float32
	// Remove lists directed edges to delete.
	Remove []Edge
	// Seed drives the deterministic weight derivation for added edges
	// (IC) and re-weighted segments (LT).
	Seed uint64
}

// DeltaOptions controls how ApplyDelta treats dirty input.
type DeltaOptions struct {
	// Strict mirrors ingest.DedupeStrict: fail on self-loops,
	// duplicate additions (within the delta or against the graph), and
	// removals of absent edges, instead of silently dropping them.
	Strict bool
}

// DeltaReport describes what ApplyDelta actually did. Dirty is the
// invalidation set the pool-repair machinery consumes: a vertex is
// dirty iff its in-segment changed (membership or weights), which — by
// the sampling argument in DESIGN.md — is exactly the condition under
// which an RRR set containing it must be resampled.
type DeltaReport struct {
	OldN, NewN int32
	OldM, NewM int64
	// Added and Removed count edges actually applied, after dropping
	// self-loops, duplicates, and absent removals.
	Added, Removed int64
	// DroppedSelfLoops, DroppedDuplicates, and MissingRemovals count
	// delta entries ignored in non-strict mode.
	DroppedSelfLoops, DroppedDuplicates, MissingRemovals int64
	// Dirty lists, in ascending order, the vertices whose in-segment
	// changed. When the delta grew the graph (NewN > OldN) every pool
	// slot is invalid regardless of Dirty — the root draw depends on N.
	Dirty []int32
}

// Changed reports whether the delta had any effect on the graph.
func (r *DeltaReport) Changed() bool {
	return r.Added > 0 || r.Removed > 0 || r.NewN != r.OldN
}

// deltaEdge is one normalized change as one CSR direction sees it: key
// is the vertex whose segment it lands in (dst for the in-direction,
// src for the out-direction), other the entry within that segment.
type deltaEdge struct {
	key, other int32
	prob       float32 // in-direction additions under IC: explicit, else derived
}

func compareDeltaEdges(a, b deltaEdge) int {
	return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.other, b.other))
}

// ApplyDelta applies d to g and returns the post-delta graph and a
// report. The input graph is never mutated; when the delta turns out
// to be a no-op the input graph itself is returned (same pointer) with
// report.Changed() == false. Added edges may reference vertices beyond
// g.N, growing the vertex set; removals of out-of-range or absent
// edges are errors under Strict and counted otherwise.
func ApplyDelta(g *Graph, d Delta, opt DeltaOptions) (*Graph, *DeltaReport, error) {
	if len(d.AddProb) != 0 && len(d.AddProb) != len(d.Add) {
		return nil, nil, fmt.Errorf("graph: delta AddProb length %d does not match Add length %d", len(d.AddProb), len(d.Add))
	}
	rep := &DeltaReport{OldN: g.N, NewN: g.N, OldM: g.M}

	// Normalize additions: reject malformed input, drop (or reject)
	// self-loops, attach explicit probabilities, compute vertex growth.
	adds := make([]deltaEdge, 0, len(d.Add))
	for i, e := range d.Add {
		if e.Src < 0 || e.Dst < 0 {
			return nil, nil, fmt.Errorf("graph: delta add (%d,%d) has a negative endpoint", e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			if opt.Strict {
				return nil, nil, fmt.Errorf("graph: delta add (%d,%d) is a self-loop", e.Src, e.Dst)
			}
			rep.DroppedSelfLoops++
			continue
		}
		// Without an explicit probability the edge gets the one derived
		// from its identity, here and now: nothing downstream has to tell
		// "derive me" from a value.
		ae := deltaEdge{key: e.Dst, other: e.Src, prob: derivedProb(d.Seed, e.Src, e.Dst)}
		if len(d.AddProb) != 0 {
			// Written so that NaN, which compares false both ways, fails.
			if ae.prob = d.AddProb[i]; !(ae.prob >= 0 && ae.prob <= 1) {
				return nil, nil, fmt.Errorf("graph: delta add (%d,%d) probability %g outside [0,1]", e.Src, e.Dst, ae.prob)
			}
		}
		adds = append(adds, ae)
		rep.NewN = max(rep.NewN, e.Src+1, e.Dst+1)
	}

	// Normalize removals into the sorted set of edges that actually
	// exist. Duplicated removals of one edge collapse silently — the
	// net effect is identical.
	removes := make([]deltaEdge, 0, len(d.Remove))
	for _, e := range d.Remove {
		if e.Src < 0 || e.Dst < 0 {
			return nil, nil, fmt.Errorf("graph: delta remove (%d,%d) has a negative endpoint", e.Src, e.Dst)
		}
		if e.Src >= g.N || e.Dst >= g.N || !g.HasEdge(e.Src, e.Dst) {
			if opt.Strict {
				return nil, nil, fmt.Errorf("graph: delta removes absent edge (%d,%d)", e.Src, e.Dst)
			}
			rep.MissingRemovals++
			continue
		}
		removes = append(removes, deltaEdge{key: e.Dst, other: e.Src})
	}
	slices.SortFunc(removes, compareDeltaEdges)
	removes = slices.Compact(removes)

	// Dedup additions against each other and against surviving graph
	// edges: an edge both removed and re-added in one delta is a
	// reweight, not a duplicate.
	sort.Slice(adds, func(i, j int) bool { return compareDeltaEdges(adds[i], adds[j]) < 0 })
	kept := adds[:0]
	for i, ae := range adds {
		dup := i > 0 && compareDeltaEdges(ae, adds[i-1]) == 0
		if !dup && ae.other < g.N && ae.key < g.N && g.HasEdge(ae.other, ae.key) {
			_, removed := slices.BinarySearchFunc(removes, ae, compareDeltaEdges)
			dup = !removed
		}
		if dup {
			if opt.Strict {
				return nil, nil, fmt.Errorf("graph: delta adds duplicate edge (%d,%d)", ae.other, ae.key)
			}
			rep.DroppedDuplicates++
			continue
		}
		kept = append(kept, ae)
	}
	adds = kept
	rep.Added = int64(len(adds))
	rep.Removed = int64(len(removes))
	rep.NewM = g.M - rep.Removed + rep.Added

	if rep.Added == 0 && rep.Removed == 0 && rep.NewN == g.N {
		return g, rep, nil
	}

	ng, err := nextEpoch(g, adds, removes, d.Seed, rep)
	if err != nil {
		return nil, nil, err
	}
	if err := ng.Validate(); err != nil {
		return nil, nil, fmt.Errorf("graph: post-delta graph invalid: %w", err)
	}
	return ng, rep, nil
}

// nextEpoch assembles the post-delta graph by run copy (csrSide.patch)
// and records the dirty vertices — those whose in-segment changed. An
// untouched segment keeps its parameters bit for bit in both
// directions. A dirty in-segment gets the additions' probabilities
// under IC and is re-derived whole under LT, AssignLT-style from a
// stream keyed by (seed, v) — deterministic whatever else the delta
// touched; only those segments are then mirrored onto OutProb, one
// search per edge of a dirty segment.
func nextEpoch(g *Graph, adds, removes []deltaEdge, seed uint64, rep *DeltaReport) (*Graph, error) {
	n, m := rep.NewN, rep.NewM
	ng := &Graph{
		N: n, M: m, model: g.model,
		OutIndex: make([]int64, n+1), OutEdges: make([]int32, m), OutProb: make([]float32, m),
		InIndex: make([]int64, n+1), InEdges: make([]int32, m), InProb: make([]float32, m),
	}
	if g.model == LT {
		ng.InAccum = make([]float32, m)
	}
	flip := func(es []deltaEdge) []deltaEdge {
		out := make([]deltaEdge, len(es))
		for i, e := range es {
			out[i] = deltaEdge{key: e.other, other: e.key}
		}
		slices.SortFunc(out, compareDeltaEdges)
		return out
	}
	in := csrSide{ng.InIndex, ng.InEdges, ng.InProb, ng.InAccum}
	out := csrSide{ng.OutIndex, ng.OutEdges, ng.OutProb, nil}
	var inM, outM int64
	rep.Dirty, inM = in.patch(csrSide{g.InIndex, g.InEdges, g.InProb, g.InAccum}, adds, removes)
	_, outM = out.patch(csrSide{g.OutIndex, g.OutEdges, g.OutProb, nil}, flip(adds), flip(removes))
	if inM != m || outM != m {
		return nil, fmt.Errorf("graph: delta edge accounting mismatch: in %d, out %d, want %d", inM, outM, m)
	}
	for _, v := range rep.Dirty {
		if g.model == LT {
			drawLTSegment(ng, v, rng.NewStream(seed, int(v)))
		}
		for k := ng.InIndex[v]; k < ng.InIndex[v+1]; k++ {
			u := ng.InEdges[k]
			i, _ := slices.BinarySearch(ng.OutNeighbors(u), v)
			ng.OutProb[ng.OutIndex[u]+int64(i)] = ng.InProb[k]
		}
	}
	return ng, nil
}

// csrSide is one direction of a CSR with its per-edge parameters.
type csrSide struct {
	index       []int64
	edges       []int32
	prob, accum []float32 // accum: LT in-direction only
}

// patch fills s, whose index is sized for the post-delta vertex count,
// with old under the changes adds and rems, both sorted by (key,
// other), every removal present in old. Runs of untouched vertices move
// with one copy per array and an index shift; only a touched vertex's
// segment is merged entry by entry, removals matched against rems in
// step. It returns the touched vertices, ascending, and the edge count.
func (s csrSide) patch(old csrSide, adds, rems []deltaEdge) (touched []int32, pos int64) {
	oldN, n := int32(len(old.index)-1), int32(len(s.index)-1)
	next := int32(0) // first vertex not yet written
	carry := func(upto int32) {
		if hi := min(upto, oldN); next < hi {
			lo, end := old.index[next], old.index[hi]
			copy(s.edges[pos:], old.edges[lo:end])
			copy(s.prob[pos:], old.prob[lo:end])
			if s.accum != nil {
				copy(s.accum[pos:], old.accum[lo:end])
			}
			for shift := pos - lo; next < hi; next++ {
				s.index[next] = old.index[next] + shift
			}
			pos += end - lo
		}
		for ; next < upto; next++ { // vertices the delta grew
			s.index[next] = pos
		}
	}
	for len(adds) > 0 || len(rems) > 0 {
		v := int32(math.MaxInt32)
		if len(adds) > 0 {
			v = adds[0].key
		}
		if len(rems) > 0 {
			v = min(v, rems[0].key)
		}
		carry(v)
		s.index[v] = pos
		var k, hi int64
		if v < oldN {
			k, hi = old.index[v], old.index[v+1]
		}
		for {
			if len(adds) > 0 && adds[0].key == v && (k == hi || adds[0].other < old.edges[k]) {
				s.edges[pos], s.prob[pos] = adds[0].other, adds[0].prob
				pos++
				adds = adds[1:]
			} else if k == hi {
				break
			} else if len(rems) > 0 && rems[0].key == v && rems[0].other == old.edges[k] {
				rems = rems[1:]
				k++
			} else {
				s.edges[pos], s.prob[pos] = old.edges[k], old.prob[k]
				pos++
				k++
			}
		}
		// A removal old does not hold (the two directions of g disagree)
		// must not stall the walk; the caller's edge count catches it.
		for len(rems) > 0 && rems[0].key == v {
			rems = rems[1:]
		}
		touched = append(touched, v)
		next = v + 1
	}
	carry(n)
	s.index[n] = pos
	return touched, pos
}

// derivedProb maps (seed, src, dst) to a uniform [0,1) probability the
// same way rng.Float32 would, through a SplitMix64 finalizer over the
// edge identity. One added edge always gets the same probability no
// matter what else is in the delta.
func derivedProb(seed uint64, src, dst int32) float32 {
	sm := rng.NewSplitMix64(seed ^ (uint64(uint32(src))<<32 | uint64(uint32(dst))))
	sm.Next() // decorrelate nearby edge ids
	return float32(sm.Next()>>40) / (1 << 24)
}
