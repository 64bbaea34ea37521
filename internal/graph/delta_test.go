package graph

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rng"
)

func deltaTestGraph(t *testing.T, model Model) *Graph {
	t.Helper()
	edges := []Edge{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 1}, {4, 2},
	}
	g, err := FromEdges(5, edges, model, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestApplyDeltaEmpty(t *testing.T) {
	g := deltaTestGraph(t, IC)
	ng, rep, err := ApplyDelta(g, Delta{}, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ng != g {
		t.Fatal("empty delta must return the input graph unchanged")
	}
	if rep.Changed() {
		t.Fatalf("empty delta reported a change: %+v", rep)
	}
	if rep.NewM != g.M || rep.NewN != g.N {
		t.Fatalf("empty delta shape drifted: %+v", rep)
	}
}

func TestApplyDeltaAddRemove(t *testing.T) {
	for _, model := range []Model{IC, LT} {
		g := deltaTestGraph(t, model)
		d := Delta{
			Add:    []Edge{{1, 3}, {2, 0}},
			Remove: []Edge{{0, 1}},
			Seed:   42,
		}
		ng, rep, err := ApplyDelta(g, d, DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ng.M != g.M+1 {
			t.Fatalf("M = %d, want %d", ng.M, g.M+1)
		}
		if !ng.HasEdge(1, 3) || !ng.HasEdge(2, 0) || ng.HasEdge(0, 1) {
			t.Fatal("post-delta edge membership wrong")
		}
		if err := ng.Validate(); err != nil {
			t.Fatalf("post-delta graph invalid: %v", err)
		}
		// Dirty = dst endpoints of the applied changes.
		want := []int32{0, 1, 3}
		if len(rep.Dirty) != len(want) {
			t.Fatalf("dirty = %v, want %v", rep.Dirty, want)
		}
		for i, v := range want {
			if rep.Dirty[i] != v {
				t.Fatalf("dirty = %v, want %v", rep.Dirty, want)
			}
		}
		// Untouched in-segments carry their weights bit-for-bit.
		for v := int32(0); v < g.N; v++ {
			dirty := false
			for _, dv := range rep.Dirty {
				if dv == v {
					dirty = true
				}
			}
			if dirty {
				continue
			}
			olo, ohi := g.InIndex[v], g.InIndex[v+1]
			nlo, nhi := ng.InIndex[v], ng.InIndex[v+1]
			if ohi-olo != nhi-nlo {
				t.Fatalf("vertex %d segment changed without being dirty", v)
			}
			for i := int64(0); i < ohi-olo; i++ {
				if g.InProb[olo+i] != ng.InProb[nlo+i] {
					t.Fatalf("vertex %d carried-over weight changed", v)
				}
			}
		}
	}
}

func TestApplyDeltaDeterministicWeights(t *testing.T) {
	// The same delta applied twice yields bit-identical graphs, and a
	// reordered delta yields the same graph too (weights depend only on
	// (seed, edge), not on delta order).
	for _, model := range []Model{IC, LT} {
		g := deltaTestGraph(t, model)
		d1 := Delta{Add: []Edge{{1, 3}, {0, 4}}, Remove: []Edge{{2, 3}}, Seed: 9}
		d2 := Delta{Add: []Edge{{0, 4}, {1, 3}}, Remove: []Edge{{2, 3}}, Seed: 9}
		a, _, err := ApplyDelta(g, d1, DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ApplyDelta(g, d2, DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(a, b) {
			t.Fatalf("%v: delta application is order-sensitive", model)
		}
	}
}

func TestApplyDeltaExplicitProb(t *testing.T) {
	g := deltaTestGraph(t, IC)
	d := Delta{Add: []Edge{{1, 3}}, AddProb: []float32{0.25}}
	ng, _, err := ApplyDelta(g, d, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := ng.InIndex[3]; k < ng.InIndex[4]; k++ {
		if ng.InEdges[k] == 1 && ng.InProb[k] != 0.25 {
			t.Fatalf("explicit probability not honored: got %g", ng.InProb[k])
		}
	}
	// An explicit zero is a valid probability, not "derive me".
	d = Delta{Add: []Edge{{1, 3}}, AddProb: []float32{0}}
	ng, _, err = ApplyDelta(g, d, DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for k := ng.InIndex[3]; k < ng.InIndex[4]; k++ {
		if ng.InEdges[k] == 1 {
			found = true
			if ng.InProb[k] != 0 {
				t.Fatalf("explicit zero probability overwritten: got %g", ng.InProb[k])
			}
		}
	}
	if !found {
		t.Fatal("added edge missing")
	}
}

func TestApplyDeltaGrowsVertices(t *testing.T) {
	for _, model := range []Model{IC, LT} {
		g := deltaTestGraph(t, model)
		d := Delta{Add: []Edge{{4, 9}, {9, 0}}, Seed: 3}
		ng, rep, err := ApplyDelta(g, d, DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ng.N != 10 {
			t.Fatalf("N = %d, want 10", ng.N)
		}
		if rep.NewN != 10 || rep.OldN != 5 {
			t.Fatalf("report shape %+v", rep)
		}
		if !ng.HasEdge(4, 9) || !ng.HasEdge(9, 0) {
			t.Fatal("grown edges missing")
		}
		if err := ng.Validate(); err != nil {
			t.Fatalf("grown graph invalid: %v", err)
		}
	}
}

func TestApplyDeltaStrict(t *testing.T) {
	g := deltaTestGraph(t, IC)
	strict := DeltaOptions{Strict: true}
	cases := []struct {
		name string
		d    Delta
	}{
		{"self-loop", Delta{Add: []Edge{{2, 2}}}},
		{"duplicate-of-existing", Delta{Add: []Edge{{0, 1}}}},
		{"duplicate-within-delta", Delta{Add: []Edge{{0, 1}, {0, 1}}}},
		{"missing-removal", Delta{Remove: []Edge{{1, 0}}}},
		{"out-of-range-removal", Delta{Remove: []Edge{{40, 0}}}},
	}
	for _, tc := range cases {
		if _, _, err := ApplyDelta(g, tc.d, strict); err == nil {
			t.Fatalf("%s: strict mode accepted bad delta", tc.name)
		}
		// Silent mode drops the same entries and reports them.
		ng, rep, err := ApplyDelta(g, tc.d, DeltaOptions{})
		if err != nil {
			t.Fatalf("%s: silent mode failed: %v", tc.name, err)
		}
		if dropped := rep.DroppedSelfLoops + rep.DroppedDuplicates + rep.MissingRemovals; dropped == 0 {
			t.Fatalf("%s: silent mode dropped nothing", tc.name)
		}
		if rep.Changed() {
			t.Fatalf("%s: silent drop still changed the graph", tc.name)
		}
		if ng != g {
			t.Fatalf("%s: no-op delta built a new graph", tc.name)
		}
	}
	// Negative endpoints are malformed in both modes.
	if _, _, err := ApplyDelta(g, Delta{Add: []Edge{{-1, 2}}}, DeltaOptions{}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
}

func TestApplyDeltaRemoveThenReAdd(t *testing.T) {
	// Removing and re-adding the same edge in one delta is a reweight,
	// not a duplicate — even under strict mode.
	g := deltaTestGraph(t, IC)
	d := Delta{Add: []Edge{{0, 1}}, Remove: []Edge{{0, 1}}, Seed: 5}
	ng, rep, err := ApplyDelta(g, d, DeltaOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ng.HasEdge(0, 1) || ng.M != g.M {
		t.Fatal("reweight delta changed topology")
	}
	if len(rep.Dirty) != 1 || rep.Dirty[0] != 1 {
		t.Fatalf("dirty = %v, want [1]", rep.Dirty)
	}
}

func TestApplyDeltaRejectsNaNProb(t *testing.T) {
	// NaN fails both halves of "p < 0 || p > 1" and used to double as
	// the builder's internal "derive me" mark, so a NaN in AddProb
	// silently became a derived probability.
	g := deltaTestGraph(t, IC)
	nan := float32(math.NaN())
	for _, strict := range []bool{false, true} {
		d := Delta{Add: []Edge{{1, 3}, {2, 0}}, AddProb: []float32{0.5, nan}}
		if _, _, err := ApplyDelta(g, d, DeltaOptions{Strict: strict}); err == nil {
			t.Fatalf("strict=%v: NaN probability accepted", strict)
		}
	}
}

// randomDelta draws a graph and a delta that exercises every branch of
// ApplyDelta: growth, self-loops, duplicate and absent entries,
// remove-then-re-add, explicit and derived probabilities.
func randomDelta(t *testing.T, seed uint64, model Model) (*Graph, Delta) {
	t.Helper()
	r := rng.New(seed)
	n := int32(1 + r.Intn(40))
	edges := make([]Edge, r.Intn(4*int(n)+1))
	for i := range edges {
		edges[i] = Edge{int32(r.Intn(int(n))), int32(r.Intn(int(n)))}
	}
	g, err := FromEdges(n, edges, model, seed)
	if err != nil {
		t.Fatal(err)
	}
	existing := func() Edge {
		if g.M == 0 {
			return Edge{0, 0}
		}
		k := int64(r.Intn(int(g.M)))
		u := int32(sort.Search(int(g.N), func(u int) bool { return g.OutIndex[u+1] > k }))
		return Edge{u, g.OutEdges[k]}
	}
	d := Delta{Seed: r.Uint64()}
	span := int(n) + r.Intn(3)*r.Intn(8) // sometimes past N: vertex growth
	for i := r.Intn(8); i > 0; i-- {
		switch r.Intn(6) {
		case 0:
			d.Add = append(d.Add, existing()) // duplicate, or the re-add of a removal
		case 1:
			e := existing()
			d.Add, d.Remove = append(d.Add, e), append(d.Remove, e)
		default:
			d.Add = append(d.Add, Edge{int32(r.Intn(span)), int32(r.Intn(span))})
		}
	}
	for i := r.Intn(6); i > 0; i-- {
		if r.Intn(4) == 0 {
			d.Remove = append(d.Remove, Edge{int32(r.Intn(span + 2)), int32(r.Intn(span + 2))})
		} else {
			d.Remove = append(d.Remove, existing())
		}
	}
	if r.Intn(2) == 0 {
		for range d.Add {
			d.AddProb = append(d.AddProb, float32(r.Intn(5))/4)
		}
	}
	return g, d
}

// FuzzApplyDeltaMatchesReference pins the run-copy epoch builder to the
// pre-run-copy implementation kept below as the oracle: same graph
// bytes, same report (Dirty order and drop counters included), same
// error text, strict and lenient, IC and LT.
func FuzzApplyDeltaMatchesReference(f *testing.F) {
	for seed := uint64(0); seed < 300; seed++ {
		f.Add(seed, seed%2 == 0, seed%3 == 0)
	}
	f.Fuzz(func(t *testing.T, seed uint64, lt, strict bool) {
		model := IC
		if lt {
			model = LT
		}
		g, d := randomDelta(t, seed, model)
		before := g.Checksum()
		opt := DeltaOptions{Strict: strict}
		want, wantRep, wantErr := oracleApplyDelta(g, d, opt)
		got, gotRep, gotErr := ApplyDelta(g, d, opt)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("error %v, oracle %v (delta %+v)", gotErr, wantErr, d)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Fatalf("report %+v, oracle %+v (delta %+v)", gotRep, wantRep, d)
		}
		if (want == g) != (got == g) || !Equal(want, got) {
			t.Fatalf("post-delta graph differs from oracle (delta %+v)", d)
		}
		g.sumOK.Store(false)
		if g.Checksum() != before {
			t.Fatal("ApplyDelta mutated its input graph")
		}
	})
}

// ---- the oracle: ApplyDelta as it stood before the run-copy epoch
// builder — a full per-edge merge probing a removal map, NaN as the
// in-band "derive me" mark, and a whole-graph binary-search mirror —
// kept verbatim, names prefixed.

// oracleAddEdge pairs an addition with its optional explicit probability.
type oracleAddEdge struct {
	e       Edge
	prob    float32
	hasProb bool
}

// oracleApplyDelta applies d to g and returns the post-delta graph and a
// report. The input graph is never mutated; when the delta turns out
// to be a no-op the input graph itself is returned (same pointer) with
// report.Changed() == false. Added edges may reference vertices beyond
// g.N, growing the vertex set; removals of out-of-range or absent
// edges are errors under Strict and counted otherwise.
func oracleApplyDelta(g *Graph, d Delta, opt DeltaOptions) (*Graph, *DeltaReport, error) {
	if len(d.AddProb) != 0 && len(d.AddProb) != len(d.Add) {
		return nil, nil, fmt.Errorf("graph: delta AddProb length %d does not match Add length %d", len(d.AddProb), len(d.Add))
	}
	rep := &DeltaReport{OldN: g.N, NewN: g.N, OldM: g.M}

	// Normalize additions: reject malformed input, drop (or reject)
	// self-loops, attach explicit probabilities, compute vertex growth.
	adds := make([]oracleAddEdge, 0, len(d.Add))
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
		ae := oracleAddEdge{e: e}
		if len(d.AddProb) != 0 {
			p := d.AddProb[i]
			if p < 0 || p > 1 {
				return nil, nil, fmt.Errorf("graph: delta add (%d,%d) probability %g outside [0,1]", e.Src, e.Dst, p)
			}
			ae.prob, ae.hasProb = p, true
		}
		adds = append(adds, ae)
		if e.Src >= rep.NewN {
			rep.NewN = e.Src + 1
		}
		if e.Dst >= rep.NewN {
			rep.NewN = e.Dst + 1
		}
	}

	// Normalize removals into a membership set of edges that actually
	// exist. Duplicated removals of one edge collapse silently — the
	// net effect is identical.
	removes := make(map[Edge]struct{}, len(d.Remove))
	for _, e := range d.Remove {
		if e.Src < 0 || e.Dst < 0 {
			return nil, nil, fmt.Errorf("graph: delta remove (%d,%d) has a negative endpoint", e.Src, e.Dst)
		}
		if _, ok := removes[e]; ok {
			continue
		}
		if e.Src >= g.N || e.Dst >= g.N || !g.HasEdge(e.Src, e.Dst) {
			if opt.Strict {
				return nil, nil, fmt.Errorf("graph: delta removes absent edge (%d,%d)", e.Src, e.Dst)
			}
			rep.MissingRemovals++
			continue
		}
		removes[e] = struct{}{}
	}

	// Dedup additions against each other and against surviving graph
	// edges: an edge both removed and re-added in one delta is a
	// reweight, not a duplicate.
	sort.Slice(adds, func(i, j int) bool {
		if adds[i].e.Dst != adds[j].e.Dst {
			return adds[i].e.Dst < adds[j].e.Dst
		}
		return adds[i].e.Src < adds[j].e.Src
	})
	kept := adds[:0]
	for i, ae := range adds {
		dup := i > 0 && ae.e == adds[i-1].e
		if !dup && ae.e.Src < g.N && ae.e.Dst < g.N && g.HasEdge(ae.e.Src, ae.e.Dst) {
			if _, removed := removes[ae.e]; !removed {
				dup = true
			}
		}
		if dup {
			if opt.Strict {
				return nil, nil, fmt.Errorf("graph: delta adds duplicate edge (%d,%d)", ae.e.Src, ae.e.Dst)
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
		rep.NewM = g.M
		return g, rep, nil
	}

	ng, err := oracleRebuildCSR(g, adds, removes, rep)
	if err != nil {
		return nil, nil, err
	}
	oracleReweight(g, ng, d.Seed, rep)
	oracleMirror(ng)
	ng.model = g.model
	if err := ng.Validate(); err != nil {
		return nil, nil, fmt.Errorf("graph: post-delta graph invalid: %w", err)
	}
	return ng, rep, nil
}

// oracleRebuildCSR assembles the post-delta topology. Kept in-edges carry
// their old InProb values (LT dirty segments are re-derived afterwards
// by reweight); added edges get a placeholder filled in by reweight.
// It also records the dirty vertices — those whose in-segment changed.
func oracleRebuildCSR(g *Graph, adds []oracleAddEdge, removes map[Edge]struct{}, rep *DeltaReport) (*Graph, error) {
	n, m := rep.NewN, rep.NewM
	ng := &Graph{
		N:        n,
		M:        m,
		OutIndex: make([]int64, n+1),
		OutEdges: make([]int32, m),
		OutProb:  make([]float32, m),
		InIndex:  make([]int64, n+1),
		InEdges:  make([]int32, m),
		InProb:   make([]float32, m),
	}
	if g.Model() == LT {
		ng.InAccum = make([]float32, m)
	}

	// In-direction: merge each old segment (minus removals) with the
	// dst-grouped additions, preserving strictly ascending src order.
	ai := 0 // cursor into adds, sorted by (dst, src)
	pos := int64(0)
	for v := int32(0); v < n; v++ {
		segChanged := false
		var lo, hi int64
		if v < g.N {
			lo, hi = g.InIndex[v], g.InIndex[v+1]
		}
		k := lo
		for k < hi || (ai < len(adds) && adds[ai].e.Dst == v) {
			takeAdd := ai < len(adds) && adds[ai].e.Dst == v &&
				(k >= hi || adds[ai].e.Src < g.InEdges[k])
			if takeAdd {
				ng.InEdges[pos] = adds[ai].e.Src
				// NaN marks "derive me"; reweight resolves it. An
				// explicit probability (including 0) is kept as-is.
				p := float32(math.NaN())
				if adds[ai].hasProb {
					p = adds[ai].prob
				}
				ng.InProb[pos] = p
				pos++
				ai++
				segChanged = true
				continue
			}
			src := g.InEdges[k]
			if _, gone := removes[Edge{src, v}]; gone {
				k++
				segChanged = true
				continue
			}
			ng.InEdges[pos] = src
			ng.InProb[pos] = g.InProb[k]
			pos++
			k++
		}
		ng.InIndex[v+1] = pos
		if segChanged {
			rep.Dirty = append(rep.Dirty, v)
		}
	}
	if pos != m {
		return nil, fmt.Errorf("graph: delta in-edge accounting mismatch: %d != %d", pos, m)
	}

	// Out-direction: same merge grouped by src. Probabilities are
	// mirrored from the in-direction afterwards.
	bySrc := make([]Edge, len(adds))
	for i, ae := range adds {
		bySrc[i] = ae.e
	}
	sort.Slice(bySrc, func(i, j int) bool {
		if bySrc[i].Src != bySrc[j].Src {
			return bySrc[i].Src < bySrc[j].Src
		}
		return bySrc[i].Dst < bySrc[j].Dst
	})
	ai = 0
	pos = 0
	for v := int32(0); v < n; v++ {
		var lo, hi int64
		if v < g.N {
			lo, hi = g.OutIndex[v], g.OutIndex[v+1]
		}
		k := lo
		for k < hi || (ai < len(bySrc) && bySrc[ai].Src == v) {
			takeAdd := ai < len(bySrc) && bySrc[ai].Src == v &&
				(k >= hi || bySrc[ai].Dst < g.OutEdges[k])
			if takeAdd {
				ng.OutEdges[pos] = bySrc[ai].Dst
				pos++
				ai++
				continue
			}
			dst := g.OutEdges[k]
			if _, gone := removes[Edge{v, dst}]; gone {
				k++
				continue
			}
			ng.OutEdges[pos] = dst
			pos++
			k++
		}
		ng.OutIndex[v+1] = pos
	}
	if pos != m {
		return nil, fmt.Errorf("graph: delta out-edge accounting mismatch: %d != %d", pos, m)
	}
	return ng, nil
}

// oracleReweight finalizes per-edge parameters on the post-delta graph:
// derived IC probabilities for added edges without explicit ones, and
// full per-segment LT re-derivation (weights + prefix sums) for dirty
// vertices. Untouched LT segments copy their old prefix sums verbatim
// so carried-over weights stay bit-identical.
func oracleReweight(g, ng *Graph, seed uint64, rep *DeltaReport) {
	switch g.Model() {
	case IC:
		// Only added edges carry the NaN placeholder, and added edges
		// only appear in dirty segments.
		for _, v := range rep.Dirty {
			for k := ng.InIndex[v]; k < ng.InIndex[v+1]; k++ {
				if math.IsNaN(float64(ng.InProb[k])) {
					ng.InProb[k] = derivedProb(seed, ng.InEdges[k], v)
				}
			}
		}
	case LT:
		di := 0
		dirty := rep.Dirty
		for v := int32(0); v < ng.N; v++ {
			lo, hi := ng.InIndex[v], ng.InIndex[v+1]
			if di < len(dirty) && dirty[di] == v {
				di++
				if hi == lo {
					continue
				}
				// Re-derive the whole segment, AssignLT-style, from a
				// stream keyed by (seed, v) — deterministic regardless
				// of what else the delta touched.
				r := rng.NewStream(seed, int(v))
				var sum float64
				for k := lo; k < hi; k++ {
					w := r.Float64()
					ng.InProb[k] = float32(w)
					sum += w
				}
				target := r.Float64()
				if target == 0 {
					target = 1
				}
				scale := float32(target / sum)
				var acc float32
				for k := lo; k < hi; k++ {
					ng.InProb[k] *= scale
					acc += ng.InProb[k]
					ng.InAccum[k] = acc
				}
				continue
			}
			// Untouched segment: weights were carried over by
			// rebuildCSR; copy the prefix sums bit-for-bit too.
			if v < g.N {
				copy(ng.InAccum[lo:hi], g.InAccum[g.InIndex[v]:g.InIndex[v+1]])
			}
		}
	}
}

// oracleMirror copies per-in-edge parameters onto the corresponding
// forward edges, using binary search over the sorted out-segments.
func oracleMirror(g *Graph) {
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
