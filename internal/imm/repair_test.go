package imm

// Differential tests of warm-pool repair: after graph.ApplyDelta, a
// repaired pool must be indistinguishable — slot contents, the index and
// its occurrence counts, and every future answer — from a pool generated
// cold on the post-delta graph, across models × workers.

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// randomDelta derives a deterministic delta from seed: nAdd random
// additions (possibly duplicates or self-loops — ApplyDelta's silent
// mode drops them), nRemove removals of existing edges, and, when grow
// is set, one addition that extends the vertex set.
func randomDelta(g *graph.Graph, seed uint64, nAdd, nRemove int, grow bool) graph.Delta {
	r := rng.New(seed)
	d := graph.Delta{Seed: seed ^ 0x9e3779b97f4a7c15}
	for i := 0; i < nAdd; i++ {
		src := int32(r.Uint32n(uint32(g.N)))
		dst := int32(r.Uint32n(uint32(g.N)))
		d.Add = append(d.Add, graph.Edge{Src: src, Dst: dst})
	}
	for i := 0; i < nRemove && g.M > 0; i++ {
		e := int64(r.Uint32n(uint32(g.M)))
		src := int32(sort.Search(int(g.N), func(v int) bool { return g.OutIndex[v+1] > e }))
		d.Remove = append(d.Remove, graph.Edge{Src: src, Dst: g.OutEdges[e]})
	}
	if grow {
		d.Add = append(d.Add, graph.Edge{Src: 0, Dst: g.N + 1})
	}
	return d
}

// slotMembers collects slot i's members in representation order.
func slotMembers(e *WarmEngine, i int64) []int32 {
	out := []int32{}
	e.p.get(i).ForEach(func(v int32) { out = append(out, v) })
	return out
}

// assertPoolsEqual pins per-slot content and representation equality
// over the first count slots of both engines.
func assertPoolsEqual(t *testing.T, label string, warm, cold *WarmEngine, count int64) {
	t.Helper()
	for i := int64(0); i < count; i++ {
		ws, cs := warm.p.get(i), cold.p.get(i)
		if !reflect.DeepEqual(slotMembers(warm, i), slotMembers(cold, i)) {
			t.Fatalf("%s: slot %d members diverge after repair", label, i)
		}
		if ws.Bytes() != cs.Bytes() || ws.Size() != cs.Size() {
			t.Fatalf("%s: slot %d representation diverges (bytes %d vs %d)", label, i, ws.Bytes(), cs.Bytes())
		}
	}
	if warm.p.totalMembers != cold.p.totalMembers {
		t.Fatalf("%s: totalMembers %d != cold %d", label, warm.p.totalMembers, cold.p.totalMembers)
	}
}

// checkRepairDifferential is the shared scenario: warm a pool with one
// query, apply a delta with repair, and require byte-identity with a
// cold engine on the post-delta graph — pool slots, index and occurrence
// counts, and the served answer.
func checkRepairDifferential(t *testing.T, label string, g *graph.Graph, opt Options, d graph.Delta) {
	t.Helper()
	we, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	runWarm(t, g, we, opt)

	ng, drep, err := graph.ApplyDelta(g, d, graph.DeltaOptions{})
	if err != nil {
		t.Fatalf("%s: ApplyDelta: %v", label, err)
	}
	rr, err := we.ApplyDelta(ng, drep)
	if err != nil {
		t.Fatalf("%s: repair: %v", label, err)
	}
	if ng.N > g.N && rr.Slots > 0 && !rr.FullResample {
		t.Fatalf("%s: vertex growth must force a full resample", label)
	}

	cold, err := NewWarmEngine(ng, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold.BeginQuery()
	cold.Generate(we.PhysicalSets())
	assertPoolsEqual(t, label, we, cold, we.PhysicalSets())
	if !reflect.DeepEqual(we.p.counts(), recount(we)) || !reflect.DeepEqual(cold.p.counts(), recount(cold)) {
		t.Fatalf("%s: index counts differ from a recount of the sets after repair", label)
	} else if !sameIndex(&we.p.post, &cold.p.post) {
		t.Fatalf("%s: repaired index differs from a cold pool's", label)
	}

	warmRes := runWarm(t, ng, we, opt)
	coldRes, err := Run(ng, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertWarmEqualsCold(t, label, warmRes, coldRes)
}

// recount counts every vertex's occurrences by walking e's sets.
func recount(e *WarmEngine) []int64 {
	counts := make([]int64, e.p.n)
	var c cursor
	var vs, buf []int32
	for i := range e.p.count {
		vs, buf = e.p.sets.members(&c, i, buf)
		for _, v := range vs {
			counts[v]++
		}
	}
	return counts
}

// TestRepairMatchesColdAcrossMatrix sweeps models × workers with a mixed
// add/remove delta.
func TestRepairMatchesColdAcrossMatrix(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		for _, workers := range []int{1, 3} {
			g := testGraph(t, 7, model)
			opt := Defaults()
			opt.K = 8
			opt.Seed = 11
			opt.Workers = workers
			opt.MaxTheta = 4000
			d := randomDelta(g, 99, 6, 4, false)
			label := model.String() + "/w" + string(rune('0'+workers))
			checkRepairDifferential(t, label, g, opt, d)
		}
	}
}

// TestRepairVertexGrowth pins the CSR-growth path: a delta that adds a
// brand-new max vertex id invalidates every slot (the root draw depends
// on N) and still lands byte-identical to cold.
func TestRepairVertexGrowth(t *testing.T) {
	g := testGraph(t, 7, graph.IC)
	opt := Defaults()
	opt.K = 6
	opt.Seed = 5
	opt.MaxTheta = 3000
	opt.Workers = 2
	checkRepairDifferential(t, "grow", g, opt, randomDelta(g, 17, 3, 2, true))
}

// TestRepairPartialInvalidation pins the point of the whole exercise:
// a small delta must resample strictly fewer slots than the pool holds
// (otherwise repair is cold regeneration with extra steps).
func TestRepairPartialInvalidation(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Defaults()
	opt.K = 8
	opt.Seed = 21
	opt.MaxTheta = 6000
	we, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	runWarm(t, g, we, opt)
	// One removed edge dirties one vertex; only sets containing it are
	// invalid.
	var src int32 = -1
	for v := int32(0); v < g.N; v++ {
		if g.OutDegree(v) > 0 {
			src = v
			break
		}
	}
	if src < 0 {
		t.Fatal("test graph has no edges")
	}
	d := graph.Delta{Remove: []graph.Edge{{Src: src, Dst: g.OutEdges[g.OutIndex[src]]}}, Seed: 2}
	ng, drep, err := graph.ApplyDelta(g, d, graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !drep.Changed() {
		t.Skip("delta was a no-op on this graph")
	}
	rr, err := we.ApplyDelta(ng, drep)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Resampled >= rr.Slots {
		t.Fatalf("single-edge delta resampled the whole pool: %d of %d", rr.Resampled, rr.Slots)
	}
	res := runWarm(t, ng, we, opt)
	coldRes, err := Run(ng, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertWarmEqualsCold(t, "partial", res, coldRes)

	// Resamples grow with churn: sixty edges on the same pool
	// invalidate more slots than the single edge did.
	ng2, drep2, err := graph.ApplyDelta(ng, randomDelta(ng, 5, 40, 20, false), graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rr2, err := we.ApplyDelta(ng2, drep2)
	if err != nil {
		t.Fatal(err)
	}
	if rr2.Resampled <= rr.Resampled {
		t.Fatalf("a 60-edge delta resampled %d slots, the single edge %d", rr2.Resampled, rr.Resampled)
	}
}

// FuzzRepairDifferential is the fuzz form of the differential check:
// arbitrary (seed, delta shape, configuration) tuples must all land
// byte-identical to cold. cfg bit 1 selects LT, bits 16 and 32 the worker
// count and bit 64 vertex growth; bits 2 and 4, which once turned off
// fusion and selected the scan kernel, select nothing (a repairing engine
// runs the defaults), so the corpus keeps its entries.
func FuzzRepairDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(2), uint8(0))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(1))
	f.Add(uint64(3), uint8(12), uint8(6), uint8(2))
	f.Add(uint64(4), uint8(1), uint8(0), uint8(3))
	f.Add(uint64(5), uint8(7), uint8(7), uint8(4))
	f.Add(uint64(6), uint8(3), uint8(1), uint8(5))
	f.Add(uint64(7), uint8(9), uint8(0), uint8(6))
	f.Add(uint64(8), uint8(0), uint8(5), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nAdd, nRemove, cfg uint8) {
		model := graph.IC
		if cfg&1 != 0 {
			model = graph.LT
		}
		opt := Defaults()
		opt.K = 6
		opt.Seed = seed | 1
		opt.MaxTheta = 2000
		opt.Workers = 1 + int(cfg>>4&3)
		g := testGraph(t, 6, model)
		d := randomDelta(g, seed, int(nAdd), int(nRemove), cfg&64 != 0)
		checkRepairDifferential(t, "fuzz", g, opt, d)
	})
}

// TestRepairAllocs pins what a small repair allocates: one sampler
// re-bound per worker (not a second one for the resampling), the slot
// lists, buffers for the resampled sets (growing by doubling, not one per
// set), the relayout of the store and the index patch.
func TestRepairAllocs(t *testing.T) {
	g := testGraph(t, 10, graph.LT)
	opt := Defaults()
	opt.K = 6
	opt.Seed = 5
	opt.Workers = 1 // AllocsPerRun needs a single-goroutine path
	opt.MaxTheta = 3000
	ng, drep, err := graph.ApplyDelta(g, randomDelta(g, 23, 3, 3, false), graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls its function twice; each call repairs its own
	// engine, warmed identically, so both do the same work.
	var engines []*WarmEngine
	for range 2 {
		we, err := NewWarmEngine(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		runWarm(t, g, we, opt)
		engines = append(engines, we)
	}
	var rr RepairReport
	we0 := engines[0]
	allocs := testing.AllocsPerRun(1, func() {
		we := engines[0]
		engines = engines[1:]
		if rr, err = we.ApplyDelta(ng, drep); err != nil {
			t.Fatal(err)
		}
	})
	if rr.Resampled == 0 || rr.FullResample {
		t.Fatalf("delta should repair some slots in place, got %+v", rr)
	}
	if allocs > 41 { // 39 today; a second sampler is at least three more
		t.Fatalf("repair of %d slots allocated %.0f times", rr.Resampled, allocs)
	}
	if smp := we0.gen[0].smp; smp.EdgesVisited == 0 {
		t.Fatal("the resample did not run on the engine's re-bound sampler")
	}
}
