package imm

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/counter"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rrr"
)

// The differential harness for the generation kernel. The engine's
// fused pool must be observationally identical to a reference pool built
// by the copy-out generator (GenerateSlots) over the same slots and
// indexed lazily: same sets in the same representation, same statistics
// and footprint, bit-identical per-shard inverted-index CSR arrays, the
// same occurrence counts, and the seeds the eager scan kernel selects
// over the reference.

// fuzzGraphs caches the small differential graphs across fuzz
// executions — graph construction dominates each exec otherwise.
var fuzzGraphs sync.Map // graph.Model -> *graph.Graph

func diffGraph(t testing.TB, model graph.Model) *graph.Graph {
	if g, ok := fuzzGraphs.Load(model); ok {
		return g.(*graph.Graph)
	}
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6), model, 42)
	if err != nil {
		t.Fatal(err)
	}
	fuzzGraphs.Store(model, g)
	return g
}

// runKernel runs a full martingale trajectory on its own engine and
// returns the result plus the engine for index inspection.
func runKernel(t testing.TB, g *graph.Graph, opt Options) (*Result, *WarmEngine) {
	t.Helper()
	eng, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEngine(g, opt, eng)
	if err != nil {
		t.Fatal(err)
	}
	return res, eng
}

// referencePool builds slots [0, count) with GenerateSlots into a fresh
// pool and indexes it in one lazy pass.
func referencePool(g *graph.Graph, opt Options, count int64) *shardedPool {
	ref := newShardedPool(g.N)
	ref.grow(count)
	out := make([]rrr.Set, count)
	members, _ := GenerateSlots(g, PolicyFromOptions(opt), opt.Seed, 0, out)
	for i, set := range out {
		ref.put(int64(i), set)
	}
	ref.addMembers([]int64{members})
	ref.ensureIndexed(1, make([]int64, 1))
	return ref
}

func compareFusedToReference(t *testing.T, model graph.Model, opt Options) {
	t.Helper()
	g := diffGraph(t, model)
	res, eng := runKernel(t, g, opt)
	ref := referencePool(g, opt, eng.p.len())
	label := fmt.Sprintf("model=%v w=%d fusion=%v dynamic=%v adaptive=%v",
		model, opt.Workers, opt.Fusion, opt.DynamicBalance, opt.AdaptiveRep)

	recount := counter.New(g.N)
	var fv, rv []int32
	for i := int64(0); i < ref.len(); i++ {
		fs, rs := eng.p.get(i), ref.get(i)
		if fs.Kind() != rs.Kind() || fs.Bytes() != rs.Bytes() {
			t.Fatalf("%s: slot %d representation diverged: %s/%dB vs %s/%dB",
				label, i, fs.Kind(), fs.Bytes(), rs.Kind(), rs.Bytes())
		}
		fv, rv = fs.Vertices(fv[:0]), rs.Vertices(rv[:0])
		if !slices.Equal(fv, rv) {
			t.Fatalf("%s: slot %d members diverged: %v vs %v", label, i, fv, rv)
		}
		for _, v := range rv {
			recount.Inc(v)
		}
	}
	if got, want := res.SetStats, ref.statsUpTo(ref.count); got != want {
		t.Fatalf("%s: pool stats diverged:\nfused:     %+v\nreference: %+v", label, got, want)
	}
	if got, want := res.Pool, ref.footprint(); got != want {
		t.Fatalf("%s: pool footprint diverged: %+v vs %+v", label, got, want)
	}
	if eng.baseFresh != opt.Fusion {
		t.Fatalf("%s: baseFresh = %v", label, eng.baseFresh)
	}
	if opt.Fusion && !slices.Equal(eng.base.Raw(), recount.Raw()) {
		t.Fatalf("%s: fused counter differs from a recount of the reference sets", label)
	}

	// The inverted index must be bit-identical: the per-round Stage-B
	// merges and the one-shot lazy ensureIndexed build must arrive at the
	// same CSR arrays.
	if eng.p.indexed != ref.indexed {
		t.Fatalf("%s: index extent diverged: %d vs %d", label, eng.p.indexed, ref.indexed)
	}
	if !slices.Equal(eng.p.postIdx, ref.postIdx) || !slices.Equal(eng.p.postData, ref.postData) {
		t.Fatalf("%s: CSR arrays diverged", label)
	}

	seeds, cov, _ := SelectOnSetsScan(g.N, ref.flatten(), ref.totalMembers, nil, opt.Workers, opt.Update, opt.K)
	if !slices.Equal(res.Seeds, seeds) || res.Coverage != cov {
		t.Fatalf("%s: selection diverged: fused %v/%v, scan over reference %v/%v",
			label, res.Seeds, res.Coverage, seeds, cov)
	}
}

// FuzzFusedVsReference pins the engine's pool against the reference
// generator. cfg bits switch Fusion off (2), the static schedule (4) and
// AdaptiveRep off (8). The seed corpus
// covers both models × workers ∈ {1,2,4,8} on the defaults plus each
// switch — static schedule with fusion on included — so those cases run
// on every plain `go test`; fuzzing additionally explores RNG seeds,
// worker counts and switch combinations.
func FuzzFusedVsReference(f *testing.F) {
	for _, model := range []byte{0, 1} {
		for _, w := range []byte{1, 2, 4, 8} {
			f.Add(model, w, uint16(7), byte(0))
		}
	}
	f.Add(byte(0), byte(3), uint16(99), byte(0))
	f.Add(byte(0), byte(4), uint16(7), byte(4))
	f.Add(byte(1), byte(2), uint16(7), byte(4))
	f.Add(byte(0), byte(2), uint16(5), byte(2))
	f.Add(byte(1), byte(8), uint16(5), byte(2|4))
	f.Add(byte(0), byte(4), uint16(3), byte(8))
	f.Add(byte(1), byte(1), uint16(3), byte(8))
	f.Fuzz(func(t *testing.T, modelByte, workerByte byte, seed16 uint16, cfg byte) {
		model := graph.IC
		if modelByte%2 == 1 {
			model = graph.LT
		}
		opt := Defaults()
		opt.K = 8
		opt.Workers = int((workerByte+7)%8) + 1 // 1..8; corpus bytes are the worker counts
		opt.Seed = uint64(seed16)%64 + 1
		opt.MaxTheta = 3000
		opt.Fusion = cfg&2 == 0
		opt.DynamicBalance = cfg&4 == 0
		opt.AdaptiveRep = cfg&8 == 0
		compareFusedToReference(t, model, opt)
	})
}

// TestFusedSteadyStateAllocs caps the fused path's per-set allocation
// rate: once the engine's samplers, arenas, and index are warm,
// extending the pool must not allocate per list set — only per call (job
// scheduling, CSR merge scratch), which vanishes against thousands of
// sets — and a bitmap set must cost exactly its own storage (the row the
// sampler hands over plus two headers), nothing per member. (The
// copy-out reference generator pays 2+ allocations per list set.)
func TestFusedSteadyStateAllocs(t *testing.T) {
	g := diffGraph(t, graph.IC)
	for _, tc := range []struct {
		name     string
		adaptive bool
		perSet   float64
	}{
		{"lists", false, 0.25},
		{"dense-ic", true, 3.25}, // uniform IC on 256 vertices: nearly every set is a bitmap
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Defaults()
			opt.Workers = 1 // AllocsPerRun requires a deterministic single-goroutine hot path
			opt.AdaptiveRep = tc.adaptive
			opt.Seed = 7
			eng, err := NewWarmEngine(g, opt)
			if err != nil {
				t.Fatal(err)
			}

			const step = 2048
			target := int64(step) // warm-up: allocate samplers, arenas, first index
			eng.Generate(target)
			eng.p.indexNewSets(opt.Workers)
			if st := eng.Stats(); tc.adaptive && st.Bitmaps < st.Count/2 {
				t.Fatalf("dense case is not dense: %d bitmaps of %d sets", st.Bitmaps, st.Count)
			}

			perRun := testing.AllocsPerRun(5, func() {
				target += step
				eng.Generate(target)
			})
			if perSet := perRun / step; perSet > tc.perSet {
				t.Fatalf("fused steady-state allocations: %.1f per Generate call = %.3f per set (want <= %.2f)",
					perRun, perSet, tc.perSet)
			}
		})
	}
}

// TestWarmServedAnswersKernelIdentical pins the warm θ-extension replay:
// a warm engine re-entering the generation kernel across queries serves
// answers byte-identical to a cold Run of each query, across worker
// counts.
func TestWarmServedAnswersKernelIdentical(t *testing.T) {
	g := diffGraph(t, graph.IC)
	for _, workers := range []int{1, 4} {
		opt := Defaults()
		opt.K = 6
		opt.Workers = workers
		opt.Seed = 7
		opt.MaxTheta = 3000
		w, err := NewWarmEngine(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Three queries of shrinking sampling requirement exercise
		// extension, full reuse, and truncated-view replay.
		for _, eps := range []float64{0.4, 0.5, 0.6} {
			q := opt
			q.Epsilon = eps
			cold, err := Run(g, q)
			if err != nil {
				t.Fatal(err)
			}
			assertWarmEqualsCold(t, fmt.Sprintf("workers=%d eps=%v", workers, eps), runWarm(t, g, w, q), cold)
		}
	}
}
