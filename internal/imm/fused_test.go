package imm

import (
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The differential harness for the two generation kernels. The fused
// streaming kernel (the default) and the retained materialized kernel
// must be observationally identical: same seeds, same θ trajectory,
// same pool statistics and footprint, and bit-identical per-shard
// inverted-index CSR arrays.

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
func runKernel(t testing.TB, g *graph.Graph, opt Options) (*Result, *efficientEngine) {
	t.Helper()
	if err := opt.normalize(g); err != nil {
		t.Fatal(err)
	}
	eng := newEfficientEngine(g, opt)
	res, err := RunEngine(g, opt, eng)
	if err != nil {
		t.Fatal(err)
	}
	return res, eng
}

func compareKernels(t *testing.T, model graph.Model, workers int, seed uint64, compressed bool) {
	t.Helper()
	g := diffGraph(t, model)
	opt := Defaults()
	opt.K = 8
	opt.Workers = workers
	opt.Seed = seed
	opt.MaxTheta = 3000
	if compressed {
		opt.Pool = PoolCompressed
	}

	opt.Kernel = KernelFused
	fused, fe := runKernel(t, g, opt)
	opt.Kernel = KernelMaterialized
	mat, me := runKernel(t, g, opt)

	if fused.Theta != mat.Theta || fused.Rounds != mat.Rounds {
		t.Fatalf("model=%v w=%d: trajectory diverged: fused θ=%d/%d rounds, materialized θ=%d/%d",
			model, workers, fused.Theta, fused.Rounds, mat.Theta, mat.Rounds)
	}
	if len(fused.Seeds) != len(mat.Seeds) {
		t.Fatalf("model=%v w=%d: seed counts diverged", model, workers)
	}
	for i := range fused.Seeds {
		if fused.Seeds[i] != mat.Seeds[i] {
			t.Fatalf("model=%v w=%d: seed %d diverged: fused=%v materialized=%v",
				model, workers, i, fused.Seeds, mat.Seeds)
		}
	}
	if fused.Coverage != mat.Coverage {
		t.Fatalf("model=%v w=%d: coverage diverged: %v vs %v", model, workers, fused.Coverage, mat.Coverage)
	}
	if fused.SetStats != mat.SetStats {
		t.Fatalf("model=%v w=%d: pool stats diverged:\nfused:        %+v\nmaterialized: %+v",
			model, workers, fused.SetStats, mat.SetStats)
	}
	if fused.Pool != mat.Pool {
		t.Fatalf("model=%v w=%d: pool footprint diverged: %+v vs %+v", model, workers, fused.Pool, mat.Pool)
	}

	// Inverted-index postings must be bit-identical shard for shard:
	// the fused Stage-B merge and the lazy ensureIndexed build must
	// arrive at the same CSR arrays.
	for s := range fe.p.shards {
		fs, ms := &fe.p.shards[s], &me.p.shards[s]
		if fs.indexed != ms.indexed || fs.postCount != ms.postCount {
			t.Fatalf("model=%v w=%d shard %d: index extent diverged: %d/%d vs %d/%d",
				model, workers, s, fs.indexed, fs.postCount, ms.indexed, ms.postCount)
		}
		if len(fs.postIdx) != len(ms.postIdx) || len(fs.postData) != len(ms.postData) {
			t.Fatalf("model=%v w=%d shard %d: CSR shapes diverged", model, workers, s)
		}
		for v := range fs.postIdx {
			if fs.postIdx[v] != ms.postIdx[v] {
				t.Fatalf("model=%v w=%d shard %d: postIdx[%d] = %d vs %d",
					model, workers, s, v, fs.postIdx[v], ms.postIdx[v])
			}
		}
		for i := range fs.postData {
			if fs.postData[i] != ms.postData[i] {
				t.Fatalf("model=%v w=%d shard %d: postData[%d] = %d vs %d",
					model, workers, s, i, fs.postData[i], ms.postData[i])
			}
		}
	}
}

// FuzzFusedVsMaterialized pins the fused and materialized kernels
// against each other. The seed corpus covers both models × workers ∈
// {1,2,4,8} (those cases therefore run on every plain `go test`);
// fuzzing additionally explores RNG seeds, worker counts, and the
// compressed pool.
func FuzzFusedVsMaterialized(f *testing.F) {
	for _, model := range []byte{0, 1} {
		for _, w := range []byte{1, 2, 4, 8} {
			f.Add(model, w, uint16(7), false)
		}
	}
	f.Add(byte(0), byte(3), uint16(99), true)
	f.Fuzz(func(t *testing.T, modelByte, workerByte byte, seed16 uint16, compressed bool) {
		model := graph.IC
		if modelByte%2 == 1 {
			model = graph.LT
		}
		workers := int(workerByte%8) + 1
		seed := uint64(seed16)%64 + 1
		compareKernels(t, model, workers, seed, compressed)
	})
}

// TestFusedSteadyStateAllocs caps the fused path's per-set allocation
// rate: once the engine's samplers, arenas, and index are warm,
// extending the pool must not allocate per list set — only per call (job
// scheduling, CSR merge scratch), which vanishes against thousands of
// sets — and a bitmap set must cost exactly its own storage (the row the
// sampler hands over plus two headers), nothing per member. The
// materialized kernel pays 2+ allocations per list set (vertex copy +
// header), so this is also what the ≥10x allocation reduction rests on.
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
			if err := opt.normalize(g); err != nil {
				t.Fatal(err)
			}
			eng := newEfficientEngine(g, opt)

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
// a warm engine generating with the fused kernel serves byte-identical
// answers to one running the materialized kernel, across worker counts.
func TestWarmServedAnswersKernelIdentical(t *testing.T) {
	g := diffGraph(t, graph.IC)
	for _, workers := range []int{1, 4} {
		base := Defaults()
		base.K = 6
		base.Workers = workers
		base.Seed = 7
		base.MaxTheta = 3000

		answers := make(map[KernelKind][][]int32)
		for _, kernel := range []KernelKind{KernelFused, KernelMaterialized} {
			opt := base
			opt.Kernel = kernel
			w, err := NewWarmEngine(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			// Three queries of shrinking sampling requirement exercise
			// extension, full reuse, and truncated-view replay.
			for _, eps := range []float64{0.4, 0.5, 0.6} {
				q := opt
				q.Epsilon = eps
				w.BeginQuery()
				res, err := RunEngine(g, q, w)
				if err != nil {
					t.Fatal(err)
				}
				answers[kernel] = append(answers[kernel], res.Seeds)
			}
		}
		for qi := range answers[KernelFused] {
			f, m := answers[KernelFused][qi], answers[KernelMaterialized][qi]
			if len(f) != len(m) {
				t.Fatalf("workers=%d query %d: answer lengths diverged", workers, qi)
			}
			for i := range f {
				if f[i] != m[i] {
					t.Fatalf("workers=%d query %d: served answer diverged: fused=%v materialized=%v",
						workers, qi, f, m)
				}
			}
		}
	}
}
