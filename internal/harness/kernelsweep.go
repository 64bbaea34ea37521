package harness

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/counter"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/rrr"
)

// ---------------------------------------------------------------------
// Kernel sweep — the fused streaming generation kernel against the
// materialized reference.
// ---------------------------------------------------------------------

// KernelRow compares the two generation kernels on one (dataset, model,
// workers) cell. The full-run columns come from complete imm.Run calls
// (so they include selection, which is kernel-independent); the GenAllocs
// columns isolate the generation path itself — allocations of producing
// θ sets through GenerateSlots versus GenerateSlotsFused — which is
// where the arena-backed fused kernel removes the per-set copies.
type KernelRow struct {
	Dataset string
	Model   string
	Workers int
	Theta   int64

	FusedWallMS float64
	MatWallMS   float64
	WallSpeedup float64 // materialized wall / fused wall

	FusedAllocs uint64 // full-run heap allocations
	MatAllocs   uint64

	GenSets        int64 // generation-path measurement size
	GenAllocsFused float64
	GenAllocsMat   float64 // per-set allocations of each generation path
	AllocReduction float64 // materialized / fused, generation path

	SeedsMatch bool // fused and materialized runs selected identical seeds
}

// mallocsAround reports the heap allocations f performs.
func mallocsAround(f func()) uint64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// generationAllocs measures the per-set allocation rate of both
// generation paths over sets slots, away from any selection or
// θ-estimation noise. The measurement pins the list representation
// (AdaptiveRep off): bitmap-represented sets heap-allocate their words
// identically under both kernels, so an adaptive mix would dilute the
// comparison with a representation cost the kernels share — the arena
// refactor's win is precisely the list path's per-set copy and header.
func generationAllocs(g *graph.Graph, opt imm.Options, sets int64) (fusedPerSet, matPerSet float64) {
	opt.AdaptiveRep = false
	policy := imm.PolicyFromOptions(opt)
	out := make([]rrr.Set, sets)
	arena := rrr.NewArena()
	cnt := counter.New(g.N)
	fused := mallocsAround(func() {
		imm.GenerateSlotsFused(g, policy, opt.Seed, 0, out, arena, cnt)
	})
	clear(out)
	mat := mallocsAround(func() {
		imm.GenerateSlots(g, policy, opt.Seed, 0, out)
		for _, s := range out {
			s.ForEach(func(v int32) { cnt.Inc(v) })
		}
	})
	return float64(fused) / float64(sets), float64(mat) / float64(sets)
}

// KernelSweep runs both kernels across the given datasets (default: the
// two canonical clones), both models, at 1 and the configured top worker
// count, recording wall-clock, allocation behavior, and the byte-
// identity of the selected seeds. Results land in kernel_sweep.csv.
func KernelSweep(cfg Config, datasets []string) ([]KernelRow, error) {
	if datasets == nil {
		datasets = []string{"web-Google", "com-Amazon"}
	}
	workerGrid := []int{1, cfg.Workers[len(cfg.Workers)-1]}
	if workerGrid[1] == 1 {
		workerGrid = workerGrid[:1]
	}
	const genSets = 4096
	var rows []KernelRow
	for _, name := range datasets {
		p, err := gen.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		if cfg.MaxScale > 0 && p.Scale > cfg.MaxScale {
			p.Scale = cfg.MaxScale
		}
		for _, model := range []graph.Model{graph.IC, graph.LT} {
			g, err := p.Generate(model, cfg.Seed)
			if err != nil {
				return nil, err
			}
			for _, workers := range workerGrid {
				opt := cfg.options(imm.Efficient, model, workers)

				opt.Kernel = imm.KernelFused
				var fusedRes *imm.Result
				fusedAllocs := mallocsAround(func() {
					fusedRes, err = imm.Run(g, opt)
				})
				if err != nil {
					return nil, fmt.Errorf("harness: kernel sweep %s/%v/w=%d: %w", name, model, workers, err)
				}

				opt.Kernel = imm.KernelMaterialized
				var matRes *imm.Result
				matAllocs := mallocsAround(func() {
					matRes, err = imm.Run(g, opt)
				})
				if err != nil {
					return nil, err
				}

				genFused, genMat := generationAllocs(g, opt, genSets)
				fw := float64(fusedRes.Breakdown.TotalWall) / float64(time.Millisecond)
				mw := float64(matRes.Breakdown.TotalWall) / float64(time.Millisecond)
				rows = append(rows, KernelRow{
					Dataset: name, Model: model.String(), Workers: workers,
					Theta:          fusedRes.Theta,
					FusedWallMS:    fw,
					MatWallMS:      mw,
					WallSpeedup:    safeDiv(mw, fw),
					FusedAllocs:    fusedAllocs,
					MatAllocs:      matAllocs,
					GenSets:        genSets,
					GenAllocsFused: genFused,
					GenAllocsMat:   genMat,
					AllocReduction: safeDiv(genMat, genFused),
					SeedsMatch:     fusedRes.Theta == matRes.Theta && sameSeeds(fusedRes.Seeds, matRes.Seeds),
				})
			}
		}
	}
	csv := [][]string{{"dataset", "model", "workers", "theta",
		"fused_wall_ms", "materialized_wall_ms", "wall_speedup",
		"fused_run_allocs", "materialized_run_allocs",
		"gen_sets", "gen_allocs_per_set_fused", "gen_allocs_per_set_materialized", "gen_alloc_reduction",
		"seeds_match"}}
	for _, r := range rows {
		csv = append(csv, []string{
			r.Dataset, r.Model, fmt.Sprint(r.Workers), i64(r.Theta),
			f2(r.FusedWallMS), f2(r.MatWallMS), f2(r.WallSpeedup),
			fmt.Sprint(r.FusedAllocs), fmt.Sprint(r.MatAllocs),
			i64(r.GenSets), f2(r.GenAllocsFused), f2(r.GenAllocsMat), f2(r.AllocReduction),
			fmt.Sprintf("%v", r.SeedsMatch),
		})
	}
	return rows, cfg.writeCSV("kernel_sweep.csv", csv)
}
