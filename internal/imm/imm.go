// Package imm implements Influence Maximization via Martingales (Tang et
// al., SIGMOD'15) with two interchangeable parallel engines:
//
//   - EngineRipples: a faithful Go port of the Ripples framework's
//     parallelization (Minutoli et al., CLUSTER'19) — static sampling
//     partitions, sorted RRR set lists, and a vertex-partitioned seed
//     selection in which every worker scans every RRR set with binary
//     search. This is the paper's baseline, bottlenecks included.
//
//   - EngineEfficient: the paper's EFFICIENTIMM — RRR-set partitioning
//     with a global atomic occurrence counter, kernel fusion of
//     generation and counting, adaptive set representation, adaptive
//     counter updates, and dynamic job balancing. Each optimization can
//     be toggled independently for ablation studies.
//
// The driver (Run) performs the martingale θ estimation shared by both
// engines and reports a per-phase wall-clock and modeled-work breakdown.
package imm

import (
	"fmt"
	"math"
	"time"

	"repro/internal/counter"
	"repro/internal/graph"
	"repro/internal/rrr"
	"repro/internal/stats"
)

// EngineKind selects the parallel implementation.
type EngineKind int

const (
	// Ripples is the baseline engine.
	Ripples EngineKind = iota
	// Efficient is the optimized engine (the paper's contribution).
	Efficient
)

func (e EngineKind) String() string {
	switch e {
	case Ripples:
		return "ripples"
	case Efficient:
		return "efficientimm"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(e))
	}
}

// ParseEngine converts an engine name to an EngineKind.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "ripples":
		return Ripples, nil
	case "efficient", "efficientimm", "eimm":
		return Efficient, nil
	}
	return 0, fmt.Errorf("imm: unknown engine %q (want ripples or efficientimm)", s)
}

// SelectionKind selects the Efficient engine's seed-selection kernel.
// Both kernels return byte-identical seed sequences; they differ only in
// how much work they do to find each argmax.
type SelectionKind int

const (
	// SelectCELF is the lazy-greedy selection over the pool's inverted
	// index — the default.
	SelectCELF SelectionKind = iota
	// SelectScan is the eager argmax-and-update kernel with the
	// decrement/rebuild counter strategies (the Figure 5 ablation path).
	SelectScan
)

func (s SelectionKind) String() string {
	if s == SelectScan {
		return "scan"
	}
	return "celf"
}

// ParseSelection converts a selection name ("celf" or "scan") to a
// SelectionKind.
func ParseSelection(s string) (SelectionKind, error) {
	switch s {
	case "celf", "lazy":
		return SelectCELF, nil
	case "scan", "eager":
		return SelectScan, nil
	}
	return 0, fmt.Errorf("imm: unknown selection %q (want celf or scan)", s)
}

// Options configures a Run. The zero value is not valid; use Defaults and
// override.
type Options struct {
	K       int     // seed set size
	Epsilon float64 // approximation parameter ε
	Ell     float64 // failure-probability exponent (quality 1 - n^-Ell)
	Workers int     // parallel workers
	Seed    uint64  // base RNG seed; runs are reproducible per seed
	Engine  EngineKind

	// EngineEfficient optimization switches (ignored by Ripples), the
	// paper's §IV. Each is a cold-Run toggle: the experiments below set it
	// for one cold Run, and the warm lifecycle — Freeze, ThawWarmEngine,
	// ApplyDelta, SetRemote, internal/dist — refuses any but the default
	// (ErrWarmOptions). Seeds are identical either way.

	// Fusion folds the counter build into generation; off in the
	// ablations' no-fusion row (ablations.csv).
	Fusion bool
	// AdaptiveRep stores dense sets as bitmap rows; off in the ablations'
	// no-adaptive-rep row and the memory sweep's slice-list pools
	// (memory_selection_sweep.csv).
	AdaptiveRep bool
	// Update is the scan kernel's seed-retirement counter maintenance:
	// Figure 5 prices Decrement against AdaptiveUpdate
	// (fig5_adaptive_update.csv), the ablations' scan-decrement and
	// scan-rebuild rows the two fixed strategies.
	Update counter.UpdateStrategy
	// DynamicBalance spreads generation over work-stealing deques; off in
	// the ablations' static-schedule row.
	DynamicBalance bool
	// Selection is the Efficient engine's selection kernel: SelectCELF,
	// or SelectScan in Figure 5, the ablations' scan-* rows and the
	// memory sweep's scan-cost column.
	Selection SelectionKind

	// BatchSize is the generation job granularity in RRR sets.
	BatchSize int
	// MaxTheta caps the number of RRR sets, guarding pathological LT
	// runs on tiny lower bounds. 0 means uncapped.
	MaxTheta int64
}

// Defaults returns the options used throughout the paper's evaluation:
// k=50, ε=0.5, all optimizations on.
func Defaults() Options {
	return Options{
		K:              50,
		Epsilon:        0.5,
		Ell:            1,
		Workers:        1,
		Seed:           1,
		Engine:         Efficient,
		Fusion:         true,
		AdaptiveRep:    true,
		Update:         counter.AdaptiveUpdate,
		DynamicBalance: true,
		Selection:      SelectCELF,
		BatchSize:      64,
	}
}

func (o *Options) normalize(g *graph.Graph) error {
	if g == nil || g.N == 0 {
		return fmt.Errorf("imm: empty graph")
	}
	if o.K <= 0 {
		return fmt.Errorf("imm: K must be positive, got %d", o.K)
	}
	if o.K > int(g.N) {
		o.K = int(g.N)
	}
	if !(o.Epsilon > 0 && o.Epsilon < 1) { // also rejects NaN
		return fmt.Errorf("imm: Epsilon must lie in (0,1), got %v", o.Epsilon)
	}
	if o.Ell <= 0 {
		o.Ell = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.BatchSize < 1 {
		o.BatchSize = 64
	}
	if o.Selection != SelectCELF && o.Selection != SelectScan {
		return fmt.Errorf("imm: unknown selection kind %d", int(o.Selection))
	}
	return nil
}

// Breakdown is the per-phase cost report. Wall durations are measured;
// Modeled values are critical-path work in abstract cost units (the
// maximum over workers of their accounted operations, summed across
// phase invocations), which is how the scaling figures extrapolate
// beyond the physical core count.
type Breakdown struct {
	SamplingWall  time.Duration
	SelectionWall time.Duration
	TotalWall     time.Duration

	SamplingModeled  float64
	SelectionModeled float64
}

// OtherWall returns driver overhead outside the two kernels.
func (b Breakdown) OtherWall() time.Duration {
	o := b.TotalWall - b.SamplingWall - b.SelectionWall
	if o < 0 {
		return 0
	}
	return o
}

// TotalModeled returns the summed modeled cost.
func (b Breakdown) TotalModeled() float64 { return b.SamplingModeled + b.SelectionModeled }

// Result is the outcome of a Run.
type Result struct {
	Seeds    []int32
	Coverage float64 // fraction of final RRR sets covered by Seeds
	Theta    int64   // final number of RRR sets
	Rounds   int     // θ-estimation iterations executed
	LB       float64 // OPT lower bound from the estimation loop

	Breakdown Breakdown
	SetStats  rrr.Stats
	// Pool is the peak resident footprint of the RRR pool: set bytes,
	// inverted-index bytes, and the plain-slice baseline the compression
	// ratio is measured against.
	Pool PoolFootprint

	Engine  EngineKind
	Workers int
}

// Engine is the contract the θ-estimation driver programs against. It is
// exported so front-ends can wrap an engine and drive it through exactly
// the same martingale loop as Run, which is what guarantees their θ
// trajectory (rounds, lower bound, final θ) matches the shared-memory
// engines sample for sample. internal/dist wraps a WarmEngine whose pool
// extensions come from its rank generator, adding the seed broadcast to
// SelectSeeds and the ranks' critical path to Breakdown.
type Engine interface {
	// Generate extends the pool to at least target sets.
	Generate(target int64)
	// SelectSeeds greedily picks k seeds without consuming the pool and
	// returns them with the covered fraction.
	SelectSeeds(k int) ([]int32, float64)
	// SetCount returns the current pool size.
	SetCount() int64
	// Stats summarizes the pool representations.
	Stats() rrr.Stats
	// PoolFootprint reports the resident pool bytes (sets, index, and
	// the raw-slice baseline).
	PoolFootprint() PoolFootprint
	// Breakdown returns accumulated phase costs.
	Breakdown() Breakdown
}

// Run executes IMM on g and returns the selected seeds: the Ripples
// baseline on its own engine, the Efficient engine on a fresh WarmEngine.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	if err := opt.normalize(g); err != nil {
		return nil, err
	}
	switch opt.Engine {
	case Ripples:
		return RunEngine(g, opt, newRipplesEngine(g, opt))
	case Efficient:
		w, err := NewWarmEngine(g, opt)
		if err != nil {
			return nil, err
		}
		return RunEngine(g, opt, w)
	}
	return nil, fmt.Errorf("imm: unknown engine %v", opt.Engine)
}

// thetaParams bundles the (n, k, ε, ℓ)-derived constants of the
// martingale θ estimation. They are extracted from RunEngine so the
// batched serving planner can rank queries by their sampling
// requirement (λ′ scales every estimation round's sample target, and —
// modulo the adaptive lower bound — the final θ) without duplicating
// the formulas. The arithmetic must stay expression-identical to the
// historical inline version: the CI bench gate pins θ exactly.
type thetaParams struct {
	n        float64
	l        float64 // union-bound-adjusted failure exponent (Tang et al., §4.2)
	logCNK   float64
	epsPrime float64
	// lambdaPrime is the numerator of every estimation round's target:
	// round i samples ceil(λ′ / x_i) sets with x_i = n/2^i.
	lambdaPrime float64
}

func newThetaParams(nodes int32, k int, ell, eps float64) thetaParams {
	tp := thetaParams{n: float64(nodes)}
	// Union-bound adjustment so the final guarantee holds across the
	// estimation iterations (Tang et al., §4.2).
	tp.l = ell * (1 + math.Ln2/math.Log(tp.n))
	tp.logCNK = stats.LogCNK(int64(nodes), int64(k))
	tp.epsPrime = math.Sqrt2 * eps
	term := tp.logCNK + tp.l*math.Log(tp.n) + math.Log(math.Max(math.Log2(tp.n), 1))
	tp.lambdaPrime = (2 + 2.0/3.0*tp.epsPrime) * term * tp.n / (tp.epsPrime * tp.epsPrime)
	return tp
}

// lambdaStar is the final sampling bound: θ = ceil(λ* / LB).
func (tp thetaParams) lambdaStar(eps float64) float64 {
	alpha := math.Sqrt(tp.l*math.Log(tp.n) + math.Ln2)
	beta := math.Sqrt((1 - 1/math.E) * (tp.logCNK + tp.l*math.Log(tp.n) + math.Ln2))
	return 2 * tp.n * math.Pow((1-1/math.E)*alpha+beta, 2) / (eps * eps)
}

// samplingRequirement ranks a (k, ε) query by how many RRR sets its
// trajectory asks for relative to other queries on the same graph: λ′
// is monotone in the per-round targets, and in practice orders the
// final θ too (smaller ε and larger k both demand more samples). The
// batch planner executes members in descending requirement so the
// largest member's extension covers the rest.
func samplingRequirement(g *graph.Graph, k int, ell, eps float64) float64 {
	if k > int(g.N) {
		k = int(g.N) // mirror Options.normalize's clamp
	}
	return newThetaParams(g.N, k, ell, eps).lambdaPrime
}

// RunEngine executes the IMM driver — iterative-doubling θ estimation
// followed by the final λ*-sized sampling and selection — against a
// caller-supplied Engine. Run delegates here; so do the serving layer
// (a WarmEngine per query) and internal/dist (a WarmEngine fed by its rank
// generator), which is how both inherit the identical sampling trajectory.
func RunEngine(g *graph.Graph, opt Options, eng Engine) (*Result, error) {
	if err := opt.normalize(g); err != nil {
		return nil, err
	}
	t0 := time.Now()
	// generate extends eng's pool to theta sets, refusing a theta past what
	// shardedPool's 32-bit set ids can name — the pool behind every engine
	// but the Ripples baseline.
	generate := func(theta int64) error {
		if _, unbounded := eng.(*ripplesEngine); theta > maxPoolSets && !unbounded {
			return fmt.Errorf("imm: θ = %d exceeds the %d-set pool bound; cap it with MaxTheta or loosen ε", theta, int64(maxPoolSets))
		}
		eng.Generate(theta)
		return nil
	}

	tp := newThetaParams(g.N, opt.K, opt.Ell, opt.Epsilon)
	n := tp.n
	k := opt.K
	epsPrime := tp.epsPrime

	// Sampling phase: iterative doubling to bound OPT from below.
	lb := 1.0
	rounds := 0
	if g.N > 1 {
		lambdaPrime := tp.lambdaPrime
		maxIter := int(math.Log2(n))
		for i := 1; i < maxIter; i++ {
			x := n / math.Pow(2, float64(i))
			thetaI := int64(math.Ceil(lambdaPrime / x))
			capped := false
			if opt.MaxTheta > 0 && thetaI > opt.MaxTheta {
				thetaI = opt.MaxTheta
				capped = true
			}
			if err := generate(thetaI); err != nil {
				return nil, err
			}
			rounds++
			_, cov := eng.SelectSeeds(k)
			if n*cov >= (1+epsPrime)*x {
				lb = n * cov / (1 + epsPrime)
				break
			}
			if capped {
				// Cannot sample further; accept the current estimate.
				lb = math.Max(1, n*cov/(1+epsPrime))
				break
			}
		}
	}

	// Final θ from the martingale bound λ*.
	theta := int64(math.Ceil(tp.lambdaStar(opt.Epsilon) / lb))
	if theta < 1 {
		theta = 1
	}
	if opt.MaxTheta > 0 && theta > opt.MaxTheta {
		theta = opt.MaxTheta
	}
	if err := generate(theta); err != nil {
		return nil, err
	}

	// Selection phase.
	seeds, cov := eng.SelectSeeds(k)

	bd := eng.Breakdown()
	bd.TotalWall = time.Since(t0)
	return &Result{
		Seeds:     seeds,
		Coverage:  cov,
		Theta:     eng.SetCount(),
		Rounds:    rounds,
		LB:        lb,
		Breakdown: bd,
		SetStats:  eng.Stats(),
		Pool:      eng.PoolFootprint(),
		Engine:    opt.Engine,
		Workers:   opt.Workers,
	}, nil
}
