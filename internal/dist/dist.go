// Package dist extends the IMM engine across message-passing ranks — the
// MPI extension the paper (Wu et al., SC 2024) lists as future work. Its
// one rank runtime is a slot generator that splits each pool extension
// into one chunk per rank (worker processes over the wire, or goroutines
// in a simulated run) and meters the exchanges into a Comm report. It
// feeds the serving engine (imm.WarmEngine), and ranks draw from the
// slot-indexed RNG streams, so Run returns imm.Run's answer at the same
// Seed and MaxTheta — the property the tests pin — plus what the
// distribution would cost on a real interconnect.
package dist

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
)

// Options configures a distributed run. The embedded imm.Options carry
// the algorithmic parameters (K, Epsilon, Seed, MaxTheta), which the
// root's engine honours exactly as imm.Run does; Workers is the root's
// thread count, used by its index and selection kernels. The §IV switches
// must keep their defaults: the root is a warm engine with a rank
// generator attached, and a run that sets one is refused with
// imm.ErrWarmOptions before any round is sent.
type Options struct {
	imm.Options

	// Ranks is the number of simulated message-passing ranks. 1 degrades
	// to a communication-free run equivalent to imm.Run.
	//
	// The embedded Engine field is ignored: the distributed runtime
	// always runs the EfficientIMM engine (rank-partitioned generation,
	// root-side selection), and Run normalizes the field so results are
	// labeled accordingly. Seeds are unaffected either way — both
	// shared-memory engines select identical seeds on the same pool.
	Ranks int
}

// DefaultOptions returns the paper's evaluation parameters (k=50, ε=0.5,
// all optimizations on) across 4 simulated ranks.
func DefaultOptions() Options {
	return Options{Options: imm.Defaults(), Ranks: 4}
}

// Result is the outcome of a distributed run: the shared-memory result
// fields plus the rank count and the metered communication volume.
type Result struct {
	imm.Result

	Ranks int
	Comm  Comm
}

// Run executes IMM on g across opt.Ranks simulated ranks. The θ
// estimation follows exactly the shared-memory driver (imm.RunEngine),
// so the sampling trajectory, final θ, and selected seeds match imm.Run
// at the same Seed and MaxTheta.
func Run(g *graph.Graph, opt Options) (*Result, error) { return run(g, opt, nil) }

// RunCluster executes IMM with the non-root ranks' generation running on
// real worker processes over the framed TCP transport: rank chunks go
// out as Round requests, their sets come back and join the root's pool,
// and seed selections are broadcast back out. cl is the root's connected
// Cluster; opt.Ranks, when zero, defaults to the cluster size and must
// otherwise match it. Seeds are byte-identical to Run and to the
// shared-memory imm.Run at the same Seed and MaxTheta — workers generate
// from the same slot-indexed streams, and any unreachable worker's chunk
// is regenerated locally (counted in Comm.Failovers and cl.Failovers).
//
// The returned Comm carries both accounts: the modeled figures (same as
// a simulated run at this rank count, plus the graph broadcast) and the
// measured bytes-on-the-wire this run actually moved, taken as the delta
// of cl's meter.
func RunCluster(g *graph.Graph, opt Options, cl *Cluster) (*Result, error) {
	if cl == nil {
		return Run(g, opt)
	}
	if opt.Ranks == 0 {
		opt.Ranks = cl.Ranks()
	}
	if opt.Ranks != cl.Ranks() {
		return nil, fmt.Errorf("dist: Ranks=%d does not match the %d-rank cluster", opt.Ranks, cl.Ranks())
	}
	sent, recv, msgs := cl.MeterTotals()
	res, err := run(g, opt, cl)
	if err != nil {
		return nil, err
	}
	// Model the graph broadcast at the snapshot wire size per non-root
	// rank — the same convention as RunSnapshot — so the modeled and
	// measured columns price the same set of exchanges.
	if ranks := int64(opt.Ranks); ranks > 1 {
		if sg, err := cl.share(g, runHint, opt.Seed); err == nil {
			res.Comm.record(&res.Comm.GraphBroadcast, ranks-1, (ranks-1)*int64(len(sg.snap)))
		}
	}
	s, r, m := cl.MeterTotals()
	res.Comm.MeasuredBytesSent, res.Comm.MeasuredBytesReceived, res.Comm.MeasuredMessages = s-sent, r-recv, m-msgs
	return res, nil
}

// runHint names a run's graph in the cluster's broadcast messages.
const runHint = "run"

// run is the one body under Run and RunCluster: the warm engine (its
// pool, index and CELF) with every pool extension sourced through
// the rank generator; cl == nil generates every chunk locally.
func run(g *graph.Graph, opt Options, cl *Cluster) (*Result, error) {
	if opt.Ranks < 1 {
		return nil, fmt.Errorf("dist: Ranks must be at least 1, got %d", opt.Ranks)
	}
	if g == nil || g.N == 0 {
		return nil, fmt.Errorf("dist: empty graph")
	}
	// The distributed runtime is the EfficientIMM kernel family; label
	// the result as such even if the caller passed Ripples.
	opt.Engine = imm.Efficient
	w, err := imm.NewWarmEngine(g, opt.Options)
	if err != nil {
		return nil, err
	}
	gen := &clusterGen{c: cl, ranks: int64(opt.Ranks), g: g, hint: runHint, policy: imm.PolicyFromOptions(opt.Options), seed: opt.Seed}
	if err := w.SetRemote(gen); err != nil {
		return nil, err
	}
	res, err := imm.RunEngine(g, opt.Options, &rankEngine{WarmEngine: w, gen: gen})
	if err != nil {
		return nil, err
	}
	return &Result{Result: *res, Ranks: opt.Ranks, Comm: gen.comm}, nil
}

// rankEngine is the warm engine as the driver sees it in a distributed
// run: the root's selections are broadcast to the other ranks, and the
// sampling phase costs what the slowest rank's chunks cost.
type rankEngine struct {
	*imm.WarmEngine
	gen *clusterGen
}

// SelectSeeds selects at the root, then books the SeedBroadcast (seed ids
// plus the coverage, to every non-root rank) and, on a cluster, sends it
// — best-effort: the selection is already decided, the broadcast only
// lets workers observe the stopping rule.
func (e *rankEngine) SelectSeeds(k int) ([]int32, float64) {
	seeds, cov := e.WarmEngine.SelectSeeds(k)
	if ranks := e.gen.ranks; ranks > 1 {
		payload := int64(len(seeds))*4 + 8
		e.gen.comm.record(&e.gen.comm.SeedBroadcast, ranks-1, (ranks-1)*payload)
	}
	if e.gen.c != nil {
		e.gen.c.BroadcastSeeds(seeds, cov)
	}
	return seeds, cov
}

// Breakdown reports the rank generator's critical path as the sampling
// phase's modeled cost.
func (e *rankEngine) Breakdown() imm.Breakdown {
	bd := e.WarmEngine.Breakdown()
	bd.SamplingModeled = float64(e.gen.sampling)
	return bd
}

// RunSnapshot executes a distributed run whose input graph rank 0 loads
// from a binary .imsnap snapshot (internal/ingest) and broadcasts to
// the other ranks — the deployment shape of a real MPI job, where only
// the root touches the shared filesystem. The broadcast is metered into
// Comm.GraphBroadcast at the snapshot's wire size per non-root rank.
// Seeds are identical to Run on the equivalently ingested graph.
func RunSnapshot(path string, opt Options) (*Result, error) {
	g, info, err := ingest.ReadSnapshotFile(path)
	if err != nil {
		return nil, fmt.Errorf("dist: rank 0 snapshot load: %w", err)
	}
	res, err := Run(g, opt)
	if err != nil {
		return nil, err
	}
	if ranks := int64(opt.Ranks); ranks > 1 {
		res.Comm.record(&res.Comm.GraphBroadcast, ranks-1, (ranks-1)*info.Bytes)
	}
	return res, nil
}
