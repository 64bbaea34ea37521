// Package efficientimm is a Go implementation of EfficientIMM —
// "Enhancing Scalability and Performance in Influence Maximization with
// Optimized Parallel Processing" (SC 2024) — together with a faithful
// port of the Ripples baseline it is evaluated against.
//
// Influence Maximization selects k seed vertices of a social graph that
// maximize the expected diffusion spread under the Independent Cascade
// (IC) or Linear Threshold (LT) model. Both engines implement the IMM
// algorithm of Tang et al. (SIGMOD'15); they differ in how the two hot
// kernels — Generate_RRRsets and Find_Most_Influential_Set — are
// parallelized. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the reproduction of every table and figure in the paper.
//
// Quick start:
//
//	g, err := efficientimm.GenerateProfile("web-Google", efficientimm.IC, 1)
//	if err != nil { ... }
//	opt := efficientimm.Defaults()
//	opt.K = 50
//	opt.Workers = runtime.NumCPU()
//	res, err := efficientimm.Run(g, opt)
//	// res.Seeds are the chosen influencers.
package efficientimm

import (
	"io"

	"repro/internal/diffusion"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while giving users one import.
type (
	// Graph is an immutable CSR directed graph with diffusion
	// parameters. Construct through Load*, Generate* or Builder.
	Graph = graph.Graph
	// Model selects the diffusion model (IC or LT).
	Model = graph.Model
	// Edge is a directed edge for Builder-based construction.
	Edge = graph.Edge
	// Builder accumulates edges into a Graph.
	Builder = graph.Builder
	// Options configures Run.
	Options = imm.Options
	// Result carries the selected seeds and run statistics.
	Result = imm.Result
	// EngineKind selects the parallel engine.
	EngineKind = imm.EngineKind
	// Breakdown is the per-phase cost report inside Result.
	Breakdown = imm.Breakdown
	// SelectionKind selects the seed-selection kernel (CELF or scan).
	SelectionKind = imm.SelectionKind
	// PoolFootprint reports resident pool bytes inside Result.
	PoolFootprint = imm.PoolFootprint
	// CoverageStats summarizes RRR-set sizes (Table I methodology).
	CoverageStats = diffusion.CoverageStats
	// Profile describes a calibrated clone of one of the paper's SNAP
	// datasets.
	Profile = gen.Profile
)

// Diffusion models.
const (
	IC = graph.IC
	LT = graph.LT
)

// Engines.
const (
	// EngineRipples is the baseline (Minutoli et al.).
	EngineRipples = imm.Ripples
	// EngineEfficient is the paper's EfficientIMM.
	EngineEfficient = imm.Efficient
)

// Selection kernels.
const (
	// SelectCELF is the lazy-greedy selection (default).
	SelectCELF = imm.SelectCELF
	// SelectScan is the eager argmax-and-update selection.
	SelectScan = imm.SelectScan
)

// Defaults returns the paper's evaluation options (k=50, ε=0.5, all
// optimizations enabled). Set Workers explicitly.
func Defaults() Options { return imm.Defaults() }

// Run executes IMM on g and returns the seed set with statistics.
func Run(g *Graph, opt Options) (*Result, error) { return imm.Run(g, opt) }

// ParseModel converts "IC"/"LT" to a Model.
func ParseModel(s string) (Model, error) { return graph.ParseModel(s) }

// ParseEngine converts "ripples"/"efficientimm" to an EngineKind.
func ParseEngine(s string) (EngineKind, error) { return imm.ParseEngine(s) }

// ParseSelection converts "celf"/"scan" to a SelectionKind.
func ParseSelection(s string) (SelectionKind, error) { return imm.ParseSelection(s) }

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int32) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an explicit edge list with model
// parameters drawn from seed.
func FromEdges(n int32, edges []Edge, model Model, seed uint64) (*Graph, error) {
	return graph.FromEdges(n, edges, model, seed)
}

// LoadEdgeList reads a SNAP-style edge list ("src dst" per line, '#'
// and '%' comments) and assigns model parameters from seed. It runs the
// parallel ingestion pipeline on all CPUs; the result is byte-identical
// to the sequential loader at any worker count. Use Ingest for control
// over workers, the dedupe policy, and throughput stats.
func LoadEdgeList(r io.Reader, undirected bool, model Model, seed uint64) (*Graph, error) {
	g, _, err := ingest.Reader(r, IngestOptions{Undirected: undirected, Model: model, Seed: seed})
	return g, err
}

// LoadEdgeListFile opens path and ingests it in parallel (see
// LoadEdgeList).
func LoadEdgeListFile(path string, undirected bool, model Model, seed uint64) (*Graph, error) {
	g, _, err := ingest.File(path, IngestOptions{Undirected: undirected, Model: model, Seed: seed})
	return g, err
}

// Parallel ingestion and the binary snapshot codec (internal/ingest).
type (
	// IngestOptions configures the parallel edge-list pipeline.
	IngestOptions = ingest.Options
	// IngestStats reports ingest throughput and dedupe counts.
	IngestStats = ingest.Stats
	// SnapshotInfo is the header metadata of a .imsnap snapshot.
	SnapshotInfo = ingest.SnapshotInfo
)

// SnapshotExt is the conventional file extension of binary graph
// snapshots (".imsnap"); the CLIs key format autodetection on it.
const SnapshotExt = ingest.SnapshotExt

// Dedupe policies for IngestOptions.
const (
	// DedupeSilent drops self-loops and duplicate edges (the Builder
	// semantics; default).
	DedupeSilent = ingest.DedupeSilent
	// DedupeStrict fails ingestion when the input contains any.
	DedupeStrict = ingest.DedupeStrict
)

// Ingest runs the chunked parallel ingestion pipeline over an edge-list
// stream. The produced graph is byte-identical at every worker count.
func Ingest(r io.Reader, opt IngestOptions) (*Graph, IngestStats, error) {
	return ingest.Reader(r, opt)
}

// IngestFile ingests an edge-list file with parallel reads and parses.
func IngestFile(path string, opt IngestOptions) (*Graph, IngestStats, error) {
	return ingest.File(path, opt)
}

// WriteSnapshot writes g as a versioned, checksummed binary .imsnap
// snapshot; seed records the weight-assignment provenance. Reloading a
// snapshot reproduces the exact graph — and therefore the exact seeds —
// of the original ingestion, in milliseconds.
func WriteSnapshot(w io.Writer, g *Graph, seed uint64) error { return ingest.WriteSnapshot(w, g, seed) }

// WriteSnapshotFile creates path and writes the snapshot.
func WriteSnapshotFile(path string, g *Graph, seed uint64) error {
	return ingest.WriteSnapshotFile(path, g, seed)
}

// ReadSnapshot reads a .imsnap snapshot, verifying its checksums.
func ReadSnapshot(r io.Reader) (*Graph, SnapshotInfo, error) { return ingest.ReadSnapshot(r) }

// ReadSnapshotFile opens path and delegates to ReadSnapshot.
func ReadSnapshotFile(path string) (*Graph, SnapshotInfo, error) {
	return ingest.ReadSnapshotFile(path)
}

// Streaming edge deltas (internal/graph.ApplyDelta and the .imdelta
// codec in internal/ingest).
type (
	// Delta is one batch of edge insertions and removals to apply to a
	// graph; weights for added edges derive deterministically from
	// Delta.Seed unless AddProb pins them.
	Delta = graph.Delta
	// DeltaApplyOptions selects strict (fail on drops) or silent
	// application, mirroring the Dedupe ingestion policies.
	DeltaApplyOptions = graph.DeltaOptions
	// DeltaReport accounts one application: edges added/removed,
	// entries dropped, and the dirty-vertex frontier pool repair
	// works from.
	DeltaReport = graph.DeltaReport
	// DeltaInfo is the header metadata of a .imdelta file.
	DeltaInfo = ingest.DeltaInfo
)

// DeltaExt is the conventional file extension of binary edge-delta
// batches (".imdelta").
const DeltaExt = ingest.DeltaExt

// ApplyDelta applies one edge delta to g, returning a new CSR epoch
// (g is never mutated) and the application report. The result is
// byte-identical to rebuilding the post-delta edge set from scratch
// with the same seeds, so warm pools repaired against it (see
// Server.ApplyDelta) answer exactly as cold pools would.
func ApplyDelta(g *Graph, d Delta, opt DeltaApplyOptions) (*Graph, *DeltaReport, error) {
	return graph.ApplyDelta(g, d, opt)
}

// WriteDelta writes d as a versioned, checksummed binary .imdelta batch.
func WriteDelta(w io.Writer, d Delta) error { return ingest.WriteDelta(w, d) }

// WriteDeltaFile creates path and writes the delta batch.
func WriteDeltaFile(path string, d Delta) error { return ingest.WriteDeltaFile(path, d) }

// ReadDelta reads a .imdelta batch, verifying its checksums.
func ReadDelta(r io.Reader) (Delta, DeltaInfo, error) { return ingest.ReadDelta(r) }

// ReadDeltaFile opens path and delegates to ReadDelta.
func ReadDeltaFile(path string) (Delta, DeltaInfo, error) { return ingest.ReadDeltaFile(path) }

// WriteEdgeList writes the graph's forward edges as SNAP-style text.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// WriteEdgeListFile saves the graph's forward edges as a SNAP-style
// text file.
func WriteEdgeListFile(path string, g *Graph) error { return graph.WriteEdgeListFile(path, g) }

// Profiles returns the eight calibrated SNAP-dataset clones from the
// paper's Table I.
func Profiles() []Profile { return gen.Profiles() }

// GenerateProfile materializes one named dataset clone ("com-Amazon",
// "web-Google", "twitter7", ...).
func GenerateProfile(name string, model Model, seed uint64) (*Graph, error) {
	p, err := gen.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return p.Generate(model, seed)
}

// GenerateRMAT produces a directed R-MAT graph with Graph500 skew:
// 2^scale vertices and ~edgeFactor·2^scale edges.
func GenerateRMAT(scale int, edgeFactor float64, model Model, seed uint64) (*Graph, error) {
	return gen.RMAT(gen.DefaultRMAT(scale, edgeFactor), model, seed)
}

// GenerateBarabasiAlbert produces a preferential-attachment graph with k
// undirected links per new vertex.
func GenerateBarabasiAlbert(n int32, k int, model Model, seed uint64) (*Graph, error) {
	return gen.BarabasiAlbert(n, k, model, seed)
}

// GenerateErdosRenyi produces a uniform random directed graph with m
// edges.
func GenerateErdosRenyi(n int32, m int64, model Model, seed uint64) (*Graph, error) {
	return gen.ErdosRenyi(n, m, model, seed)
}

// GenerateWattsStrogatz produces a small-world graph (ring lattice with
// k neighbors per side, rewiring probability beta).
func GenerateWattsStrogatz(n int32, k int, beta float64, model Model, seed uint64) (*Graph, error) {
	return gen.WattsStrogatz(n, k, beta, model, seed)
}

// DistOptions configures RunDistributed.
type DistOptions = dist.Options

// DistResult is the outcome of a distributed run, including the
// measured communication volume.
type DistResult = dist.Result

// DefaultDistOptions returns the paper's parameters on 4 simulated
// ranks.
func DefaultDistOptions() DistOptions { return dist.DefaultOptions() }

// RunDistributed executes IMM across simulated message-passing ranks —
// the MPI extension the paper lists as future work. It produces exactly
// the same seeds as Run on the same seed, and reports the communication
// volume the distribution costs.
func RunDistributed(g *Graph, opt DistOptions) (*DistResult, error) { return dist.Run(g, opt) }

// RunDistributedSnapshot is RunDistributed with the input graph loaded
// by rank 0 from a .imsnap snapshot and broadcast to the other ranks
// (metered into Comm.GraphBroadcast).
func RunDistributedSnapshot(path string, opt DistOptions) (*DistResult, error) {
	return dist.RunSnapshot(path, opt)
}

// DistComm is the per-phase communication bill of a distributed run:
// modeled bytes/messages for every phase boundary, plus — on networked
// runs — the measured bytes actually sent over TCP and the count of
// locally-redone failover rounds.
type DistComm = dist.Comm

// ClusterConfig places one process in a networked cluster: Rank 0 is
// the root (driver or query front-end), every other rank serves
// generation rounds at its Peers address. It is the one validated
// struct the CLIs, the facade, and the library share — call
// ClusterConfig.Validate before use.
type ClusterConfig = dist.ClusterConfig

// ClusterOptions tunes the cluster transport (dial/frame timeouts,
// reconnect backoff).
type ClusterOptions = dist.ClusterOptions

// Cluster is the root's side of a networked distributed run: one framed
// TCP connection per worker rank, with a measured bytes-on-the-wire
// meter and per-chunk local failover.
type Cluster = dist.Cluster

// RankWorker is a worker rank's server loop: it listens for graph
// broadcasts and generation rounds from the root.
type RankWorker = dist.RankServer

// DefaultClusterOptions returns transport settings suited to LAN and
// loopback clusters.
func DefaultClusterOptions() ClusterOptions { return dist.DefaultClusterOptions() }

// ConnectCluster dials and handshakes every worker rank from the root
// (cfg.Rank must be 0). Close the cluster when done.
func ConnectCluster(cfg ClusterConfig, opt ClusterOptions) (*Cluster, error) {
	return dist.Connect(cfg, opt)
}

// ListenRank starts a worker rank's wire listener on addr (host:port,
// or ":0" for an ephemeral port — read it back with RankWorker.Addr).
// Call RankWorker.Serve to run the accept loop.
func ListenRank(addr string, opt ClusterOptions) (*RankWorker, error) {
	return dist.ListenRank(addr, opt)
}

// RunClusterDistributed is RunDistributed with the non-root ranks'
// generation executed by the cluster's remote worker processes over
// TCP. Seeds are byte-identical to Run and to RunDistributed; the
// result's Comm additionally carries the measured wire bytes next to
// the modeled figures.
func RunClusterDistributed(g *Graph, opt DistOptions, cl *Cluster) (*DistResult, error) {
	return dist.RunCluster(g, opt, cl)
}

// UseWeightedCascade replaces the graph's IC probabilities with the
// classic weighted-cascade assignment p(u,v) = 1/indegree(v), the
// standard benchmark setting when uniform probabilities would saturate
// the cascade.
func UseWeightedCascade(g *Graph) { graph.AssignWC(g) }

// Transpose returns the reverse graph (IC only): run IMM on it to find
// the vertices most influenced rather than most influential — the
// outbreak-detection dual.
func Transpose(g *Graph) (*Graph, error) { return g.Transpose() }

// EstimateSpread estimates σ(seeds) with runs forward Monte-Carlo
// cascades split over workers — use it to validate or report the reach
// of a seed set.
func EstimateSpread(g *Graph, seeds []int32, runs, workers int, seed uint64) float64 {
	return diffusion.EstimateSpread(g, seeds, runs, workers, seed)
}

// MeasureCoverage samples RRR sets and reports their size distribution,
// the Table I characterization.
func MeasureCoverage(g *Graph, samples, workers int, seed uint64) CoverageStats {
	return diffusion.MeasureCoverage(g, samples, workers, seed)
}
