// Package serve is the warm-pool query service: a long-running engine
// that holds a registry of ingested graphs and answers (graph, k, ε,
// seed) seed-set queries by reusing per-graph RRR pools across
// queries instead of sampling from scratch per invocation.
//
// Key types: Server (the registry plus the warm-pool cache), Options
// (engine configuration shared by every query), QueryRequest/QueryResult
// (the query protocol, also the HTTP JSON schema), Job (the async query
// protocol), and Stats (the service counters the /stats endpoint
// reports).
//
// Invariants:
//
//   - Served answers are byte-identical to a cold imm.Run with the same
//     (graph, model, k, epsilon, rngSeed): pools are reused through
//     imm.WarmEngine, whose limited-view selection replays exactly the
//     cold θ trajectory (see internal/imm/warm.go for the argument).
//   - One warm engine exists per (graph, rngSeed) pair. Concurrent
//     queries against the same pool are gathered into a batch and
//     answered by one shared θ-extension (imm.WarmEngine.AnswerBatch);
//     queries against different pools run concurrently.
//   - Identical concurrent queries are deduplicated single-flight: one
//     leader computes, followers receive a copy of its result.
//   - Execution is bounded: at most QueryWorkers queries run at once,
//     at most QueueDepth wait for a slot, and the overflow is rejected
//     with ErrOverloaded (backpressure, not collapse).
//   - Resident pool bytes across all warm engines are bounded by
//     Options.PoolBudgetBytes with least-recently-used eviction;
//     in-flight pools — and the pool the finishing query just used —
//     are never evicted.
package serve

import (
	"container/list"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
)

// DefaultPoolBudgetBytes bounds resident warm-pool bytes when
// Options.PoolBudgetBytes is zero: 1 GiB, roomy for dozens of
// laptop-scale pools while still exercising eviction under load.
const DefaultPoolBudgetBytes = 1 << 30

// DefaultQueueDepth is the admission wait-queue bound applied when
// Options.QueueDepth is zero: generous enough that ordinary bursts
// queue rather than bounce, small enough that a stampede sheds load
// instead of accumulating unbounded latency.
const DefaultQueueDepth = 256

// DefaultGatherWindow is the batch gather window applied when
// Options.GatherWindow is zero: long enough for a concurrent burst to
// coalesce into one shared extension, short enough to be noise against
// a cold or extending query's cost. A warm repeat costs microseconds and
// a promotion from the disk tier a fraction of a millisecond, which is
// why a sequential client's repeat and a promoting leader skip the
// window (see Options.GatherWindow).
const DefaultGatherWindow = 2 * time.Millisecond

// Options configures a Server. The engine-shaping fields apply to every
// query; per-query parameters (k, ε, RNG seed) arrive in QueryRequest.
type Options struct {
	// Workers is the per-query parallelism. <= 0 means 1 (matching
	// imm.Options normalization).
	Workers int
	// MaxTheta caps sampling per query (0 = per-theory). It participates
	// in the cold-equivalence contract: a cold run must use the same cap.
	MaxTheta int64
	// PoolBudgetBytes bounds the summed resident footprint of all warm
	// pools; least-recently-used pools are dropped when a query pushes
	// past it. 0 means DefaultPoolBudgetBytes.
	PoolBudgetBytes int64
	// PoolDir, when non-empty, enables the two-tier pool cache: pools
	// squeezed out by PoolBudgetBytes are demoted to .impool snapshots
	// under this directory instead of dropped, and promoted back via
	// mmap on next touch. It is also the default target of SavePools and
	// the directory LoadPools rehydrates at boot (see tier.go).
	PoolDir string

	// QueryWorkers bounds how many queries execute (or wait inside a
	// pool batch) at once. <= 0 means 4 × runtime.GOMAXPROCS(0):
	// members hold a worker slot while they gather but idle doing so,
	// and same-pool engine runs serialize anyway, so admission
	// oversubscribes the cores to let bursts batch. Batching across a
	// concurrent burst needs QueryWorkers at least as large as the
	// burst.
	QueryWorkers int
	// QueueDepth bounds how many queries may wait for a worker slot
	// beyond the ones executing; the overflow fails fast with
	// ErrOverloaded. 0 means DefaultQueueDepth; negative disables
	// waiting entirely (no slot free → immediate rejection). Async jobs
	// wait for a slot regardless of the bound — their queue is the jobs
	// table itself.
	QueueDepth int
	// GatherWindow is how long the first query to reach an idle pool
	// waits for concurrent queries on the same pool to join its batch
	// before draining. The wait is skipped when the pool's previous
	// drain answered exactly one query from the resident pool without
	// growing it and ended less than one GatherWindow ago: the same
	// client came straight back, and no burst is forming. It is also
	// skipped when the pool sits in the disk tier: the leader promotes
	// it, which generates nothing a joiner could share. 0 means
	// DefaultGatherWindow; negative disables gathering (the leader
	// drains immediately, batching only what arrived while a previous
	// drain held the pool).
	GatherWindow time.Duration

	// RemoteGen, when non-nil, supplies a distributed slot generator for
	// each newly built warm pool (name is the registry graph name, opt
	// the engine options including the pool's RNG seed) — the hook the
	// cluster mode of immserver uses to source pool extensions from
	// worker ranks (dist.Cluster.PoolGenerator matches this signature).
	// Returning nil keeps that pool purely local. The generator contract
	// (imm.SlotGenerator) guarantees attached and detached answers are
	// byte-identical; only where the sampling runs changes.
	RemoteGen func(name string, g *graph.Graph, opt imm.Options) imm.SlotGenerator
	// WireMeter, when non-nil, reports the cluster transport's measured
	// bytes-on-the-wire totals for Stats.
	WireMeter func() (bytesSent, bytesReceived, messages int64)
	// RemoteFailovers, when non-nil, reports how many remote generation
	// chunks fell back to local sampling, for Stats.
	RemoteFailovers func() int64
}

// EngineOptions returns the imm options a server configured by o runs
// every query with (the per-query K, Epsilon, and Seed still to be
// filled in). It is the one place the serve→imm mapping lives: cold
// reference runs that must match served answers byte-for-byte should
// derive their options here rather than re-deriving them from
// imm.Defaults.
func (o Options) EngineOptions() imm.Options {
	b := imm.Defaults()
	b.Engine = imm.Efficient // warm reuse requires the Efficient engine
	b.Workers = o.Workers
	b.MaxTheta = o.MaxTheta
	return b
}

// GraphInfo describes one registered graph.
type GraphInfo struct {
	Name  string `json:"name"`
	Nodes int32  `json:"nodes"`
	Edges int64  `json:"edges"`
	Model string `json:"model"`
	// WeightSeed is the diffusion-weight provenance (the ingestion seed,
	// recorded in .imsnap headers). It is distinct from a query's RNG
	// seed, which seeds RRR sampling only.
	WeightSeed uint64 `json:"weight_seed"`
	// Epoch counts the graph's applied deltas: 0 at registration,
	// incremented by every delta that changes the graph. A pool built
	// or repaired at epoch e answers queries for the epoch-e CSR.
	Epoch int64 `json:"epoch"`
	// UpdatedAt is when the graph last changed: registration time, then
	// the wall time of each applied delta.
	UpdatedAt time.Time `json:"updated_at"`
}

// QueryRequest identifies one seed-set query. Graph, K, Epsilon and
// Seed form the query key; Model, when non-empty, is validated against
// the registered graph's model (a mismatch is an error, never a silent
// reweighting).
type QueryRequest struct {
	Graph   string  `json:"graph"`
	Model   string  `json:"model,omitempty"`
	K       int     `json:"k"`
	Epsilon float64 `json:"epsilon"`
	Seed    uint64  `json:"seed"`
}

// QueryResult is a served answer plus its reuse accounting.
type QueryResult struct {
	Graph   string  `json:"graph"`
	Model   string  `json:"model"`
	K       int     `json:"k"`
	Epsilon float64 `json:"epsilon"`
	Seed    uint64  `json:"seed"`

	Seeds    []int32 `json:"seeds"`
	Theta    int64   `json:"theta"`
	Rounds   int     `json:"rounds"`
	Coverage float64 `json:"coverage"`

	// Warm reports whether the query found an already-built warm engine
	// for its (graph, seed) — every member of the batch that builds the
	// engine (however many gathered) is cold; Coalesced reports the
	// query was answered by an identical in-flight query's result
	// rather than its own engine run.
	Warm      bool `json:"warm"`
	Coalesced bool `json:"coalesced"`
	// BatchSize is how many queries the answering batch held (1 when
	// the query had the pool to itself).
	BatchSize int `json:"batch_size"`
	// ReusedSets counts the RRR sets the query consumed without
	// generating them (min(θ, pool size when the query ran)); Generated-
	// Sets the sets its own trajectory added; SharedSets the reused sets
	// that another member of the same batch generated on this query's
	// behalf; ReusedBytes the resident bytes of the reused prefix.
	ReusedSets    int64 `json:"reused_sets"`
	GeneratedSets int64 `json:"generated_sets"`
	SharedSets    int64 `json:"shared_sets"`
	ReusedBytes   int64 `json:"reused_bytes"`
	// MemoHits counts the query's seed selections (Rounds+1 of them) that
	// the pool had already run and answered from its selection memo; an
	// exact repeat of an earlier query on an unchanged pool hits on all.
	MemoHits int64 `json:"memo_hits"`
	// PoolBytes is the pool's full resident footprint after the query —
	// set payloads, inverted-index postings, and the engine overhead
	// (fused counter, coverage scratch, selection memo). This is the
	// quantity the byte budget accounts.
	PoolBytes int64 `json:"pool_bytes"`

	// WallMS is the query's full service latency: admission wait,
	// gather window, and the (possibly shared) engine run.
	WallMS float64 `json:"wall_ms"`
}

// Stats are the service counters, all cumulative since construction
// except the gauges Graphs/Pools/PoolBytes/InFlight/QueueDepth.
type Stats struct {
	Graphs      int   `json:"graphs"`
	Pools       int   `json:"pools"`
	PoolBytes   int64 `json:"pool_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`

	// InFlight counts queries holding a worker slot right now;
	// QueueDepth the queries waiting for one.
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`

	Queries       int64 `json:"queries"`
	WarmHits      int64 `json:"warm_hits"`
	ColdMisses    int64 `json:"cold_misses"`
	Coalesced     int64 `json:"coalesced"`
	Rejected      int64 `json:"rejected"`
	Evictions     int64 `json:"evictions"`
	ReusedSets    int64 `json:"reused_sets"`
	GeneratedSets int64 `json:"generated_sets"`
	ReusedBytes   int64 `json:"reused_bytes"`

	// SelectionMemoHits counts seed selections answered from a pool's
	// selection memo, SelectionMemoMisses those that ran the kernel.
	SelectionMemoHits   int64 `json:"selection_memo_hits"`
	SelectionMemoMisses int64 `json:"selection_memo_misses"`

	// The disk tier (Options.PoolDir). Demotions counts pools moved to
	// disk under budget pressure and DemotionWrites those of them that
	// had to write a snapshot (the rest found the one on disk already
	// holding the pool); Promotions pools mapped back into RAM on touch;
	// PromoteFailures promotions that fell through to a cold rebuild
	// (stale epoch, changed graph content, or a corrupt file);
	// Rehydrated disk pools registered at boot by LoadPools; PoolsSaved
	// pools SavePools made durable. DiskPools/DiskBytes gauge the
	// snapshots currently backing entries.
	Demotions       int64 `json:"demotions"`
	DemotionWrites  int64 `json:"demotion_writes"`
	Promotions      int64 `json:"promotions"`
	PromoteFailures int64 `json:"promote_failures"`
	Rehydrated      int64 `json:"rehydrated"`
	PoolsSaved      int64 `json:"pools_saved"`
	DiskPools       int   `json:"disk_pools"`
	DiskBytes       int64 `json:"disk_bytes"`

	// Batches counts planner drains of any size; BatchedQueries the
	// queries answered in drains of two or more; SharedExtensions the
	// physical pool extensions performed inside such multi-member drains
	// (the "one shared θ-extension" the planner amortizes a burst onto);
	// SharedSets the samples members consumed that a same-batch peer
	// generated for them — the shared-extension savings.
	Batches          int64 `json:"batches"`
	BatchedQueries   int64 `json:"batched_queries"`
	MaxBatchSize     int   `json:"max_batch_size"`
	SharedExtensions int64 `json:"shared_extensions"`
	SharedSets       int64 `json:"shared_sets"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`

	// Deltas counts applied graph deltas (no-ops included);
	// DeltaEdgesAdded/DeltaEdgesRemoved the edges they changed.
	// RepairedPools counts warm pools patched in place after a delta,
	// RepairedSets the slots those repairs resampled, and FullResamples
	// the repairs that degenerated to whole-pool regeneration (vertex
	// growth changes every slot's root draw).
	Deltas            int64 `json:"deltas"`
	DeltaEdgesAdded   int64 `json:"delta_edges_added"`
	DeltaEdgesRemoved int64 `json:"delta_edges_removed"`
	RepairedPools     int64 `json:"repaired_pools"`
	RepairedSets      int64 `json:"repaired_sets"`
	FullResamples     int64 `json:"full_resamples"`

	// WireBytesSent/WireBytesReceived/WireMessages are the cluster
	// transport's measured bytes-on-the-wire totals (frame headers
	// included; all zero on single-node servers). RemoteFailovers counts
	// remote pool-extension chunks that fell back to local sampling.
	WireBytesSent     int64 `json:"wire_bytes_sent"`
	WireBytesReceived int64 `json:"wire_bytes_received"`
	WireMessages      int64 `json:"wire_messages"`
	RemoteFailovers   int64 `json:"remote_failovers"`
}

// HitRatio is the fraction of executed (non-coalesced) queries that
// found a warm pool.
func (s Stats) HitRatio() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.WarmHits) / float64(s.Queries)
}

// poolKey identifies one warm pool: pool contents are a pure function
// of (graph, engine policy, RNG seed), and the policy is fixed
// server-wide, so (graph, seed) is the whole key.
type poolKey struct {
	graph string
	seed  uint64
}

// flightKey identifies one query for single-flight deduplication.
// Epsilon participates via its IEEE-754 bits: exact equality is the
// contract (nearby epsilons are different queries).
type flightKey struct {
	graph   string
	k       int
	epsBits uint64
	seed    uint64
}

// inflight is one in-progress query leaders publish their result on.
type inflight struct {
	done chan struct{}
	res  *QueryResult
	err  error
}

// poolEntry is one warm pool plus its cache bookkeeping. The engine
// mutex serializes batch drains; the wait queue (qmu, waiters,
// draining) hands concurrent queries to whichever member drains; the
// registry fields (bytes, elem, pinned) are guarded by the server
// mutex.
type poolEntry struct {
	key poolKey

	mu  sync.Mutex // serializes engine use (held by the draining member)
	eng *imm.WarmEngine
	// unmap releases the .impool mapping eng was thawed from (nil for an
	// engine built cold). The entry owns the mapping: eng and unmap are
	// set together and dropped together, by dropEngine, under mu.
	unmap func()

	qmu      sync.Mutex
	waiters  []*batchWaiter
	draining bool
	// soloDone is when the pool's last drain ended, set only if that
	// drain answered exactly one query from the resident pool without
	// growing it (zero otherwise): a leader arriving within one gather
	// window of it is that query's client coming straight back, and
	// skips the window (see drainPool).
	soloDone time.Time

	bytes  int64         // footprint last accounted into Server.usedBytes
	elem   *list.Element // position in the LRU list
	pinned int           // queries currently using the entry; > 0 blocks eviction
	// epoch is the graph epoch the entry's engine was built or last
	// repaired at (guarded by the server mutex; recorded when the
	// drainer snapshots the graph). ApplyDelta's repair pass finds
	// stale pools by comparing it against the registry epoch.
	epoch int64
	// disk points at the entry's .impool snapshot when one backs it
	// (demoted, saved, or rehydrated); demoting marks a victim whose
	// freeze is in progress so eviction picks it only once. Both are
	// guarded by the server mutex.
	disk     *diskPool
	demoting bool
}

// dropEngine releases the entry's engine and, when the engine was
// thawed from one, the mapping its sets alias. Callers hold pe.mu, so no
// batch is reading through either. It clears soloDone: the next drain
// rebuilds or promotes the pool, so its leader gathers.
func (pe *poolEntry) dropEngine() {
	pe.eng = nil
	if pe.unmap != nil {
		pe.unmap()
		pe.unmap = nil
	}
	pe.qmu.Lock()
	pe.soloDone = time.Time{}
	pe.qmu.Unlock()
}

// enqueue appends w to the entry's wait queue and reports whether the
// caller became the drainer (the first waiter on an idle pool; everyone
// else is answered by an existing drainer's next sweep).
func (pe *poolEntry) enqueue(w *batchWaiter) (leader bool) {
	pe.qmu.Lock()
	defer pe.qmu.Unlock()
	pe.waiters = append(pe.waiters, w)
	if !pe.draining {
		pe.draining = true
		return true
	}
	return false
}

// cameBack reports whether the pool's last drain was a plain solo answer
// that ended less than window ago.
func (pe *poolEntry) cameBack(window time.Duration) bool {
	pe.qmu.Lock()
	defer pe.qmu.Unlock()
	return !pe.soloDone.IsZero() && time.Since(pe.soloDone) < window
}

// graphEntry is one registered graph. The graph pointer and info are
// guarded by the server mutex (a delta swaps the pointer); deltaMu
// serializes delta applications on this graph so every pool advances
// one epoch at a time.
type graphEntry struct {
	g       *graph.Graph
	info    GraphInfo
	deltaMu sync.Mutex
}

// Server is the warm-pool query service. Construct with NewServer,
// register graphs with AddGraph/AddSnapshot, then call Query, QueryBatch
// or SubmitJob from any number of goroutines. Shutdown drains it.
type Server struct {
	opt  Options
	base imm.Options // per-query template; K/Epsilon/Seed overwritten

	adm *admission
	wg  sync.WaitGroup // accepted work: queries, jobs

	mu        sync.Mutex
	closed    bool
	closedCh  chan struct{}
	graphs    map[string]*graphEntry
	pools     map[poolKey]*poolEntry
	lru       *list.List // front = most recently used *poolEntry
	usedBytes int64
	flight    map[flightKey]*inflight
	jobs      map[string]*jobEntry
	jobSeq    int64
	stats     Stats
}

// NewServer returns an empty Server configured by opt.
func NewServer(opt Options) *Server {
	if opt.PoolBudgetBytes <= 0 {
		opt.PoolBudgetBytes = DefaultPoolBudgetBytes
	}
	if opt.QueryWorkers <= 0 {
		opt.QueryWorkers = 4 * runtime.GOMAXPROCS(0)
	}
	switch {
	case opt.QueueDepth == 0:
		opt.QueueDepth = DefaultQueueDepth
	case opt.QueueDepth < 0:
		opt.QueueDepth = 0 // no waiting: reject when every worker is busy
	}
	switch {
	case opt.GatherWindow == 0:
		opt.GatherWindow = DefaultGatherWindow
	case opt.GatherWindow < 0:
		opt.GatherWindow = 0 // drain immediately
	}
	base := opt.EngineOptions()
	return &Server{
		opt:      opt,
		base:     base,
		adm:      newAdmission(opt.QueryWorkers, opt.QueueDepth),
		closedCh: make(chan struct{}),
		graphs:   make(map[string]*graphEntry),
		pools:    make(map[poolKey]*poolEntry),
		lru:      list.New(),
		flight:   make(map[flightKey]*inflight),
		jobs:     make(map[string]*jobEntry),
	}
}

// AddGraph registers g under name. Names are unique; re-registering is
// an error (drop-and-replace would silently invalidate warm pools).
func (s *Server) AddGraph(name string, g *graph.Graph, weightSeed uint64) (GraphInfo, error) {
	if name == "" {
		return GraphInfo{}, fmt.Errorf("serve: empty graph name")
	}
	if g == nil || g.N == 0 {
		return GraphInfo{}, fmt.Errorf("serve: graph %q is empty", name)
	}
	info := GraphInfo{Name: name, Nodes: g.N, Edges: g.M, Model: g.Model().String(), WeightSeed: weightSeed, UpdatedAt: time.Now().UTC()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.graphs[name]; ok {
		return GraphInfo{}, fmt.Errorf("serve: %w: %q", ErrGraphExists, name)
	}
	s.graphs[name] = &graphEntry{g: g, info: info}
	s.stats.Graphs = len(s.graphs)
	return info, nil
}

// AddSnapshot loads a .imsnap snapshot from path and registers it under
// name — the production ingestion path: parse once offline, serve from
// the binary snapshot thereafter.
func (s *Server) AddSnapshot(name, path string) (GraphInfo, error) {
	g, info, err := ingest.ReadSnapshotFile(path)
	if err != nil {
		return GraphInfo{}, fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	return s.AddGraph(name, g, info.Seed)
}

// GraphCount returns the number of registered graphs — the cheap count
// accessor liveness probes want (Graphs copies and sorts the registry).
func (s *Server) GraphCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.graphs)
}

// Graphs lists the registered graphs, sorted by name.
func (s *Server) Graphs() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for _, ge := range s.graphs {
		out = append(out, ge.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Graphs = len(s.graphs)
	st.Pools = len(s.pools)
	st.PoolBytes = s.usedBytes
	st.BudgetBytes = s.opt.PoolBudgetBytes
	for _, pe := range s.pools {
		if pe.disk != nil {
			st.DiskPools++
			st.DiskBytes += pe.disk.bytes
		}
	}
	st.InFlight, st.QueueDepth = s.adm.gauges()
	if s.opt.WireMeter != nil {
		st.WireBytesSent, st.WireBytesReceived, st.WireMessages = s.opt.WireMeter()
	}
	if s.opt.RemoteFailovers != nil {
		st.RemoteFailovers = s.opt.RemoteFailovers()
	}
	return st
}

// checkRequestLocked validates req against the registry. Callers hold
// s.mu. Every failure wraps a sentinel so front-ends can map it.
func (s *Server) checkRequestLocked(req QueryRequest) (*graphEntry, error) {
	if req.K <= 0 {
		return nil, fmt.Errorf("serve: %w: k must be positive, got %d", ErrInvalidQuery, req.K)
	}
	if !(req.Epsilon > 0 && req.Epsilon < 1) { // also rejects NaN
		return nil, fmt.Errorf("serve: %w: epsilon must lie in (0,1), got %v", ErrInvalidQuery, req.Epsilon)
	}
	ge, ok := s.graphs[req.Graph]
	if !ok {
		return nil, fmt.Errorf("serve: %w %q", ErrUnknownGraph, req.Graph)
	}
	if req.Model != "" && req.Model != ge.info.Model {
		return nil, fmt.Errorf("serve: %w: graph %q holds a %s graph but the query requested %s", ErrInvalidQuery, req.Graph, ge.info.Model, req.Model)
	}
	return ge, nil
}

// Query answers one seed-set query, reusing the (graph, seed) warm pool
// when one exists and creating it otherwise. Concurrent queries on the
// same pool are gathered into one batch and share a single θ-extension;
// identical concurrent queries coalesce onto a single engine run. Safe
// for concurrent use.
func (s *Server) Query(req QueryRequest) (*QueryResult, error) {
	return s.query(req, admitBounded)
}

// query is Query with the admission mode explicit (see admitMode).
// admitJob callers were accepted — and registered with the shutdown
// WaitGroup — at submit time, so they bypass begin() and drain to
// completion even after shutdown starts.
func (s *Server) query(req QueryRequest, mode admitMode) (*QueryResult, error) {
	if mode != admitJob {
		if err := s.begin(); err != nil {
			return nil, err
		}
		defer s.end()
	}

	fkey := flightKey{graph: req.Graph, k: req.K, epsBits: math.Float64bits(req.Epsilon), seed: req.Seed}
	s.mu.Lock()
	ge, err := s.checkRequestLocked(req)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if fl, ok := s.flight[fkey]; ok {
		// Coalesce onto the identical in-flight query.
		s.stats.Coalesced++
		s.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		res := *fl.res
		res.Coalesced = true
		return &res, nil
	}
	fl := &inflight{done: make(chan struct{})}
	s.flight[fkey] = fl
	s.mu.Unlock()

	res, err := s.execute(ge, req, mode)

	s.mu.Lock()
	delete(s.flight, fkey)
	s.mu.Unlock()
	fl.res, fl.err = res, err
	close(fl.done)
	return res, err
}

// execute runs one admitted, non-coalesced query through the pool
// planner and accounts the outcome.
func (s *Server) execute(ge *graphEntry, req QueryRequest, mode admitMode) (*QueryResult, error) {
	start := time.Now()
	if err := s.adm.acquire(mode, s.closedCh); err != nil {
		s.mu.Lock()
		s.stats.Rejected++
		s.mu.Unlock()
		return nil, err
	}
	defer s.adm.release()

	s.mu.Lock()
	pkey := poolKey{graph: req.Graph, seed: req.Seed}
	pe, ok := s.pools[pkey]
	if !ok {
		// Register a placeholder only; the engine itself is built by the
		// draining member under the entry's own mutex — construction
		// allocates O(N) (the fused counter), which must not stall the
		// registry. Warm/cold is decided there too: every member of the
		// batch that builds the engine is cold.
		pe = &poolEntry{key: pkey}
		s.pools[pkey] = pe
		pe.elem = s.lru.PushFront(pe)
	} else {
		s.lru.MoveToFront(pe.elem)
	}
	s.stats.Queries++
	pe.pinned++
	s.mu.Unlock()

	w := &batchWaiter{req: req, done: make(chan struct{})}
	if pe.enqueue(w) {
		s.drainPool(ge, pe)
	} else {
		<-w.done
	}
	res, err := w.res, w.err

	var demote []*poolEntry
	dropped := false
	s.mu.Lock()
	pe.pinned--
	if err == nil {
		res.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		if res.Warm {
			s.stats.WarmHits++
		} else {
			s.stats.ColdMisses++
		}
		// Re-account the pool's footprint and enforce the byte budget.
		// res.PoolBytes was measured inside the drain under the engine
		// mutex; re-reading the engine here would race with a concurrent
		// batch on the same pool. The pool only ever grows, so take the
		// monotonic max — two queries finishing out of order must not let
		// the smaller, staler measurement overwrite the larger one. An
		// entry RemoveGraph unregistered mid-flight is skipped: its bytes
		// already left the budget.
		if res.PoolBytes > pe.bytes && s.pools[pe.key] == pe {
			s.usedBytes += res.PoolBytes - pe.bytes
			pe.bytes = res.PoolBytes
		}
		s.stats.ReusedSets += res.ReusedSets
		s.stats.GeneratedSets += res.GeneratedSets
		s.stats.ReusedBytes += res.ReusedBytes
		demote = s.evictLocked(pe)
	} else if pe.pinned == 0 && pe.bytes == 0 && pe.disk == nil && s.pools[pe.key] == pe {
		// The query failed, no query ever succeeded on this entry
		// (successful queries always account a positive footprint), and
		// nobody else is using it: drop the placeholder so later queries
		// start clean instead of inheriting a dead entry. (The map check
		// guards against unregistering a successor entry after
		// RemoveGraph already dropped this one.)
		s.removeEntryLocked(pe)
		dropped = true
	}
	s.mu.Unlock()
	if dropped {
		dropEngines(pe)
	}
	s.demoteEntries(demote)
	return res, err
}

// queryOptions builds the imm options for one query from the server
// template.
func (s *Server) queryOptions(req QueryRequest) imm.Options {
	o := s.base
	o.K = req.K
	o.Epsilon = req.Epsilon
	o.Seed = req.Seed
	return o
}

// removeEntryLocked unregisters a pool entry, returns its bytes to the
// budget, and discards any disk-tier snapshot backing it. The engine is
// the caller's to drop: under pe.mu if it holds it, else through
// dropEngines once s.mu is released.
func (s *Server) removeEntryLocked(pe *poolEntry) {
	s.lru.Remove(pe.elem)
	delete(s.pools, pe.key)
	s.usedBytes -= pe.bytes
	s.dropDiskLocked(pe)
}

// dropEngines releases the engines (and mappings) of entries the caller
// just unregistered. It takes each entry's engine mutex, so a batch
// mid-drain finishes first, and must be called with s.mu released.
func dropEngines(removed ...*poolEntry) {
	for _, pe := range removed {
		pe.mu.Lock()
		pe.dropEngine()
		pe.mu.Unlock()
	}
}

// evictLocked reclaims least-recently-used pools until resident bytes
// fit the budget. Pinned (in-flight) pools are skipped, and so is keep
// — the pool the finishing query just used: evicting it would make a
// single over-budget pool its own victim and turn every repeat query
// into a cold regeneration (the budget may transiently overshoot
// instead, exactly as it already does for pinned pools). At least one
// pool may therefore remain over budget, which is the correct behavior
// when a single pool exceeds the budget on its own.
//
// Without a disk tier victims are dropped outright. With
// Options.PoolDir set they are demoted instead: their budget bytes are
// released here (so admission of the triggering query is never blocked
// on disk I/O) and the entries are returned for the caller to freeze
// to disk after the registry unlocks — the freeze needs the engine
// mutex, which must never be taken under s.mu.
func (s *Server) evictLocked(keep *poolEntry) (demote []*poolEntry) {
	for s.usedBytes > s.opt.PoolBudgetBytes {
		victim := (*poolEntry)(nil)
		for e := s.lru.Back(); e != nil; e = e.Prev() {
			pe := e.Value.(*poolEntry)
			if pe.pinned != 0 || pe == keep {
				continue
			}
			if s.opt.PoolDir != "" && (pe.demoting || pe.bytes == 0) {
				continue // freeze in progress, or nothing resident to demote
			}
			victim = pe
			break
		}
		if victim == nil {
			return demote // everything resident is in flight or just-used
		}
		if s.opt.PoolDir != "" {
			victim.demoting = true
			s.usedBytes -= victim.bytes
			victim.bytes = 0
			demote = append(demote, victim)
			continue
		}
		s.removeEntryLocked(victim)
		s.stats.Evictions++
	}
	return demote
}
