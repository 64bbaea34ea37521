package efficientimm

// The warm-pool query service (internal/serve), re-exported. A Server
// amortizes RRR-set generation across queries: it keeps one sharded
// pool warm per (graph, RNG seed), gathers concurrent queries on the
// same pool into batches that share a single θ-extension, extends θ
// incrementally otherwise (never regenerating), deduplicates identical
// concurrent queries, sheds overload with bounded admission queues, and
// bounds resident pool bytes with LRU eviction — while every answer
// stays byte-identical to a cold Run with the same options. See
// DESIGN.md "Serving architecture" and "Batched planning & admission
// control", and cmd/immserver for the HTTP front-end.

import (
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/route"
	"repro/internal/serve"
)

type (
	// Server is the warm-pool query service: a registry of graphs plus
	// a byte-budgeted cache of warm RRR pools behind a batched query
	// planner with admission control. Safe for concurrent use; drain
	// with Server.Shutdown.
	Server = serve.Server
	// ServeOptions configures NewServer; per-query parameters travel in
	// QueryRequest. QueryWorkers/QueueDepth bound concurrent execution
	// (overflow is rejected with ErrServerOverloaded), GatherWindow
	// tunes how long concurrent queries wait to share one θ-extension
	// (a client coming straight back to its warm pool, and a query that
	// promotes its pool from the disk tier, skip the wait).
	ServeOptions = serve.Options
	// QueryRequest identifies one (graph, model, k, epsilon, rngSeed)
	// seed-set query.
	QueryRequest = serve.QueryRequest
	// QueryResult is a served answer plus its reuse accounting (warm or
	// cold, batch size, sets reused/generated/shared, pool bytes).
	QueryResult = serve.QueryResult
	// ServeStats are the service counters (queries, warm hits, batches,
	// shared extensions, admission rejections, evictions, job counts).
	ServeStats = serve.Stats
	// GraphInfo describes one graph registered with a Server, including
	// its delta epoch and last-update time.
	GraphInfo = serve.GraphInfo
	// ServeDeltaResult reports one Server.ApplyDelta call: the
	// post-delta graph shape, what changed, and the warm-pool repair
	// accounting (pools repaired in place, sets resampled, full
	// resamples).
	ServeDeltaResult = serve.DeltaResult
	// BatchItem is one member's outcome in a Server.QueryBatch answer.
	BatchItem = serve.BatchItem
	// ServeJob is the public view of one async query submitted with
	// Server.SubmitJob and polled with Server.Job.
	ServeJob = serve.Job
	// ServeJobState is a ServeJob lifecycle state (queued, running,
	// done, failed).
	ServeJobState = serve.JobState
)

// The Server error sentinels, re-exported for errors.Is dispatch; the
// HTTP front-end maps them to 404/400/429/503.
var (
	ErrUnknownGraph       = serve.ErrUnknownGraph
	ErrInvalidQuery       = serve.ErrInvalidQuery
	ErrServerOverloaded   = serve.ErrOverloaded
	ErrServerShuttingDown = serve.ErrShuttingDown
	ErrUnknownJob         = serve.ErrUnknownJob
	ErrGraphExists        = serve.ErrGraphExists
	ErrInvalidDelta       = serve.ErrInvalidDelta
)

// DefaultPoolBudgetBytes is the resident warm-pool byte budget applied
// when ServeOptions.PoolBudgetBytes is zero.
const DefaultPoolBudgetBytes = serve.DefaultPoolBudgetBytes

// NewServer returns an empty warm-pool query service. Register graphs
// with Server.AddGraph or Server.AddSnapshot, then answer queries with
// Server.Query / Server.QueryBatch / Server.SubmitJob (or serve
// Server.Handler over HTTP — that is what cmd/immserver does).
func NewServer(opt ServeOptions) *Server { return serve.NewServer(opt) }

type (
	// Router is the sharding query router: a pool-less HTTP front-end
	// that maps each (graph, rngSeed) warm-pool key onto one node of an
	// immserver fleet via consistent hashing, fans batches out to the
	// owners, dedups identical concurrent queries single-flight, and
	// fails node outages with the node_unavailable error envelope while
	// healthy nodes keep serving. Routing never changes an answer —
	// every node serves byte-identical results — it only preserves
	// pool warmth.
	Router = route.Router
	// RouterOptions configures NewRouter: the backend node URLs, ring
	// multiplicity, and forwarding timeout.
	RouterOptions = route.Options
)

// NewRouter validates opt, builds the consistent-hash ring, and returns
// the router. Mount Router.Handler over HTTP — that is what
// cmd/immrouter does.
func NewRouter(opt RouterOptions) (*Router, error) { return route.New(opt) }

// ClusterServeOptions wires a connected Cluster into serve options:
// every newly built warm pool sources its slot chunks from the
// cluster's worker ranks (falling back to local generation per chunk
// when a worker is unreachable), and Stats reports the transport's
// measured bytes-on-the-wire plus the failover count. Answers stay
// byte-identical to a single-node server — slot determinism makes
// remote generation a pure placement decision. This is the one glue
// point cmd/immserver's cluster mode uses.
func ClusterServeOptions(opt ServeOptions, cl *Cluster) ServeOptions {
	opt.RemoteGen = func(name string, g *graph.Graph, o imm.Options) imm.SlotGenerator {
		return cl.PoolGenerator(name, g, imm.PolicyFromOptions(o), o.Seed)
	}
	opt.WireMeter = cl.MeterTotals
	opt.RemoteFailovers = cl.Failovers
	return opt
}
