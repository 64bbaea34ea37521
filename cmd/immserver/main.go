// Command immserver is the warm-pool influence-maximization query
// service: it loads one or more graphs (binary .imsnap snapshots or
// edge lists) into an in-memory registry and serves seed-set queries
// over HTTP/JSON, reusing per-graph RRR pools across queries so repeat
// and refined queries skip the sample-from-scratch cost. Concurrent
// queries on the same pool are gathered into batches that share a
// single θ-extension, and a bounded admission queue sheds overload
// with 429 + Retry-After instead of collapsing.
//
// Usage:
//
//	immserver -listen :8377 -load social=web-Google.imsnap -load rmat=rmat16.imsnap
//	immserver -listen :8377                       # boot empty; register via POST /v1/graphs
//	immserver -load graph.imsnap                  # name from the file stem
//	immserver -load edges=graph.txt -model IC     # edge-list ingestion at startup
//	immserver -load g.imsnap -query-workers 8 -queue-depth 512 -gather-window 5ms
//
// Cluster usage — worker ranks serve generation rounds over the framed
// TCP wire protocol (no HTTP, no -load; graphs arrive by broadcast),
// the rank-0 root serves HTTP and sources warm-pool slot chunks from
// the workers, falling back to local generation per chunk when a worker
// is unreachable:
//
//	immserver -rank 1 -peers root:0,h1:9401,h2:9402      # worker, listens on h1:9401
//	immserver -rank 2 -peers root:0,h1:9401,h2:9402      # worker, listens on h2:9402
//	immserver -load g.imsnap -peers root:0,h1:9401,h2:9402   # root (rank 0)
//
// With -pool-dir the warm-pool LRU becomes two-tier: pools squeezed
// out by the byte budget are demoted to .impool snapshots instead of
// destroyed and promoted back via mmap on their next query, POST
// /v1/pools/save freezes every resident pool to disk, and a restart
// rehydrates the directory so the first post-restart query answers
// warm (zero generated sets, byte-identical seeds) — even after
// kill -9:
//
//	immserver -load g.imsnap -pool-budget-mb 1024 -pool-dir /var/lib/immserver/pools
//
// Endpoints (every path lives under /v1; the unprefixed aliases of the
// original query surface were removed after their sunset and answer
// the 404 envelope):
//
//	GET    /v1/healthz                             liveness + graph count
//	GET    /v1/graphs                              registered graphs ({"graphs":[...]})
//	GET    /v1/stats                               query/reuse/batch/eviction/tier/delta counters
//	GET    /v1/query?graph=G&k=K&eps=E&seed=S      one seed-set query
//	POST   /v1/query  {"graph":G,"k":K,"epsilon":E,"seed":S}
//	POST   /v1/batch  {"queries":[...]}            many queries, one round-trip
//	POST   /v1/jobs   {"graph":G,"k":K,...}        async query → job id (202)
//	GET    /v1/jobs/{id}                           job state + result when done
//	POST   /v1/pools/save {"dir":D?}               freeze resident pools to .impool snapshots
//
// Graph lifecycle — graphs can be registered, updated with
// streaming edge deltas, and dropped without a restart. Each delta
// produces a new graph epoch (visible in graph infos) and repairs the
// resident warm pools in place: only RRR sets touching changed
// vertices are resampled, and the repaired pools stay byte-identical
// to pools built cold on the post-delta graph:
//
//	POST   /v1/graphs  {"name":N,"snapshot":path}  register from .imsnap (201)
//	POST   /v1/graphs  {"name":N,"model":M,"edges":[[u,v],...]}   inline register
//	GET    /v1/graphs/{name}                       one graph's info + epoch
//	DELETE /v1/graphs/{name}                       unregister + evict its pools
//	POST   /v1/graphs/{name}/edges {"add":[[u,v],...],"remove":[...],"seed":S}
//	POST   /v1/graphs/{name}/edges {"file":path.imdelta}   batch delta from disk
//
// Every error response carries the unified JSON envelope
// {"error":{"code":"...","message":"..."}}: 404 (unknown_graph,
// unknown_job, not_found), 400 (invalid_query, invalid_delta), 405
// (method_not_allowed), 409 (graph_exists), 429 with Retry-After
// (overloaded), 503 (shutting_down); 500 (internal) is reserved for
// genuine engine failures.
//
// Served answers are byte-identical to `efficientimm -graph G.imsnap -k
// K -eps E -seed S` with the same engine settings; the CI smoke job
// pins exactly that, including a concurrent mixed-k burst sharing one
// θ-extension.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	efficientimm "repro"
)

func main() {
	var loads []string
	var (
		listen       = flag.String("listen", ":8377", "address to serve HTTP on")
		modelName    = flag.String("model", "IC", "diffusion model for edge-list loads (snapshots carry their own)")
		workers      = flag.Int("workers", runtime.NumCPU(), "parallel workers per query")
		maxTheta     = flag.Int64("max-theta", 0, "cap on RRR sets per query (0 = per-theory)")
		budgetMB     = flag.Int64("pool-budget-mb", 1024, "resident warm-pool byte budget across graphs, in MiB")
		poolDir      = flag.String("pool-dir", "", "directory for .impool pool snapshots: enables disk demotion under budget pressure, POST /v1/pools/save, and instant-warm rehydration at boot")
		seed         = flag.Uint64("ingest-seed", 1, "weight-assignment seed for edge-list loads")
		queryWorkers = flag.Int("query-workers", 0, "max concurrently executing queries (0 = 4x GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 0, "max queries waiting for a worker before 429 (0 = default 256, negative = reject immediately)")
		gatherWindow = flag.Duration("gather-window", 0, "how long a query waits to batch with concurrent queries on its pool; skipped when the pool's last drain was one plain warm answer less than a window ago, and when the query promotes its pool from -pool-dir (0 = default 2ms, negative = off)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight and queued work")
		rank         = flag.Int("rank", 0, "cluster rank: 0 serves HTTP as the root, >0 runs a wire-protocol generation worker (requires -peers)")
		peers        = flag.String("peers", "", "comma-separated wire addresses of the cluster; entry 0 names the root, entry i is rank i's worker listen address")
	)
	flag.Func("load", "graph to register, as name=path or a bare path (repeatable); .imsnap loads the snapshot, anything else ingests an edge list", func(v string) error {
		loads = append(loads, v)
		return nil
	})
	flag.Parse()

	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	peerList := parsePeers(*peers)
	fatalIf(validateClusterFlags(clusterFlags{
		rank:  *rank,
		peers: peerList,
		loads: len(loads),
		set:   setFlags,
	}))

	if *rank > 0 {
		runWorker(*rank, peerList)
		return
	}

	model, err := efficientimm.ParseModel(*modelName)
	fatalIf(err)

	opt := efficientimm.ServeOptions{
		Workers:         *workers,
		MaxTheta:        *maxTheta,
		PoolBudgetBytes: *budgetMB << 20,
		PoolDir:         *poolDir,
		QueryWorkers:    *queryWorkers,
		QueueDepth:      *queueDepth,
		GatherWindow:    *gatherWindow,
	}
	if len(peerList) > 0 {
		cl, cerr := efficientimm.ConnectCluster(
			efficientimm.ClusterConfig{Rank: 0, Peers: peerList},
			efficientimm.DefaultClusterOptions())
		fatalIf(cerr)
		defer cl.Close()
		opt = efficientimm.ClusterServeOptions(opt, cl)
		fmt.Fprintf(os.Stderr, "immserver: root of a %d-rank cluster (%d wire workers)\n",
			len(peerList), len(peerList)-1)
	}
	srv := efficientimm.NewServer(opt)
	for _, spec := range loads {
		name, path, found := strings.Cut(spec, "=")
		if !found {
			path = spec
			name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		info, err := loadGraph(srv, name, path, model, *seed)
		fatalIf(err)
		fmt.Fprintf(os.Stderr, "immserver: registered %q: %d nodes, %d edges, model %s\n",
			info.Name, info.Nodes, info.Edges, info.Model)
	}
	if *poolDir != "" {
		// Rehydrate saved pools for the graphs registered above: entries
		// appear disk-only and promote via mmap on first touch, so the
		// first post-restart query answers warm with zero generated sets.
		n, err := srv.LoadPools()
		fatalIf(err)
		if n > 0 {
			fmt.Fprintf(os.Stderr, "immserver: rehydrated %d pool snapshot(s) from %s\n", n, *poolDir)
		}
	}

	// ReadHeaderTimeout: a client that never finishes its request
	// headers must not hold a connection (and its goroutine) forever.
	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "immserver: serving on %s\n", *listen)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Two-stage drain: stop the listener (in-flight HTTP requests —
		// and the planner batches answering them — finish), then drain
		// the planner itself so queued admission waiters are rejected
		// cleanly and async jobs run to completion; finished /jobs
		// results stay readable until the listener closes.
		_ = httpSrv.Shutdown(ctx)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "immserver: drain incomplete: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "immserver: drained and shut down")
	}
}

// runWorker is the non-root rank's main loop: listen on this rank's
// peer address and serve generation rounds until a signal arrives. The
// worker holds no pools and answers no HTTP — its entire state is the
// graph cache the root broadcasts.
func runWorker(rank int, peers []string) {
	rs, err := efficientimm.ListenRank(peers[rank], efficientimm.DefaultClusterOptions())
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "immserver: rank %d worker listening on %s\n", rank, rs.Addr())

	errc := make(chan error, 1)
	go func() { errc <- rs.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatalIf(err)
	case <-sig:
		_ = rs.Close()
		sent, recv, msgs := rs.MeterTotals()
		fmt.Fprintf(os.Stderr, "immserver: rank %d worker shut down (%d B sent, %d B received, %d frames)\n",
			rank, sent, recv, msgs)
	}
}

// loadGraph registers one -load spec: snapshots through the binary
// codec, everything else through the parallel edge-list pipeline.
func loadGraph(srv *efficientimm.Server, name, path string, model efficientimm.Model, seed uint64) (efficientimm.GraphInfo, error) {
	if strings.HasSuffix(path, efficientimm.SnapshotExt) {
		return srv.AddSnapshot(name, path)
	}
	g, _, err := efficientimm.IngestFile(path, efficientimm.IngestOptions{Model: model, Seed: seed})
	if err != nil {
		return efficientimm.GraphInfo{}, err
	}
	return srv.AddGraph(name, g, seed)
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "immserver:", err)
	os.Exit(1)
}
