// Command immrouter is the sharding front-end for a fleet of immserver
// nodes: it owns no graphs and no pools, only a consistent-hash ring
// mapping each (graph, rngSeed) warm-pool key onto one node, so every
// query for a pool always lands where that pool is warm and the
// fleet's aggregate pool capacity scales with node count.
//
// Usage:
//
//	immrouter -listen :8370 -node http://10.0.0.1:8377 -node http://10.0.0.2:8377
//	immrouter -node http://127.0.0.1:7601,http://127.0.0.1:7602,http://127.0.0.1:7603
//
// The router serves the same /v1 HTTP surface as the nodes. /query and /batch shard by pool key (batch members fan out to
// their owners and reassemble in order), /jobs route by pool key with
// node-prefixed job ids ("n2-job-7"), /graphs unions the fleet's
// registries, /stats reports per-node counters, /healthz probes the
// fleet. Identical concurrent queries are deduplicated single-flight
// before any backend connection is opened.
//
// Every answer is byte-identical to asking any single node directly —
// sharding is a placement decision, never a semantic one. A node that
// cannot be reached yields the unified error envelope with code
// "node_unavailable" (HTTP 503, Retry-After set) for the keys it owns;
// keys owned by healthy nodes keep serving.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	efficientimm "repro"
)

func main() {
	var nodes []string
	var (
		listen  = flag.String("listen", ":8370", "address to serve HTTP on")
		vnodes  = flag.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = default 128)")
		timeout = flag.Duration("timeout", 0, "per-forwarded-request timeout (0 = default 10m; cold pool builds can be slow)")
	)
	flag.Func("node", "backend immserver base URL, e.g. http://127.0.0.1:8377 (repeatable; commas split)", func(v string) error {
		for _, n := range strings.Split(v, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
		return nil
	})
	flag.Parse()

	if len(nodes) == 0 {
		fatal(fmt.Errorf("at least one -node URL is required"))
	}
	rt, err := efficientimm.NewRouter(efficientimm.RouterOptions{
		Nodes:        nodes,
		VirtualNodes: *vnodes,
		Timeout:      *timeout,
	})
	fatalIf(err)

	// ReadHeaderTimeout: a client that never finishes its request
	// headers must not hold a connection (and its goroutine) forever.
	httpSrv := &http.Server{Addr: *listen, Handler: rt.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "immrouter: routing %d nodes on %s\n", len(nodes), *listen)
	for i, n := range nodes {
		fmt.Fprintf(os.Stderr, "immrouter: node %d: %s\n", i, n)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		fmt.Fprintln(os.Stderr, "immrouter: shut down")
	}
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "immrouter:", err)
	os.Exit(1)
}
