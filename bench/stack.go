package main

// The serving stack as the binaries mount it: Router.Handler() and
// Server.Handler() on loopback TCP listeners in this process, rank workers
// via ListenRank. One router, one node: the hop, not the ring, is what
// costs. Every request goes client -> router -> node over real HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	efficientimm "repro"
)

type stack struct {
	srv    *efficientimm.Server
	router *efficientimm.Router
	url    string // the router's base URL: where clients send
	client *http.Client
	tr     *tracer

	cluster *efficientimm.Cluster
	ranks   []*efficientimm.RankWorker

	servers []*http.Server
	wg      sync.WaitGroup
}

// clientConns bounds the load generator to two connections, the ground
// rule for a box that shows two CPUs.
const clientConns = 2

// bootStack starts ranks (when nranks > 0), the node and the router.
// tr, when non-nil, wraps the three HTTP boundaries in timing spans.
func bootStack(opt efficientimm.ServeOptions, nranks int, tr *tracer) (*stack, error) {
	st := &stack{tr: tr}
	if nranks > 0 {
		copt := efficientimm.DefaultClusterOptions()
		peers := []string{"root.invalid:0"}
		for i := 0; i < nranks; i++ {
			rs, err := efficientimm.ListenRank("127.0.0.1:0", copt)
			if err != nil {
				st.close()
				return nil, fmt.Errorf("rank %d: %w", i+1, err)
			}
			st.ranks = append(st.ranks, rs)
			st.wg.Add(1)
			go func() {
				defer st.wg.Done()
				_ = rs.Serve() // returns once Close is called
			}()
			peers = append(peers, rs.Addr())
		}
		cl, err := efficientimm.ConnectCluster(efficientimm.ClusterConfig{Rank: 0, Peers: peers}, copt)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("connect cluster: %w", err)
		}
		st.cluster = cl
		opt = efficientimm.ClusterServeOptions(opt, cl)
	}
	st.srv = efficientimm.NewServer(opt)

	nodeURL, err := st.listen(traceHandler(tr, spanNode, true, st.srv.Handler()))
	if err != nil {
		st.close()
		return nil, err
	}
	ropt := efficientimm.RouterOptions{Nodes: []string{nodeURL}}
	if tr != nil {
		ropt.Client = &http.Client{
			Timeout:   time.Minute,
			Transport: traceTransport{t: tr, next: http.DefaultTransport.(*http.Transport).Clone()},
		}
	}
	if st.router, err = efficientimm.NewRouter(ropt); err != nil {
		st.close()
		return nil, err
	}
	if st.url, err = st.listen(traceHandler(tr, spanRouter, false, st.router.Handler())); err != nil {
		st.close()
		return nil, err
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = clientConns
	transport.MaxConnsPerHost = clientConns
	st.client = &http.Client{Timeout: time.Minute, Transport: transport}
	return st, nil
}

func (st *stack) listen(h http.Handler) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.servers = append(st.servers, hs)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		_ = hs.Serve(lis) // http.ErrServerClosed after Shutdown
	}()
	return "http://" + lis.Addr().String(), nil
}

// close stops everything bootStack started and waits for it to end.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	for i := len(st.servers) - 1; i >= 0; i-- {
		_ = st.servers[i].Shutdown(ctx)
	}
	if st.srv != nil {
		_ = st.srv.Shutdown(ctx)
	}
	if st.cluster != nil {
		_ = st.cluster.Close()
	}
	for _, rs := range st.ranks {
		_ = rs.Close()
	}
	st.wg.Wait()
}

// httpError is a non-2xx answer: a refusal through the envelope.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// post sends one JSON request through the router and decodes the answer.
// ident names the request for the trace (see identity).
func (st *stack) post(path, ident string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if st.tr.enabled() {
		si := st.tr.open(spanClient, ident, time.Now())
		defer st.tr.close(si, ident)
	}
	resp, err := st.client.Post(st.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{resp.StatusCode, string(b)}
	}
	return json.Unmarshal(b, out)
}

func (st *stack) query(q efficientimm.QueryRequest) (*efficientimm.QueryResult, error) {
	var res efficientimm.QueryResult
	err := st.post("/v1/query", queryIdent(q.Graph, q.Seed, q.K, q.Epsilon), q, &res)
	if err != nil {
		return nil, err
	}
	return &res, nil
}
