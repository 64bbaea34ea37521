// Package route is the sharding query router: a thin HTTP front-end
// that owns no pools and no graphs, only a consistent-hash ring mapping
// (graph, rngSeed) — the warm-pool key — onto a fleet of immserver
// nodes. Every query for one pool key always lands on the same node, so
// the fleet's aggregate warm-pool capacity scales with node count while
// each pool is built exactly once.
//
// Correctness leans on the serving layer's determinism contract: any
// node answers any query byte-identically (pools are pure functions of
// (graph, policy, seed)), so routing is purely a placement decision —
// the ring optimizes warmth, it can never change an answer.
//
// The router serves the same /v1 surface as the nodes:
// /query and /batch shard by pool key (batch members fan out to their
// owners and reassemble in order), /jobs route by pool key with the
// job id carrying a node prefix ("n2-job-7") so polls find their way
// back, /graphs unions the fleet's registries, /stats reports per-node
// counters (and sums the selection-memo ones), /healthz probes the
// fleet. Identical concurrent queries dedup single-flight at the router
// before any connection is opened.
//
// Failure semantics: a node that cannot be reached yields the unified
// error envelope with code "node_unavailable" (HTTP 503, Retry-After
// set) for the requests it owns — batch members inline — while
// requests owned by healthy nodes keep serving. A query, job or batch
// body past serve.MaxBodyBytes, or a graph or delta upload past
// serve.MaxUploadBytes, is refused with 413 "body_too_large".
package route

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// DefaultVirtualNodes is the per-node ring multiplicity when
// Options.VirtualNodes is zero: enough points that pool keys spread
// within a few percent of even across small fleets.
const DefaultVirtualNodes = 128

// DefaultTimeout bounds one forwarded request when Options.Timeout is
// zero. Cold pool builds on large graphs are minutes, not seconds, so
// the default is generous; the ring, not the timeout, provides load
// isolation.
const DefaultTimeout = 10 * time.Minute

// idleConnsPerNode is how many idle keep-alive connections the default
// forwarding client keeps open to each node. http.DefaultTransport keeps
// two: with more concurrent forwards to one node than that, most
// forwards dial a new connection and leave a TIME_WAIT behind. A cap
// above any realistic per-node concurrency lets each forward reuse a
// connection once the fleet is warm.
const idleConnsPerNode = 64

// Options configures a Router.
type Options struct {
	// Nodes are the backend base URLs (e.g. "http://127.0.0.1:7601"),
	// one per immserver. Order is identity: the ring hashes the URL
	// strings, so a stable node list keeps pool placement stable.
	Nodes []string
	// VirtualNodes is the ring multiplicity per node; 0 means
	// DefaultVirtualNodes.
	VirtualNodes int
	// Timeout bounds one forwarded request; 0 means DefaultTimeout.
	Timeout time.Duration
	// Client overrides the forwarding HTTP client (tests); when nil a
	// client with Timeout is used, on a transport that keeps
	// idleConnsPerNode idle connections to each node.
	Client *http.Client
}

// ringSlot is one virtual node on the hash ring.
type ringSlot struct {
	hash uint64
	node int
}

// flight is one in-progress deduplicated query: followers wait on done
// and replay the leader's captured response.
type flight struct {
	done       chan struct{}
	status     int
	retryAfter string
	body       []byte
}

// Router shards queries across a fleet of serve nodes. Construct with
// New, mount Handler. Safe for concurrent use.
type Router struct {
	nodes  []string
	ring   []ringSlot
	client *http.Client

	mu     sync.Mutex
	flight map[string]*flight
}

// New validates opt and builds the ring.
func New(opt Options) (*Router, error) {
	if len(opt.Nodes) == 0 {
		return nil, fmt.Errorf("route: router needs at least one node URL")
	}
	seen := make(map[string]int, len(opt.Nodes))
	for i, n := range opt.Nodes {
		if n == "" {
			return nil, fmt.Errorf("route: node %d has an empty URL", i)
		}
		if !strings.HasPrefix(n, "http://") && !strings.HasPrefix(n, "https://") {
			return nil, fmt.Errorf("route: node %d URL %q must start with http:// or https://", i, n)
		}
		if j, dup := seen[n]; dup {
			return nil, fmt.Errorf("route: nodes %d and %d share URL %q", j, i, n)
		}
		seen[n] = i
	}
	vnodes := opt.VirtualNodes
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	client := opt.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 0 // no fleet-wide cap: the per-node one bounds it
		tr.MaxIdleConnsPerHost = idleConnsPerNode
		client = &http.Client{Timeout: timeout, Transport: tr}
	}
	rt := &Router{
		nodes:  append([]string(nil), opt.Nodes...),
		ring:   make([]ringSlot, 0, len(opt.Nodes)*vnodes),
		client: client,
		flight: make(map[string]*flight),
	}
	for i, n := range rt.nodes {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", n, v)
			rt.ring = append(rt.ring, ringSlot{hash: h.Sum64(), node: i})
		}
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].hash < rt.ring[j].hash })
	return rt, nil
}

// Nodes returns the backend URLs, in registration order.
func (rt *Router) Nodes() []string { return append([]string(nil), rt.nodes...) }

// Owner returns the node URL that owns the (graph, seed) pool key —
// where every query for that warm pool is routed.
func (rt *Router) Owner(graph string, seed uint64) string {
	return rt.nodes[rt.owner(graph, seed)]
}

func (rt *Router) owner(graph string, seed uint64) int {
	h := fnv.New64a()
	io.WriteString(h, graph)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	key := h.Sum64()
	i := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= key })
	if i == len(rt.ring) {
		i = 0
	}
	return rt.ring[i].node
}

// Handler returns the router's HTTP front-end: the same versioned
// surface the nodes serve, with the same envelope fallbacks.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", rt.handleHealth)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /v1/query", rt.handleQuery)
	mux.HandleFunc("POST /v1/query", rt.handleQuery)
	mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	mux.HandleFunc("GET /v1/jobs", rt.handleJobsList)
	mux.HandleFunc("POST /v1/jobs", rt.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobByID)
	mux.HandleFunc("GET /v1/graphs", rt.handleGraphs)
	// Graph lifecycle: writes broadcast to the whole fleet so every
	// node can serve any pool key the ring assigns it.
	mux.HandleFunc("POST /v1/graphs", rt.handleGraphRegister)
	mux.HandleFunc("GET /v1/graphs/{name}", rt.handleGraphGet)
	mux.HandleFunc("DELETE /v1/graphs/{name}", rt.handleGraphDelete)
	mux.HandleFunc("POST /v1/graphs/{name}/edges", rt.handleGraphEdges)
	return serve.EnvelopeFallbacks(mux)
}

// queryIdentity extracts the routing identity of one query request
// without fully validating it — validation is the owner node's job; the
// router only needs the pool key.
type queryIdentity struct {
	req QueryRequestView
	ok  bool
}

// QueryRequestView mirrors the fields of serve.QueryRequest the router
// inspects, with the same body defaults (eps=0.5, seed=1).
type QueryRequestView struct {
	Graph   string  `json:"graph"`
	Model   string  `json:"model"`
	K       int     `json:"k"`
	Epsilon float64 `json:"epsilon"`
	Seed    uint64  `json:"seed"`
}

func defaultView() QueryRequestView { return QueryRequestView{Epsilon: 0.5, Seed: 1} }

// parseIdentity recovers the pool key from a GET query string or a POST
// body. Unparseable requests return ok=false; they are forwarded to an
// arbitrary-but-deterministic owner (node of the empty key) so the
// backend can reject them with its precise validation error.
func parseIdentity(r *http.Request, body []byte) queryIdentity {
	v := defaultView()
	if r.Method == http.MethodGet {
		q := r.URL.Query()
		v.Graph = q.Get("graph")
		v.Model = q.Get("model")
		v.K, _ = strconv.Atoi(q.Get("k"))
		if s := q.Get("eps"); s != "" {
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				v.Epsilon = f
			}
		}
		if s := q.Get("seed"); s != "" {
			if u, err := strconv.ParseUint(s, 10, 64); err == nil {
				v.Seed = u
			}
		}
		return queryIdentity{req: v, ok: v.Graph != ""}
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return queryIdentity{}
	}
	return queryIdentity{req: v, ok: v.Graph != ""}
}

// handleQuery routes one query to its pool owner, deduplicating
// identical concurrent requests single-flight: one leader forwards,
// followers replay its captured response without opening a connection.
// The flight is keyed on the raw request — method, query string and
// body bytes — not on the parsed identity, which ignores unknown
// parameters and fields: two requests share an answer only if the node
// could not tell them apart.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		if body, err = readControlBody(w, r); err != nil {
			return
		}
	}
	id := parseIdentity(r, body)
	node := rt.owner(id.req.Graph, id.req.Seed)
	key := r.Method + "\x00" + r.URL.RawQuery + "\x00" + string(body)

	rt.mu.Lock()
	if fl, inFlight := rt.flight[key]; inFlight && id.ok {
		rt.mu.Unlock()
		<-fl.done
		replay(w, fl)
		return
	}
	fl := &flight{done: make(chan struct{})}
	if id.ok {
		rt.flight[key] = fl
	}
	rt.mu.Unlock()

	fl.status, fl.retryAfter, fl.body = rt.forward(node, r, body)
	// The ring decides placement, but only nodes know which graphs they
	// hold: a graph registered after boot directly on some nodes (not
	// through the router's broadcast) is invisible to the owner. On an
	// unknown-graph refusal, poll the fleet for a holder and re-forward
	// — the freshly registered graph becomes routable with no restart.
	if fl.status == http.StatusNotFound && id.ok {
		if code, _ := unwrapEnvelope(fl.body, fl.status); code == "unknown_graph" {
			if alt, ok := rt.findHolder(id.req.Graph, node); ok {
				fl.status, fl.retryAfter, fl.body = rt.forward(alt, r, body)
			}
		}
	}

	if id.ok {
		rt.mu.Lock()
		delete(rt.flight, key)
		rt.mu.Unlock()
	}
	close(fl.done)
	replay(w, fl)
}

func replay(w http.ResponseWriter, fl *flight) {
	if fl.retryAfter != "" {
		w.Header().Set("Retry-After", fl.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(fl.status)
	w.Write(fl.body)
}

// forward performs one request against a node and captures the reply.
// Transport failure — the node is down or unreachable — yields the
// node_unavailable envelope; in-protocol backend errors pass through
// verbatim (they already carry the envelope).
func (rt *Router) forward(node int, r *http.Request, body []byte) (status int, retryAfter string, respBody []byte) {
	url := rt.nodes[node] + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(r.Method, url, rd)
	if err != nil {
		return http.StatusInternalServerError, "", envelope("internal", err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return http.StatusServiceUnavailable, "1",
			envelope("node_unavailable", fmt.Sprintf("node %s is unreachable: %v", rt.nodes[node], err))
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return http.StatusServiceUnavailable, "1",
			envelope("node_unavailable", fmt.Sprintf("node %s reply truncated: %v", rt.nodes[node], err))
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), b
}

// envelope renders one unified error envelope body.
func envelope(code, message string) []byte {
	b, _ := json.Marshal(serve.ErrorResponse{Error: serve.ErrorBody{Code: code, Message: message}})
	return b
}

// handleBatch fans a batch out to each member's pool owner and
// reassembles the answers in request order. Members owned by an
// unreachable node fail inline with code node_unavailable; members on
// healthy nodes still serve.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readControlBody(w, r)
	if err != nil {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var batch serve.BatchRequest
	if err := dec.Decode(&batch); err != nil {
		serve.WriteErrorEnvelope(w, http.StatusBadRequest, "invalid_query", fmt.Sprintf("invalid JSON body: %v", err))
		return
	}
	if len(batch.Queries) == 0 {
		serve.WriteErrorEnvelope(w, http.StatusBadRequest, "invalid_query", "batch holds no queries")
		return
	}

	// Group member indices by owner; unparseable members go to the empty
	// key's owner, whose backend reports the precise validation error.
	groups := make(map[int][]int)
	for i, raw := range batch.Queries {
		v := defaultView()
		_ = json.Unmarshal(raw, &v)
		n := rt.owner(v.Graph, v.Seed)
		groups[n] = append(groups[n], i)
	}

	items := make([]serve.BatchItem, len(batch.Queries))
	var wg sync.WaitGroup
	for node, idxs := range groups {
		wg.Add(1)
		go func(node int, idxs []int) {
			defer wg.Done()
			sub := serve.BatchRequest{Queries: make([]json.RawMessage, len(idxs))}
			for j, i := range idxs {
				sub.Queries[j] = batch.Queries[i]
			}
			body, _ := json.Marshal(sub)
			status, _, resp := rt.forward(node, r, body)
			if status != http.StatusOK {
				code, msg := unwrapEnvelope(resp, status)
				for _, i := range idxs {
					items[i] = serve.BatchItem{Error: msg, Code: code}
				}
				return
			}
			var br serve.BatchResponse
			if err := json.Unmarshal(resp, &br); err != nil || len(br.Results) != len(idxs) {
				for _, i := range idxs {
					items[i] = serve.BatchItem{Error: fmt.Sprintf("node %s returned a malformed batch reply", rt.nodes[node]), Code: "internal"}
				}
				return
			}
			for j, i := range idxs {
				items[i] = br.Results[j]
			}
		}(node, idxs)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, serve.BatchResponse{Results: items})
}

// unwrapEnvelope extracts (code, message) from an envelope body,
// synthesizing one when the body is not an envelope.
func unwrapEnvelope(body []byte, status int) (code, message string) {
	var e serve.ErrorResponse
	if err := json.Unmarshal(body, &e); err == nil && e.Error.Code != "" {
		return e.Error.Code, e.Error.Message
	}
	return "internal", fmt.Sprintf("backend error (HTTP %d)", status)
}

// jobID carries the owning node through the job id: "n<idx>-<local id>".
func (rt *Router) jobID(node int, local string) string { return fmt.Sprintf("n%d-%s", node, local) }

// parseJobID splits a router job id back into (node, local id).
func (rt *Router) parseJobID(id string) (node int, local string, ok bool) {
	if !strings.HasPrefix(id, "n") {
		return 0, "", false
	}
	rest := id[1:]
	dash := strings.IndexByte(rest, '-')
	if dash <= 0 {
		return 0, "", false
	}
	n, err := strconv.Atoi(rest[:dash])
	if err != nil || n < 0 || n >= len(rt.nodes) {
		return 0, "", false
	}
	return n, rest[dash+1:], true
}

func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readControlBody(w, r)
	if err != nil {
		return
	}
	id := parseIdentity(r, body)
	node := rt.owner(id.req.Graph, id.req.Seed)
	status, retryAfter, resp := rt.forward(node, r, body)
	if status != http.StatusAccepted {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(resp)
		return
	}
	var job serve.Job
	if err := json.Unmarshal(resp, &job); err != nil {
		serve.WriteErrorEnvelope(w, http.StatusInternalServerError, "internal",
			fmt.Sprintf("node %s returned a malformed job", rt.nodes[node]))
		return
	}
	job.ID = rt.jobID(node, job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (rt *Router) handleJobByID(w http.ResponseWriter, r *http.Request) {
	node, local, ok := rt.parseJobID(r.PathValue("id"))
	if !ok {
		serve.WriteErrorEnvelope(w, http.StatusNotFound, "unknown_job",
			fmt.Sprintf("unknown job %q (router job ids look like n0-job-1)", r.PathValue("id")))
		return
	}
	path := strings.TrimSuffix(r.URL.Path, r.PathValue("id")) + local
	status, _, resp := rt.forwardPath(node, http.MethodGet, path, nil)
	if status != http.StatusOK {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(resp)
		return
	}
	var job serve.Job
	if err := json.Unmarshal(resp, &job); err != nil {
		serve.WriteErrorEnvelope(w, http.StatusInternalServerError, "internal",
			fmt.Sprintf("node %s returned a malformed job", rt.nodes[node]))
		return
	}
	job.ID = rt.jobID(node, job.ID)
	writeJSON(w, http.StatusOK, job)
}

func (rt *Router) handleJobsList(w http.ResponseWriter, r *http.Request) {
	replies := rt.fanOut(r.URL.Path, func(node int, status int, body []byte) any {
		if status != http.StatusOK {
			return fmt.Errorf("node %s: HTTP %d", rt.nodes[node], status)
		}
		var jobs []serve.Job
		if err := json.Unmarshal(body, &jobs); err != nil {
			return err
		}
		for i := range jobs {
			jobs[i].ID = rt.jobID(node, jobs[i].ID)
		}
		return jobs
	})
	out := make([]serve.Job, 0)
	for _, rep := range replies {
		if jobs, ok := rep.([]serve.Job); ok {
			out = append(out, jobs...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// NodeStats is one node's entry in the router's /stats answer.
type NodeStats struct {
	Node  string       `json:"node"`
	Stats *serve.Stats `json:"stats,omitempty"`
	Error string       `json:"error,omitempty"`
}

// StatsResponse is the router's /stats payload: per-node counters, in
// node order, and the fleet-wide selection-memo totals summed over the
// nodes that answered.
type StatsResponse struct {
	Nodes               []NodeStats `json:"nodes"`
	SelectionMemoHits   int64       `json:"selection_memo_hits"`
	SelectionMemoMisses int64       `json:"selection_memo_misses"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	replies := rt.fanOut(r.URL.Path, func(node int, status int, body []byte) any {
		if status != http.StatusOK {
			return fmt.Errorf("node %s: HTTP %d", rt.nodes[node], status)
		}
		var st serve.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		return &st
	})
	out := StatsResponse{Nodes: make([]NodeStats, len(rt.nodes))}
	for i, rep := range replies {
		out.Nodes[i] = NodeStats{Node: rt.nodes[i]}
		switch v := rep.(type) {
		case *serve.Stats:
			out.Nodes[i].Stats = v
			out.SelectionMemoHits += v.SelectionMemoHits
			out.SelectionMemoMisses += v.SelectionMemoMisses
		case error:
			out.Nodes[i].Error = v.Error()
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// HealthResponse is the router's /healthz payload.
type HealthResponse struct {
	Status  string `json:"status"`
	Nodes   int    `json:"nodes"`
	Healthy int    `json:"healthy"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	replies := rt.fanOut(r.URL.Path, func(node int, status int, body []byte) any {
		return status == http.StatusOK
	})
	healthy := 0
	for _, rep := range replies {
		if ok, _ := rep.(bool); ok {
			healthy++
		}
	}
	if healthy == 0 {
		serve.WriteErrorEnvelope(w, http.StatusServiceUnavailable, "node_unavailable", "no node is reachable")
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Nodes: len(rt.nodes), Healthy: healthy})
}

// fanOut GETs path on every node concurrently and maps each reply; a
// transport failure maps (node, 503, envelope) like any backend error.
func (rt *Router) fanOut(path string, f func(node, status int, body []byte) any) []any {
	out := make([]any, len(rt.nodes))
	var wg sync.WaitGroup
	for i := range rt.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := rt.forwardPath(i, http.MethodGet, path, nil)
			out[i] = f(i, status, body)
		}(i)
	}
	wg.Wait()
	return out
}

// forwardPath is forward for router-initiated requests (no inbound
// request to mirror); body may be nil.
func (rt *Router) forwardPath(node int, method, path string, body []byte) (status int, retryAfter string, respBody []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, rt.nodes[node]+path, rd)
	if err != nil {
		return http.StatusInternalServerError, "", envelope("internal", err.Error())
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return http.StatusServiceUnavailable, "1",
			envelope("node_unavailable", fmt.Sprintf("node %s is unreachable: %v", rt.nodes[node], err))
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return http.StatusServiceUnavailable, "1",
			envelope("node_unavailable", fmt.Sprintf("node %s reply truncated: %v", rt.nodes[node], err))
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), b
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
