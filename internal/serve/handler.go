package serve

// HTTP/JSON front-end over Server, mounted by Handler. cmd/immserver is
// a thin flag-parsing shell around this so the protocol is testable
// with net/http/httptest.
//
// The surface is versioned: every endpoint lives under /v1/.
//
//	GET  /v1/healthz          liveness + registered graph count
//	GET  /v1/graphs           the GraphInfo list
//	GET  /v1/stats            the Stats counters
//	GET  /v1/query?graph=&k=[&eps=&seed=&model=]    one seed-set query
//	POST /v1/query            the same query as a QueryRequest JSON body
//	POST /v1/batch            {"queries":[...]} → per-member results
//	POST /v1/jobs             async query: QueryRequest body → Job (202)
//	GET  /v1/jobs             every retained job, oldest first
//	GET  /v1/jobs/{id}        one job's state and, once done, its result
//	POST /v1/pools/save       freeze resident pools to .impool snapshots
//
// Routing is by Go 1.22 method-qualified mux patterns, so method
// dispatch lives in the route table rather than in per-handler checks.
//
// Every error response — handler failures, unknown paths, and wrong
// methods alike — carries the one envelope:
//
//	{"error": {"code": "<machine_code>", "message": "<human text>"}}
//
// Failures map through the serve sentinels: unknown graph or job 404
// (unknown_graph/unknown_job), validation 400 (invalid_query),
// admission overflow 429 (overloaded, with Retry-After), shutdown 503
// (shutting_down) — and only a genuine engine failure reports 500
// (internal). A JSON control body past MaxBodyBytes, or a graph or delta
// upload past MaxUploadBytes, is refused with 413 (body_too_large). The
// mux-level fallbacks use not_found and method_not_allowed.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// maxBatchQueries bounds one POST /v1/batch body: enough for any sensible
// round-trip amortization, small enough that a single request cannot
// monopolize the planner.
const maxBatchQueries = 1024

// MaxBodyBytes caps the JSON control bodies — POST /v1/query, /v1/jobs,
// /v1/batch and /v1/pools/save — on a node and on the router in front of
// it. A full batch fits with room to spare; graph and delta uploads are
// legitimately larger and are capped by MaxUploadBytes instead.
const MaxBodyBytes = 1 << 20

// Handler returns the HTTP front-end for s: the /v1/ surface (queries,
// jobs, the graph-lifecycle endpoints and pool persistence) and the
// envelope fallbacks for unknown paths and disallowed methods.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/query", s.handleQueryGet)
	mux.HandleFunc("POST /v1/query", s.handleQueryPost)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleJobsList)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobByID)
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("POST /v1/graphs", s.handleGraphRegister)
	mux.HandleFunc("GET /v1/graphs/{name}", s.handleGraphGet)
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleGraphDelete)
	mux.HandleFunc("POST /v1/graphs/{name}/edges", s.handleGraphEdges)
	mux.HandleFunc("POST /v1/pools/save", s.handlePoolsSave)
	return EnvelopeFallbacks(mux)
}

// EnvelopeFallbacks wraps mux so its built-in plain-text 404 and 405
// responses become envelope errors like every other failure. The mux is
// probed first: an empty pattern means no route applies, and replaying
// the request against a sink recovers which built-in status (and Allow
// header) the mux chose without writing its plain-text body to the
// client. Exported so the sharding router's mux shares the contract.
func EnvelopeFallbacks(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, pattern := mux.Handler(r)
		if pattern != "" {
			mux.ServeHTTP(w, r)
			return
		}
		probe := &statusProbe{header: make(http.Header)}
		h.ServeHTTP(probe, r)
		if probe.code == http.StatusMethodNotAllowed {
			if allow := probe.header.Get("Allow"); allow != "" {
				w.Header().Set("Allow", allow)
			}
			WriteErrorEnvelope(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("method %s not allowed for %s", r.Method, r.URL.Path))
			return
		}
		WriteErrorEnvelope(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no such endpoint %s", r.URL.Path))
	})
}

// statusProbe captures the status code and headers a handler would have
// written, discarding the body.
type statusProbe struct {
	header http.Header
	code   int
}

func (p *statusProbe) Header() http.Header { return p.header }
func (p *statusProbe) WriteHeader(code int) {
	if p.code == 0 {
		p.code = code
	}
}
func (p *statusProbe) Write(b []byte) (int, error) {
	p.WriteHeader(http.StatusOK)
	return len(b), nil
}

// healthResponse is the /v1/healthz payload.
type healthResponse struct {
	Status string `json:"status"`
	Graphs int    `json:"graphs"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Graphs: s.GraphCount()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	req, err := queryFromURL(r)
	if err != nil {
		writeError(w, err)
		return
	}
	s.serveQuery(w, req)
}

func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	req, err := decodeQueryBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	s.serveQuery(w, req)
}

func (s *Server) serveQuery(w http.ResponseWriter, req QueryRequest) {
	res, err := s.Query(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// BatchRequest is the POST /v1/batch body. Members take the same defaults
// as a POST /v1/query body (eps=0.5, seed=1 when absent) and the same
// unknown-field rejection.
type BatchRequest struct {
	Queries []json.RawMessage `json:"queries"`
}

// BatchResponse is the POST /v1/batch answer: one item per query, in
// request order. Member failures are reported inline so one bad member
// does not fail its neighbors; the HTTP status is 200 whenever the
// batch itself was well-formed.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var body BatchRequest
	if err := decodeBody(w, r, &body, MaxBodyBytes); err != nil {
		writeError(w, err)
		return
	}
	if len(body.Queries) == 0 {
		writeError(w, fmt.Errorf("serve: %w: batch holds no queries", ErrInvalidQuery))
		return
	}
	if len(body.Queries) > maxBatchQueries {
		writeError(w, fmt.Errorf("serve: %w: batch holds %d queries, max %d", ErrInvalidQuery, len(body.Queries), maxBatchQueries))
		return
	}
	reqs := make([]QueryRequest, len(body.Queries))
	for i, raw := range body.Queries {
		mdec := json.NewDecoder(bytes.NewReader(raw))
		mdec.DisallowUnknownFields()
		req := defaultQueryRequest()
		if err := mdec.Decode(&req); err != nil {
			writeError(w, fmt.Errorf("serve: %w: query %d: %v", ErrInvalidQuery, i, err))
			return
		}
		reqs[i] = req
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: s.QueryBatch(reqs)})
}

// PoolsSaveRequest is the optional POST /v1/pools/save body; with no
// body (or an empty dir) the server's configured PoolDir is the target.
type PoolsSaveRequest struct {
	Dir string `json:"dir"`
}

// PoolsSaveResponse reports one save sweep.
type PoolsSaveResponse struct {
	Saved int    `json:"saved"`
	Dir   string `json:"dir"`
}

func (s *Server) handlePoolsSave(w http.ResponseWriter, r *http.Request) {
	var body PoolsSaveRequest
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &body, MaxBodyBytes); err != nil {
			writeError(w, err)
			return
		}
	}
	dir := body.Dir
	if dir == "" {
		dir = s.opt.PoolDir
	}
	saved, err := s.SavePools(dir)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PoolsSaveResponse{Saved: saved, Dir: dir})
}

func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeQueryBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	job, err := s.SubmitJob(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, fmt.Errorf("serve: %w %q", ErrUnknownJob, id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// defaultQueryRequest pre-seeds the fields a request body may omit:
// epsilon defaults to the paper's 0.5 and seed to 1, matching
// imm.Defaults.
func defaultQueryRequest() QueryRequest {
	return QueryRequest{Epsilon: 0.5, Seed: 1}
}

// decodeQueryBody parses a POST JSON body into a QueryRequest. Fields
// absent from the body keep the pre-seeded defaults (the decoder only
// overwrites what the body names); unknown fields are rejected for the
// same reason the GET parser rejects unknown parameters — a misspelled
// "eps" for "epsilon" must fail loudly, not silently run with the
// default.
func decodeQueryBody(w http.ResponseWriter, r *http.Request) (QueryRequest, error) {
	req := defaultQueryRequest()
	return req, decodeBody(w, r, &req, MaxBodyBytes)
}

// decodeBody decodes a JSON body into v, rejecting unknown fields, and
// reads at most limit bytes of it (MaxBodyBytes for a control body,
// MaxUploadBytes for an upload): a longer body fails with
// ErrBodyTooLarge, any other failure with ErrInvalidQuery.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("serve: %w: exceeds %d bytes", ErrBodyTooLarge, tooLarge.Limit)
		}
		return fmt.Errorf("serve: %w: invalid JSON body: %v", ErrInvalidQuery, err)
	}
	return nil
}

// queryFromURL parses the GET form of a query. k is required; epsilon
// and seed default as in defaultQueryRequest. Unknown parameters are
// rejected outright — a misspelled key (epsilon= for eps=) must fail
// loudly, not silently run with the default — and eps must be a finite
// number at parse time, not merely range-checked later.
func queryFromURL(r *http.Request) (QueryRequest, error) {
	q := r.URL.Query()
	for key := range q {
		switch key {
		case "graph", "model", "k", "eps", "seed":
		default:
			return QueryRequest{}, fmt.Errorf("serve: %w: unknown query parameter %q (accepted: graph, model, k, eps, seed)", ErrInvalidQuery, key)
		}
	}
	req := defaultQueryRequest()
	req.Graph = q.Get("graph")
	req.Model = q.Get("model")
	if req.Graph == "" {
		return req, fmt.Errorf("serve: %w: missing graph parameter", ErrInvalidQuery)
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil {
		return req, fmt.Errorf("serve: %w: invalid k parameter %q", ErrInvalidQuery, q.Get("k"))
	}
	req.K = k
	if v := q.Get("eps"); v != "" {
		eps, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(eps) || math.IsInf(eps, 0) {
			return req, fmt.Errorf("serve: %w: eps parameter %q is not a finite number", ErrInvalidQuery, v)
		}
		req.Epsilon = eps
	}
	if v := q.Get("seed"); v != "" {
		if req.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return req, fmt.Errorf("serve: %w: invalid seed parameter %q", ErrInvalidQuery, v)
		}
	}
	return req, nil
}

// statusForError maps a Server error to its HTTP status through the
// serve sentinels. Anything that wraps no sentinel is a genuine
// server-side failure: 500.
func statusForError(err error) int {
	switch {
	case errors.Is(err, ErrUnknownGraph), errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrInvalidQuery), errors.Is(err, ErrInvalidDelta):
		return http.StatusBadRequest
	case errors.Is(err, ErrGraphExists):
		return http.StatusConflict
	case errors.Is(err, ErrBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// codeForError maps a Server error to its machine-readable envelope
// code through the serve sentinels.
func codeForError(err error) string {
	switch {
	case errors.Is(err, ErrUnknownGraph):
		return "unknown_graph"
	case errors.Is(err, ErrUnknownJob):
		return "unknown_job"
	case errors.Is(err, ErrInvalidQuery):
		return "invalid_query"
	case errors.Is(err, ErrInvalidDelta):
		return "invalid_delta"
	case errors.Is(err, ErrGraphExists):
		return "graph_exists"
	case errors.Is(err, ErrBodyTooLarge):
		return "body_too_large"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrShuttingDown):
		return "shutting_down"
	default:
		return "internal"
	}
}

// writeError reports err with its mapped status and code. Backpressure
// rejections carry Retry-After so well-behaved clients pace themselves
// instead of hammering the admission queue.
func writeError(w http.ResponseWriter, err error) {
	status := statusForError(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteErrorEnvelope(w, status, codeForError(err), err.Error())
}

// ErrorBody is the payload inside the error envelope: a stable
// machine-readable code plus the human-readable message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the unified JSON error envelope every endpoint — and
// the cluster router in front of a fleet of them — uses for every
// failure: {"error":{"code":"...","message":"..."}}.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// WriteErrorEnvelope writes the unified error envelope. Exported so
// front-ends layered over this surface (the sharding router) fail with
// the same shape the backends do.
func WriteErrorEnvelope(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: message}})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}
