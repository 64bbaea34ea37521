package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

func testHTTP(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g := testGraph(t, 8, graph.IC)
	s := testServer(t, Options{Workers: 2, MaxTheta: 4000}, map[string]*graph.Graph{"g": g})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func postJSON(t *testing.T, url string, body string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	_, ts := testHTTP(t)

	var health healthResponse
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Graphs != 1 {
		t.Fatalf("health = %+v", health)
	}

	var graphs GraphsResponse
	getJSON(t, ts.URL+"/v1/graphs", http.StatusOK, &graphs)
	if len(graphs.Graphs) != 1 || graphs.Graphs[0].Name != "g" || graphs.Graphs[0].Model != "IC" {
		t.Fatalf("graphs = %+v", graphs)
	}

	var cold QueryResult
	getJSON(t, ts.URL+"/v1/query?graph=g&k=8&eps=0.5&seed=1", http.StatusOK, &cold)
	if len(cold.Seeds) != 8 || cold.Warm {
		t.Fatalf("cold query = %+v", cold)
	}

	// POST form of the identical query: warm, same seeds.
	body, _ := json.Marshal(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: status %d", resp.StatusCode)
	}
	var warm QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || !reflect.DeepEqual(warm.Seeds, cold.Seeds) {
		t.Fatalf("warm POST = %+v, cold seeds %v", warm, cold.Seeds)
	}

	// A POST body omitting epsilon and seed gets the same defaults as
	// the GET form (eps=0.5, seed=1): identical query, identical seeds.
	var defaulted QueryResult
	postJSON(t, ts.URL+"/v1/query", `{"graph":"g","k":8}`, http.StatusOK, &defaulted)
	if defaulted.Epsilon != 0.5 || defaulted.Seed != 1 || !reflect.DeepEqual(defaulted.Seeds, cold.Seeds) {
		t.Fatalf("POST defaults diverged from GET: %+v", defaulted)
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Queries != 3 || stats.WarmHits != 2 || stats.Pools != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Batches != 3 || stats.MaxBatchSize != 1 {
		t.Fatalf("sequential queries miscounted as batches: %+v", stats)
	}
}

// TestHTTPStatusCodes pins the error → status mapping of every parse
// and validation branch: unknown graph 404, client mistakes 400, and
// nothing collapsing into a blanket code.
func TestHTTPStatusCodes(t *testing.T) {
	_, ts := testHTTP(t)
	cases := []struct {
		url      string
		want     int
		code     string // required machine code of the envelope
		contains string // required substring of the error message
	}{
		{"/v1/query?graph=missing&k=5", http.StatusNotFound, "unknown_graph", "unknown graph"},
		{"/v1/query?graph=g", http.StatusBadRequest, "invalid_query", "invalid k"},
		{"/v1/query?graph=g&k=nope", http.StatusBadRequest, "invalid_query", "invalid k"},
		{"/v1/query?graph=g&k=0", http.StatusBadRequest, "invalid_query", "k must be positive"},
		{"/v1/query?graph=g&k=-3", http.StatusBadRequest, "invalid_query", "k must be positive"},
		{"/v1/query?graph=g&k=5&eps=2", http.StatusBadRequest, "invalid_query", "epsilon must lie in (0,1)"},
		{"/v1/query?graph=g&k=5&eps=NaN", http.StatusBadRequest, "invalid_query", "not a finite number"},
		{"/v1/query?graph=g&k=5&eps=Inf", http.StatusBadRequest, "invalid_query", "not a finite number"},
		{"/v1/query?graph=g&k=5&eps=-Inf", http.StatusBadRequest, "invalid_query", "not a finite number"},
		{"/v1/query?graph=g&k=5&seed=x", http.StatusBadRequest, "invalid_query", "invalid seed"},
		{"/v1/query?k=5", http.StatusBadRequest, "invalid_query", "missing graph"},
		{"/v1/query?graph=g&k=5&model=LT", http.StatusBadRequest, "invalid_query", "requested LT"},
		// Misspelled/unknown keys must fail loudly, listing the accepted
		// ones — not silently run with defaults.
		{"/v1/query?graph=g&k=5&epsilon=0.3", http.StatusBadRequest, "invalid_query", "graph, model, k, eps, seed"},
		{"/v1/query?graph=g&k=5&sead=9", http.StatusBadRequest, "invalid_query", "unknown query parameter"},
		// Unknown paths get the same envelope from the mux fallback.
		{"/nope", http.StatusNotFound, "not_found", "/nope"},
		{"/v1/nope", http.StatusNotFound, "not_found", "/v1/nope"},
	}
	for _, c := range cases {
		var e ErrorResponse
		getJSON(t, ts.URL+c.url, c.want, &e)
		if e.Error.Code != c.code {
			t.Fatalf("GET %s: code %q, want %q", c.url, e.Error.Code, c.code)
		}
		if !strings.Contains(e.Error.Message, c.contains) {
			t.Fatalf("GET %s: error %q does not mention %q", c.url, e.Error.Message, c.contains)
		}
	}

	// The POST form maps through the same sentinels.
	var e ErrorResponse
	postJSON(t, ts.URL+"/v1/query", `{"graph":"missing","k":5}`, http.StatusNotFound, &e)
	if e.Error.Code != "unknown_graph" || !strings.Contains(e.Error.Message, "unknown graph") {
		t.Fatalf("POST unknown graph: %+v", e)
	}
	postJSON(t, ts.URL+"/v1/query", `{"graph":"g","k":5,"epsilon":7}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/query", `not json`, http.StatusBadRequest, nil)
	// The POST form also rejects misspelled fields instead of silently
	// running with defaults — the same contract as the GET parser.
	e = ErrorResponse{}
	postJSON(t, ts.URL+"/v1/query", `{"graph":"g","k":5,"eps":0.3}`, http.StatusBadRequest, &e)
	if e.Error.Code != "invalid_query" || !strings.Contains(e.Error.Message, "eps") {
		t.Fatalf("POST misspelled field: %+v", e)
	}
	postJSON(t, ts.URL+"/v1/jobs", `{"graph":"g","k":5,"sead":9}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/batch", `{"queries":[{"graph":"g","k":5,"eps":0.3}]}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/batch", `{"querys":[{"graph":"g","k":5}]}`, http.StatusBadRequest, nil)

	// Wrong methods get the envelope too.
	for _, target := range []string{"/v1/healthz"} {
		resp, err := http.Post(ts.URL+target, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		e = ErrorResponse{}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("POST %s: envelope decode: %v", target, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || e.Error.Code != "method_not_allowed" {
			t.Fatalf("POST %s: status %d code %q", target, resp.StatusCode, e.Error.Code)
		}
		if resp.Header.Get("Allow") == "" {
			t.Fatalf("POST %s: missing Allow header", target)
		}
	}
	for _, target := range []string{"/v1/query", "/v1/batch", "/v1/jobs"} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+target, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		e = ErrorResponse{}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("DELETE %s: envelope decode: %v", target, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || e.Error.Code != "method_not_allowed" {
			t.Fatalf("DELETE %s: status %d code %q", target, resp.StatusCode, e.Error.Code)
		}
	}
}

// TestV1Aliases pins the /v1 surface end to end: query, batch and the
// full job lifecycle agree on one answer, and repeats land on the warm
// pool. (The name dates from when /v1 aliased unprefixed paths.)
func TestV1Aliases(t *testing.T) {
	_, ts := testHTTP(t)

	var health healthResponse
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Graphs != 1 {
		t.Fatalf("/v1/healthz = %+v", health)
	}
	var graphs GraphsResponse
	getJSON(t, ts.URL+"/v1/graphs", http.StatusOK, &graphs)
	if len(graphs.Graphs) != 1 || graphs.Graphs[0].Name != "g" {
		t.Fatalf("/v1/graphs = %+v", graphs)
	}

	var cold, v1 QueryResult
	getJSON(t, ts.URL+"/v1/query?graph=g&k=8&eps=0.5&seed=1", http.StatusOK, &cold)
	getJSON(t, ts.URL+"/v1/query?graph=g&k=8&eps=0.5&seed=1", http.StatusOK, &v1)
	if !reflect.DeepEqual(v1.Seeds, cold.Seeds) || v1.Theta != cold.Theta {
		t.Fatalf("repeated /v1/query diverged: %v vs %v", v1.Seeds, cold.Seeds)
	}
	if cold.Warm || !v1.Warm {
		t.Fatalf("warm flags = %v then %v, want cold then warm", cold.Warm, v1.Warm)
	}

	var br BatchResponse
	postJSON(t, ts.URL+"/v1/batch", `{"queries":[{"graph":"g","k":8,"seed":1}]}`, http.StatusOK, &br)
	if len(br.Results) != 1 || br.Results[0].Result == nil || !reflect.DeepEqual(br.Results[0].Result.Seeds, cold.Seeds) {
		t.Fatalf("/v1/batch = %+v", br)
	}

	var job Job
	postJSON(t, ts.URL+"/v1/jobs", `{"graph":"g","k":8,"seed":1}`, http.StatusAccepted, &job)
	deadline := time.Now().Add(10 * time.Second)
	for job.State != JobDone && job.State != JobFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", job.ID, job)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, http.StatusOK, &job)
	}
	if job.State != JobDone || !reflect.DeepEqual(job.Result.Seeds, cold.Seeds) {
		t.Fatalf("/v1 job lifecycle = %+v", job)
	}
	var jobs []Job
	getJSON(t, ts.URL+"/v1/jobs", http.StatusOK, &jobs)
	if len(jobs) != 1 {
		t.Fatalf("/v1/jobs list = %+v", jobs)
	}

	var stats Stats
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Pools != 1 {
		t.Fatalf("query, batch and job created distinct pools: %+v", stats)
	}
}

// TestStatusForError pins the sentinel → status table, including the
// default: an error wrapping no sentinel is a genuine engine failure
// and must surface as 500, never as a client error.
func TestStatusForError(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("serve: %w %q", ErrUnknownGraph, "g"), http.StatusNotFound},
		{fmt.Errorf("serve: %w %q", ErrUnknownJob, "job-9"), http.StatusNotFound},
		{fmt.Errorf("serve: %w: k", ErrInvalidQuery), http.StatusBadRequest},
		{fmt.Errorf("serve: %w", ErrOverloaded), http.StatusTooManyRequests},
		{fmt.Errorf("serve: %w", ErrShuttingDown), http.StatusServiceUnavailable},
		{errors.New("rrr generation blew up"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusForError(c.err); got != c.want {
			t.Fatalf("statusForError(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestHTTPBatch(t *testing.T) {
	_, ts := testHTTP(t)

	// Reference answers, one query at a time.
	var ref5, ref8 QueryResult
	getJSON(t, ts.URL+"/v1/query?graph=g&k=5&eps=0.6&seed=2", http.StatusOK, &ref5)
	getJSON(t, ts.URL+"/v1/query?graph=g&k=8&eps=0.5&seed=2", http.StatusOK, &ref8)

	// The same two queries in one round-trip, plus a bad member whose
	// failure must stay inline. Defaults apply per member (the k=8
	// member omits eps).
	var br BatchResponse
	postJSON(t, ts.URL+"/v1/batch",
		`{"queries":[
			{"graph":"g","k":5,"epsilon":0.6,"seed":2},
			{"graph":"g","k":8,"seed":2},
			{"graph":"missing","k":3}
		]}`,
		http.StatusOK, &br)
	if len(br.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(br.Results))
	}
	if br.Results[0].Result == nil || !reflect.DeepEqual(br.Results[0].Result.Seeds, ref5.Seeds) {
		t.Fatalf("batch member 0 = %+v, want seeds %v", br.Results[0], ref5.Seeds)
	}
	if br.Results[1].Result == nil || !reflect.DeepEqual(br.Results[1].Result.Seeds, ref8.Seeds) {
		t.Fatalf("batch member 1 = %+v, want seeds %v", br.Results[1], ref8.Seeds)
	}
	if br.Results[2].Result != nil || !strings.Contains(br.Results[2].Error, "unknown graph") {
		t.Fatalf("batch member 2 = %+v, want inline unknown-graph error", br.Results[2])
	}
	if br.Results[2].Code != "unknown_graph" {
		t.Fatalf("batch member 2 code = %q, want unknown_graph", br.Results[2].Code)
	}
	if br.Results[0].Code != "" || br.Results[1].Code != "" {
		t.Fatalf("successful members must carry no error code: %+v", br.Results[:2])
	}

	// Malformed batches are rejected as a whole.
	postJSON(t, ts.URL+"/v1/batch", `{"queries":[]}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/batch", `{"queries":"nope"}`, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/v1/batch", `garbage`, http.StatusBadRequest, nil)
}

func TestHTTPJobs(t *testing.T) {
	_, ts := testHTTP(t)

	var ref QueryResult
	getJSON(t, ts.URL+"/v1/query?graph=g&k=6&eps=0.5&seed=3", http.StatusOK, &ref)

	var job Job
	postJSON(t, ts.URL+"/v1/jobs", `{"graph":"g","k":6,"epsilon":0.5,"seed":3}`, http.StatusAccepted, &job)
	if job.ID == "" || (job.State != JobQueued && job.State != JobRunning) {
		t.Fatalf("submitted job = %+v", job)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, http.StatusOK, &job)
		if job.State == JobDone || job.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", job.ID, job)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != JobDone || job.Result == nil {
		t.Fatalf("job finished badly: %+v", job)
	}
	if !reflect.DeepEqual(job.Result.Seeds, ref.Seeds) || job.Result.Theta != ref.Theta {
		t.Fatalf("job result %v/θ=%d != sync result %v/θ=%d", job.Result.Seeds, job.Result.Theta, ref.Seeds, ref.Theta)
	}

	var jobs []Job
	getJSON(t, ts.URL+"/v1/jobs", http.StatusOK, &jobs)
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("jobs list = %+v", jobs)
	}

	// Bad submissions fail at submit time with the mapped status.
	postJSON(t, ts.URL+"/v1/jobs", `{"graph":"missing","k":3}`, http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/v1/jobs", `{"graph":"g","k":0}`, http.StatusBadRequest, nil)
	// Unknown job ids are 404.
	getJSON(t, ts.URL+"/v1/jobs/job-999", http.StatusNotFound, nil)
}

// paddedBody is a JSON object of exactly n bytes: one unknown field.
func paddedBody(n int) string { return `{"pad":"` + strings.Repeat("x", n-10) + `"}` }

// TestControlBodiesCapped pins the cap on every JSON control body a node
// decodes: MaxBodyBytes+1 bytes is refused with 413 and the
// body_too_large envelope, and a body of exactly MaxBodyBytes is read
// through — and then refused as invalid_query for its unknown field.
func TestControlBodiesCapped(t *testing.T) {
	_, ts := testHTTP(t)
	for _, path := range []string{"/v1/query", "/v1/jobs", "/v1/batch", "/v1/pools/save"} {
		for _, c := range []struct {
			size   int
			status int
			code   string
		}{
			{MaxBodyBytes + 1, http.StatusRequestEntityTooLarge, "body_too_large"},
			{MaxBodyBytes, http.StatusBadRequest, "invalid_query"},
		} {
			var e ErrorResponse
			postJSON(t, ts.URL+path, paddedBody(c.size), c.status, &e)
			if e.Error.Code != c.code {
				t.Fatalf("POST %s with %d bytes: code %q, want %q", path, c.size, e.Error.Code, c.code)
			}
		}
	}
}

// spaces is an endless stream of ' '.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// postUpload posts the JSON object open+"}" padded to exactly n bytes
// with whitespace before its closing brace, so a decoder reads all of
// it, and returns the status and the reply envelope's error code.
func postUpload(t *testing.T, url, open string, n int) (int, string) {
	t.Helper()
	pad := io.LimitReader(spaces{}, int64(n-len(open)-1))
	body := io.MultiReader(strings.NewReader(open), pad, strings.NewReader("}"))
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error.Code
}

// TestUploadBodiesCapped pins the cap on the inline graph and delta
// uploads a node decodes: MaxUploadBytes+1 bytes is refused with 413 and
// the body_too_large envelope, and a whitespace-padded upload of exactly
// MaxUploadBytes is read through and applied.
func TestUploadBodiesCapped(t *testing.T) {
	_, ts := testHTTP(t)
	for _, c := range []struct {
		path, open string
		status     int
	}{
		{"/v1/graphs", `{"name":"t","model":"IC","edges":[[0,1],[1,2]]`, http.StatusCreated},
		{"/v1/graphs/g/edges", `{"add":[[2,0]],"seed":7`, http.StatusOK},
	} {
		if status, code := postUpload(t, ts.URL+c.path, c.open, MaxUploadBytes+1); status != http.StatusRequestEntityTooLarge || code != "body_too_large" {
			t.Fatalf("POST %s with %d bytes: %d %q, want 413 body_too_large", c.path, MaxUploadBytes+1, status, code)
		}
		if status, code := postUpload(t, ts.URL+c.path, c.open, MaxUploadBytes); status != c.status {
			t.Fatalf("POST %s with %d bytes: %d %q, want %d", c.path, MaxUploadBytes, status, code, c.status)
		}
	}
}
