package route

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/serve"
)

func postJSON(t *testing.T, url, body string, wantCode int, v any) {
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

// TestRouterLifecycleBroadcast pins that lifecycle writes through the
// router reach every node: a registration is visible on each backend,
// a delta advances every node's epoch (repair counters summed across
// the fleet), and a deletion removes the graph everywhere.
func TestRouterLifecycleBroadcast(t *testing.T) {
	_, ts, backends := testFleet(t, 3)

	var info serve.GraphInfo
	postJSON(t, ts.URL+"/v1/graphs",
		`{"name":"h","model":"IC","edges":[[0,1],[1,2],[2,0],[0,2]],"weight_seed":9}`,
		http.StatusCreated, &info)
	if info.Name != "h" || info.Nodes != 3 {
		t.Fatalf("router registration = %+v", info)
	}
	for i, b := range backends {
		getJSON(t, b.URL+"/v1/graphs/h", http.StatusOK, &info)
		if info.Name != "h" || info.Epoch != 0 {
			t.Fatalf("node %d after broadcast registration: %+v", i, info)
		}
	}
	// A duplicate registration conflicts on every node → 409 through.
	var e serve.ErrorResponse
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json",
		strings.NewReader(`{"name":"h","model":"IC","edges":[[0,1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || e.Error.Code != "graph_exists" {
		t.Fatalf("duplicate broadcast registration: status %d code %q", resp.StatusCode, e.Error.Code)
	}

	// Warm a pool somewhere in the fleet, then stream a delta through
	// the router: every node's epoch advances.
	getJSON(t, ts.URL+"/v1/query?graph=h&k=2&eps=0.5&seed=1", http.StatusOK, nil)
	var dr serve.DeltaResult
	postJSON(t, ts.URL+"/v1/graphs/h/edges", `{"add":[[1,0],[2,1]],"seed":3}`, http.StatusOK, &dr)
	if !dr.Changed || dr.Epoch != 1 || dr.PoolsRepaired != 1 {
		t.Fatalf("router delta = %+v", dr)
	}
	for i, b := range backends {
		getJSON(t, b.URL+"/v1/graphs/h", http.StatusOK, &info)
		if info.Epoch != 1 || info.Edges != 6 {
			t.Fatalf("node %d after broadcast delta: %+v", i, info)
		}
	}
	// The router's epoch-aware GET agrees.
	getJSON(t, ts.URL+"/v1/graphs/h", http.StatusOK, &info)
	if info.Epoch != 1 {
		t.Fatalf("router GET after delta = %+v", info)
	}
	// The union keeps both graphs.
	var graphs serve.GraphsResponse
	getJSON(t, ts.URL+"/v1/graphs", http.StatusOK, &graphs)
	if len(graphs.Graphs) != 2 {
		t.Fatalf("union after registration = %+v", graphs)
	}

	// Deletion removes the graph from every node.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/h", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del serve.RemoveGraphResponse
	if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || del.Graph.Name != "h" || del.PoolsEvicted != 1 {
		t.Fatalf("router delete: status %d %+v", resp.StatusCode, del)
	}
	for i, b := range backends {
		r2, err := http.Get(b.URL + "/v1/graphs/h")
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusNotFound {
			t.Fatalf("node %d still holds deleted graph (status %d)", i, r2.StatusCode)
		}
	}
}

// TestRouterFindsPostBootGraph pins the unknown-graph recovery path:
// a graph registered after boot directly on one backend — not through
// the router — is still routable. The ring owner answers
// unknown_graph, the router polls the fleet for a holder, and the
// query is re-forwarded there.
func TestRouterFindsPostBootGraph(t *testing.T) {
	rt, ts, backends := testFleet(t, 3)

	// Register "fresh" on a node that is NOT the ring owner for the
	// queried pool key, so the first forward must miss.
	const seed = 1
	owner := rt.Owner("fresh", seed)
	target := -1
	for i, b := range backends {
		if b.URL != owner {
			target = i
			break
		}
	}
	var info serve.GraphInfo
	postJSON(t, backends[target].URL+"/v1/graphs",
		`{"name":"fresh","model":"IC","edges":[[0,1],[1,2],[2,0]],"weight_seed":7}`,
		http.StatusCreated, &info)

	var qr serve.QueryResult
	getJSON(t, ts.URL+"/v1/query?graph=fresh&k=2&eps=0.5&seed=1", http.StatusOK, &qr)
	if len(qr.Seeds) != 2 {
		t.Fatalf("re-forwarded query = %+v", qr)
	}

	// A graph no node holds still fails with unknown_graph.
	var e serve.ErrorResponse
	getJSON(t, ts.URL+"/v1/query?graph=nowhere&k=2&eps=0.5&seed=1", http.StatusNotFound, &e)
	if e.Error.Code != "unknown_graph" {
		t.Fatalf("missing graph code = %q", e.Error.Code)
	}
}

// TestRouterUnprefixedPathsRemoved pins that the router, like the nodes,
// answers the removed unversioned aliases with the JSON 404 envelope.
func TestRouterUnprefixedPathsRemoved(t *testing.T) {
	_, ts, _ := testFleet(t, 1)
	for _, path := range []string{"/query?graph=g&k=5", "/graphs", "/healthz"} {
		var e serve.ErrorResponse
		getJSON(t, ts.URL+path, http.StatusNotFound, &e)
		if e.Error.Code != "not_found" {
			t.Fatalf("GET %s: code %q, want not_found", path, e.Error.Code)
		}
	}
}

// TestRouterCapsUploads pins the bound on the graph and delta uploads
// the router buffers whole before broadcasting them: serve.MaxUploadBytes+1
// bytes is refused with 413 body_too_large, and a whitespace-padded
// upload of exactly serve.MaxUploadBytes is read through and applied on
// the fleet.
func TestRouterCapsUploads(t *testing.T) {
	_, ts, _ := testFleet(t, 1)
	post := func(path, open string, n int) (int, string) {
		pad := io.LimitReader(spaces{}, int64(n-len(open)-1))
		body := io.MultiReader(strings.NewReader(open), pad, strings.NewReader("}"))
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e serve.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error.Code
	}
	for _, c := range []struct {
		path, open string
		status     int
	}{
		{"/v1/graphs", `{"name":"t","model":"IC","edges":[[0,1],[1,2]]`, http.StatusCreated},
		{"/v1/graphs/g/edges", `{"add":[[2,0]],"seed":7`, http.StatusOK},
	} {
		if status, code := post(c.path, c.open, serve.MaxUploadBytes+1); status != http.StatusRequestEntityTooLarge || code != "body_too_large" {
			t.Fatalf("POST %s with %d bytes: %d %q, want 413 body_too_large", c.path, serve.MaxUploadBytes+1, status, code)
		}
		if status, code := post(c.path, c.open, serve.MaxUploadBytes); status != c.status {
			t.Fatalf("POST %s with %d bytes: %d %q, want %d", c.path, serve.MaxUploadBytes, status, code, c.status)
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
