package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ingest"
)

// firstEdges returns up to k existing directed edges of g, for deltas
// that remove real edges.
func firstEdges(g *graph.Graph, k int) []graph.Edge {
	var out []graph.Edge
	for u := int32(0); u < g.N && len(out) < k; u++ {
		for p := g.OutIndex[u]; p < g.OutIndex[u+1] && len(out) < k; p++ {
			out = append(out, graph.Edge{Src: u, Dst: g.OutEdges[p]})
		}
	}
	return out
}

// freshEdges returns up to k directed (src,dst) pairs absent from g.
func freshEdges(g *graph.Graph, k int) []graph.Edge {
	present := make(map[[2]int32]bool, g.M)
	for u := int32(0); u < g.N; u++ {
		for p := g.OutIndex[u]; p < g.OutIndex[u+1]; p++ {
			present[[2]int32{u, g.OutEdges[p]}] = true
		}
	}
	var out []graph.Edge
	for u := int32(0); u < g.N && len(out) < k; u++ {
		for v := int32(0); v < g.N && len(out) < k; v++ {
			if u != v && !present[[2]int32{u, v}] {
				out = append(out, graph.Edge{Src: u, Dst: v})
				present[[2]int32{u, v}] = true
			}
		}
	}
	return out
}

// TestApplyDeltaRepairsWarmPools pins the serving-layer repair
// contract across models: after a delta, a query on the
// surviving warm pool answers exactly what a cold server loaded with
// the post-delta graph answers, and the pool itself is retained (warm
// hit), not regenerated.
func TestApplyDeltaRepairsWarmPools(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		t.Run(model.String(), func(t *testing.T) {
			g := testGraph(t, 8, model)
			opt := Options{Workers: 2, MaxTheta: 4000}
			s := testServer(t, opt, map[string]*graph.Graph{"g": g})
			req := QueryRequest{Graph: "g", K: 10, Epsilon: 0.5, Seed: 7}
			if _, err := s.Query(req); err != nil {
				t.Fatal(err)
			}

			d := graph.Delta{Add: freshEdges(g, 12), Remove: firstEdges(g, 9), Seed: 99}
			res, err := s.ApplyDelta("g", d, graph.DeltaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Changed || res.Epoch != 1 || res.PoolsRepaired != 1 || res.SetsResampled+res.FullResamples == 0 {
				t.Fatalf("delta result = %+v", res)
			}
			if res.UpdatedAt.IsZero() {
				t.Fatal("delta result has zero updated_at")
			}
			if info, err := s.GraphByName("g"); err != nil || info.Epoch != 1 || info.Edges != res.Edges {
				t.Fatalf("GraphByName after delta = %+v, %v", info, err)
			}

			warm, err := s.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.Warm {
				t.Fatal("query after repair should hit the retained (repaired) pool")
			}

			ng, _, err := graph.ApplyDelta(g, d, graph.DeltaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cold := testServer(t, opt, map[string]*graph.Graph{"g": ng})
			want, err := cold.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(warm.Seeds, want.Seeds) || warm.Theta != want.Theta {
				t.Fatalf("repaired pool diverged from cold post-delta pool:\nrepaired: seeds=%v theta=%d\ncold:     seeds=%v theta=%d",
					warm.Seeds, warm.Theta, want.Seeds, want.Theta)
			}

			st := s.Stats()
			if st.Deltas != 1 || st.RepairedPools != 1 {
				t.Fatalf("stats after delta = %+v", st)
			}
		})
	}
}

// TestApplyDeltaEvictedPool pins the cold-fallback path: a pool the
// byte budget evicted before the delta is simply absent during repair,
// and the next query regenerates it cold on the post-delta graph.
func TestApplyDeltaEvictedPool(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	// A 1-byte budget keeps only the pool in active use: the second
	// query's drain evicts the first query's pool (the LRU victim).
	opt := Options{Workers: 2, MaxTheta: 4000, PoolBudgetBytes: 1}
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})
	req := QueryRequest{Graph: "g", K: 10, Epsilon: 0.5, Seed: 7}
	if _, err := s.Query(req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(QueryRequest{Graph: "g", K: 10, Epsilon: 0.5, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions == 0 || st.Pools != 1 {
		t.Fatalf("second query should evict the first pool, stats = %+v", st)
	}

	d := graph.Delta{Add: freshEdges(g, 5), Seed: 3}
	res, err := s.ApplyDelta("g", d, graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolsRepaired != 1 {
		t.Fatalf("only the resident pool should be repaired, result = %+v", res)
	}

	got, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Warm {
		t.Fatal("query on evicted pool after delta should be a cold rebuild")
	}
	ng, _, err := graph.ApplyDelta(g, d, graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := coldRun(t, ng, opt, req)
	if !reflect.DeepEqual(got.Seeds, want.Seeds) {
		t.Fatalf("cold rebuild after delta = %v, want %v", got.Seeds, want.Seeds)
	}
}

// TestRemoveGraph pins DELETE semantics at the Server level: pools are
// evicted, byte accounting returns to zero, and the name is free for
// re-registration.
func TestRemoveGraph(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	s := testServer(t, Options{Workers: 2, MaxTheta: 4000}, map[string]*graph.Graph{"g": g})
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := s.Query(QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Pools != 3 {
		t.Fatalf("expected 3 resident pools, stats = %+v", st)
	}

	info, evicted, err := s.RemoveGraph("g")
	if err != nil || info.Name != "g" || evicted != 3 {
		t.Fatalf("RemoveGraph = %+v, %d, %v", info, evicted, err)
	}
	st := s.Stats()
	if st.Pools != 0 || st.PoolBytes != 0 || st.Graphs != 0 {
		t.Fatalf("stats after removal = %+v", st)
	}
	if _, err := s.Query(QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Seed: 1}); !isUnknownGraph(err) {
		t.Fatalf("query after removal = %v, want ErrUnknownGraph", err)
	}
	if _, _, err := s.RemoveGraph("g"); !isUnknownGraph(err) {
		t.Fatalf("double removal = %v, want ErrUnknownGraph", err)
	}
	if _, err := s.AddGraph("g", g, 42); err != nil {
		t.Fatalf("re-registering a removed name: %v", err)
	}
}

// TestLifecycleHTTP drives the full /v1 graph lifecycle over HTTP:
// register (inline and from snapshot), inspect, stream a delta, and
// delete — including the error envelope for the failure cases.
func TestLifecycleHTTP(t *testing.T) {
	s, ts := testHTTP(t)

	// Register a small inline graph.
	var info GraphInfo
	postJSON(t, ts.URL+"/v1/graphs",
		`{"name":"tiny","model":"IC","edges":[[0,1],[1,2],[2,0],[0,2]],"weight_seed":5}`,
		http.StatusCreated, &info)
	if info.Name != "tiny" || info.Nodes != 3 || info.Edges != 4 || info.Epoch != 0 {
		t.Fatalf("inline registration = %+v", info)
	}
	if info.UpdatedAt.IsZero() {
		t.Fatal("registration should stamp updated_at")
	}

	// Register from a snapshot file.
	g := testGraph(t, 6, graph.LT)
	snap := filepath.Join(t.TempDir(), "g.imsnap")
	if err := ingest.WriteSnapshotFile(snap, g, 42); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/v1/graphs", `{"name":"snapped","snapshot":`+quoteJSON(snap)+`}`,
		http.StatusCreated, &info)
	if info.Name != "snapped" || info.Nodes != g.N || info.Model != "LT" {
		t.Fatalf("snapshot registration = %+v", info)
	}

	var graphs GraphsResponse
	getJSON(t, ts.URL+"/v1/graphs", http.StatusOK, &graphs)
	if len(graphs.Graphs) != 3 {
		t.Fatalf("expected 3 graphs, got %+v", graphs)
	}

	// Duplicate name → 409 graph_exists.
	checkError(t, "POST", ts.URL+"/v1/graphs", `{"name":"tiny","model":"IC","edges":[[0,1]]}`,
		http.StatusConflict, "graph_exists")
	// Neither source, both sources, unknown field → 400 invalid_query.
	checkError(t, "POST", ts.URL+"/v1/graphs", `{"name":"x"}`, http.StatusBadRequest, "invalid_query")
	checkError(t, "POST", ts.URL+"/v1/graphs",
		`{"name":"x","snapshot":"p","edges":[[0,1]]}`, http.StatusBadRequest, "invalid_query")
	checkError(t, "POST", ts.URL+"/v1/graphs", `{"name":"x","bogus":1}`, http.StatusBadRequest, "invalid_query")

	// GET one graph.
	getJSON(t, ts.URL+"/v1/graphs/tiny", http.StatusOK, &info)
	if info.Name != "tiny" || info.Epoch != 0 {
		t.Fatalf("GET /v1/graphs/tiny = %+v", info)
	}
	checkError(t, "GET", ts.URL+"/v1/graphs/nope", "", http.StatusNotFound, "unknown_graph")

	// Warm a pool, then stream a delta; epoch bumps and the pool is
	// repaired in place.
	var qr QueryResult
	getJSON(t, ts.URL+"/v1/query?graph=tiny&k=2&eps=0.5&seed=1", http.StatusOK, &qr)
	var dr DeltaResult
	postJSON(t, ts.URL+"/v1/graphs/tiny/edges", `{"add":[[1,0],[2,1]],"seed":11}`, http.StatusOK, &dr)
	if !dr.Changed || dr.Epoch != 1 || dr.Added != 2 || dr.PoolsRepaired != 1 {
		t.Fatalf("delta over HTTP = %+v", dr)
	}
	getJSON(t, ts.URL+"/v1/graphs/tiny", http.StatusOK, &info)
	if info.Epoch != 1 || info.Edges != 6 {
		t.Fatalf("graph info after delta = %+v", info)
	}

	// Strict mode rejects a self-loop; silent mode drops and reports it.
	checkError(t, "POST", ts.URL+"/v1/graphs/tiny/edges", `{"add":[[1,1]],"strict":true}`,
		http.StatusBadRequest, "invalid_delta")
	postJSON(t, ts.URL+"/v1/graphs/tiny/edges", `{"add":[[1,1]]}`, http.StatusOK, &dr)
	if dr.Changed || dr.DroppedSelfLoops != 1 || dr.Epoch != 1 {
		t.Fatalf("silent self-loop delta = %+v", dr)
	}
	// A delta from a .imdelta file.
	dpath := filepath.Join(t.TempDir(), "d.imdelta")
	if err := ingest.WriteDeltaFile(dpath, graph.Delta{Add: []graph.Edge{{Src: 0, Dst: 3}}, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/v1/graphs/tiny/edges", `{"file":`+quoteJSON(dpath)+`}`, http.StatusOK, &dr)
	if !dr.Changed || dr.Epoch != 2 || dr.Nodes != 4 {
		t.Fatalf("file delta = %+v", dr)
	}
	checkError(t, "POST", ts.URL+"/v1/graphs/tiny/edges", `{"file":"no/such.imdelta"}`,
		http.StatusBadRequest, "invalid_delta")
	// JSON cannot spell NaN but an .imdelta can: it is an invalid
	// probability, not a request to derive one, strict or not.
	nan := graph.Delta{Add: []graph.Edge{{Src: 1, Dst: 0}}, AddProb: []float32{float32(math.NaN())}}
	if err := ingest.WriteDeltaFile(dpath, nan); err != nil {
		t.Fatal(err)
	}
	checkError(t, "POST", ts.URL+"/v1/graphs/tiny/edges", `{"file":`+quoteJSON(dpath)+`}`,
		http.StatusBadRequest, "invalid_delta")
	if _, err := s.ApplyDelta("tiny", nan, graph.DeltaOptions{}); !errors.Is(err, ErrInvalidDelta) {
		t.Fatalf("NaN probability through ApplyDelta: err = %v, want ErrInvalidDelta", err)
	}
	getJSON(t, ts.URL+"/v1/graphs/tiny", http.StatusOK, &info)
	if info.Epoch != 2 {
		t.Fatalf("rejected deltas moved the epoch: %+v", info)
	}
	checkError(t, "POST", ts.URL+"/v1/graphs/nope/edges", `{"add":[[0,1]]}`,
		http.StatusNotFound, "unknown_graph")

	// DELETE evicts the graph's pools and unregisters the name.
	var del RemoveGraphResponse
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/tiny", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	if del.Graph.Name != "tiny" || del.PoolsEvicted != 1 {
		t.Fatalf("DELETE /v1/graphs/tiny = %+v", del)
	}
	checkError(t, "GET", ts.URL+"/v1/graphs/tiny", "", http.StatusNotFound, "unknown_graph")
}

// TestUnprefixedPathsRemoved pins the end of the sunset: the unversioned
// aliases of the original surface answer the JSON 404 envelope like any
// other unknown path, with no deprecation headers left behind.
func TestUnprefixedPathsRemoved(t *testing.T) {
	_, ts := testHTTP(t)
	for _, path := range []string{"/query?graph=g&k=5", "/graphs", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusNotFound || e.Error.Code != "not_found" {
			t.Fatalf("GET %s: status %d, envelope %+v (%v), want 404 not_found", path, resp.StatusCode, e, err)
		}
		if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Successor-Version") != "" {
			t.Fatalf("GET %s still carries deprecation headers", path)
		}
	}
}

func isUnknownGraph(err error) bool {
	return err != nil && errors.Is(err, ErrUnknownGraph)
}

// checkError performs a request expecting the JSON error envelope.
func checkError(t *testing.T, method, url, body string, wantCode int, wantErrCode string) {
	t.Helper()
	var rd *http.Request
	var err error
	if body != "" {
		rd, err = http.NewRequest(method, url, strings.NewReader(body))
	} else {
		rd, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		rd.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s %s: decode envelope: %v", method, url, err)
	}
	if resp.StatusCode != wantCode || env.Error.Code != wantErrCode {
		t.Fatalf("%s %s: status %d code %q, want %d %q", method, url, resp.StatusCode, env.Error.Code, wantCode, wantErrCode)
	}
}

func quoteJSON(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestLifecycleEndpointsAreV1Only pins that the new lifecycle routes do
// not exist on the unversioned surface.
func TestLifecycleEndpointsAreV1Only(t *testing.T) {
	_, ts := testHTTP(t)
	resp, err := http.Post(ts.URL+"/graphs", "application/json", strings.NewReader(`{"name":"x","model":"IC","edges":[[0,1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusCreated {
		t.Fatal("POST /graphs must not register graphs; lifecycle is /v1-only")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/g", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("DELETE /graphs/{name} must not exist; lifecycle is /v1-only")
	}
}
