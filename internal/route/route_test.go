package route

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// testFleet boots n serve backends over one shared graph registry and a
// router in front of them. Returns the router, its HTTP server, and the
// backend test servers (index-aligned with router nodes).
func testFleet(t *testing.T, n int) (*Router, *httptest.Server, []*httptest.Server) {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6), graph.IC, 42)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range backends {
		s := serve.NewServer(serve.Options{Workers: 2, MaxTheta: 4000})
		if _, err := s.AddGraph("g", g, 42); err != nil {
			t.Fatal(err)
		}
		backends[i] = httptest.NewServer(s.Handler())
		t.Cleanup(backends[i].Close)
		urls[i] = backends[i].URL
	}
	rt, err := New(Options{Nodes: urls, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts, backends
}

func getJSON(t *testing.T, url string, wantCode int, v any) *http.Response {
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
	return resp
}

// seedsOwnedBy finds a seed whose (g, seed) pool key the given node
// owns.
func seedOwnedBy(t *testing.T, rt *Router, nodeURL string) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10000; seed++ {
		if rt.Owner("g", seed) == nodeURL {
			return seed
		}
	}
	t.Fatalf("no seed in [1,10000) owned by %s", nodeURL)
	return 0
}

// TestRouterShardsQueries pins the core contract: routed answers are
// byte-identical to direct backend answers (routing is placement, not
// semantics), repeats of one pool key land warm on the same node, and
// the ring spreads keys across the fleet.
func TestRouterShardsQueries(t *testing.T) {
	rt, ts, backends := testFleet(t, 3)

	owners := make(map[string]bool)
	for seed := uint64(1); seed <= 6; seed++ {
		url := fmt.Sprintf("/v1/query?graph=g&k=8&eps=0.5&seed=%d", seed)
		var routed serve.QueryResult
		getJSON(t, ts.URL+url, http.StatusOK, &routed)

		// Direct answer from any backend must match — take backend 0.
		var direct serve.QueryResult
		getJSON(t, backends[0].URL+url, http.StatusOK, &direct)
		if !reflect.DeepEqual(routed.Seeds, direct.Seeds) || routed.Theta != direct.Theta {
			t.Fatalf("seed %d: routed answer diverged from direct: %v vs %v", seed, routed.Seeds, direct.Seeds)
		}

		// A repeat must hit the same node's now-warm pool.
		var warm serve.QueryResult
		getJSON(t, ts.URL+url, http.StatusOK, &warm)
		if !warm.Warm || !reflect.DeepEqual(warm.Seeds, routed.Seeds) {
			t.Fatalf("seed %d: routed repeat not warm (warm=%v)", seed, warm.Warm)
		}
		owners[rt.Owner("g", seed)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("6 seeds all landed on one node; ring is not spreading (owners=%v)", owners)
	}

	// /v1/stats sums the nodes' selection-memo counters: every routed
	// repeat above was answered from its pool's memo.
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	var hits, misses int64
	for _, n := range st.Nodes {
		hits += n.Stats.SelectionMemoHits
		misses += n.Stats.SelectionMemoMisses
	}
	if hits == 0 || misses == 0 || st.SelectionMemoHits != hits || st.SelectionMemoMisses != misses {
		t.Fatalf("router memo totals %d/%d, nodes sum to %d/%d", st.SelectionMemoHits, st.SelectionMemoMisses, hits, misses)
	}
}

// TestRouterCapsQueryBodies pins the bound on the bodies the router
// buffers whole before it knows their owner: a single-query or job body
// past serve.MaxBodyBytes is refused with 413 and the body_too_large envelope,
// and one within it still routes.
func TestRouterCapsQueryBodies(t *testing.T) {
	_, ts, _ := testFleet(t, 1)
	huge := `{"graph":"g","k":4,"pad":"` + strings.Repeat("x", serve.MaxBodyBytes) + `"}`
	for _, path := range []string{"/v1/query", "/v1/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var e serve.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusRequestEntityTooLarge || e.Error.Code != "body_too_large" {
			t.Fatalf("POST %s with a %d-byte body: status %d code %q (decode: %v)", path, len(huge), resp.StatusCode, e.Error.Code, err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"graph":"g","k":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small POST /v1/query: status %d", resp.StatusCode)
	}
}

// TestRouterCapsBatchBodies pins the same bound on the batch body the
// router decodes before fanning it out: MaxBodyBytes+1 bytes is refused
// with 413 body_too_large, and exactly MaxBodyBytes is read through — and
// then refused as invalid_query for its unknown field.
func TestRouterCapsBatchBodies(t *testing.T) {
	_, ts, _ := testFleet(t, 1)
	for _, c := range []struct {
		size   int
		status int
		code   string
	}{
		{serve.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge, "body_too_large"},
		{serve.MaxBodyBytes, http.StatusBadRequest, "invalid_query"},
	} {
		body := `{"pad":"` + strings.Repeat("x", c.size-10) + `"}`
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e serve.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != c.status || e.Error.Code != c.code {
			t.Fatalf("POST /v1/batch with %d bytes: status %d code %q (decode: %v), want %d %q",
				len(body), resp.StatusCode, e.Error.Code, err, c.status, c.code)
		}
	}
}

// TestRouterFailover pins the failure contract: a down node yields the
// 503 node_unavailable envelope (with Retry-After) for the pool keys it
// owns — inline for batch members — while keys owned by healthy nodes
// keep serving.
func TestRouterFailover(t *testing.T) {
	rt, ts, backends := testFleet(t, 2)
	deadSeed := seedOwnedBy(t, rt, backends[0].URL)
	liveSeed := seedOwnedBy(t, rt, backends[1].URL)
	backends[0].Close()

	var e serve.ErrorResponse
	resp := getJSON(t, ts.URL+fmt.Sprintf("/v1/query?graph=g&k=8&seed=%d", deadSeed),
		http.StatusServiceUnavailable, &e)
	if e.Error.Code != "node_unavailable" {
		t.Fatalf("dead node error code = %q, want node_unavailable", e.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("node_unavailable response missing Retry-After")
	}

	var res serve.QueryResult
	getJSON(t, ts.URL+fmt.Sprintf("/v1/query?graph=g&k=8&seed=%d", liveSeed), http.StatusOK, &res)
	if len(res.Seeds) != 8 {
		t.Fatalf("healthy node answer = %+v", res)
	}

	// Batch: the dead member fails inline, the live member serves.
	body := fmt.Sprintf(`{"queries":[{"graph":"g","k":8,"seed":%d},{"graph":"g","k":8,"seed":%d}]}`, deadSeed, liveSeed)
	bresp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var br serve.BatchResponse
	if err := json.NewDecoder(bresp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if bresp.StatusCode != http.StatusOK || len(br.Results) != 2 {
		t.Fatalf("batch status %d results %+v", bresp.StatusCode, br.Results)
	}
	if br.Results[0].Code != "node_unavailable" || br.Results[0].Result != nil {
		t.Fatalf("dead member = %+v, want inline node_unavailable", br.Results[0])
	}
	if br.Results[1].Result == nil || len(br.Results[1].Result.Seeds) != 8 {
		t.Fatalf("live member = %+v", br.Results[1])
	}

	// Health still reports ok with one healthy node; stats carries the
	// dead node's error inline.
	var h HealthResponse
	getJSON(t, ts.URL+"/v1/healthz", http.StatusOK, &h)
	if h.Nodes != 2 || h.Healthy != 1 {
		t.Fatalf("health = %+v", h)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &st)
	if len(st.Nodes) != 2 || st.Nodes[0].Error == "" || st.Nodes[1].Stats == nil {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRouterSingleFlight pins the dedup: identical concurrent queries
// reach the backend exactly once; followers replay the leader's bytes.
func TestRouterSingleFlight(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		<-release
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"seeds":[1,2,3]}`)
	}))
	t.Cleanup(backend.Close)
	rt, err := New(Options{Nodes: []string{backend.URL}, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	const clients = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Get(ts.URL + "/v1/query?graph=g&k=8&seed=1")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK || len(body["seeds"].([]any)) != 3 {
				t.Errorf("client %d: status %d body %v", i, resp.StatusCode, body)
			}
		}(i)
	}
	close(start)
	// Let every client reach the router before the backend responds.
	deadline := time.Now().Add(5 * time.Second)
	for hits.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // give followers time to pile onto the flight
	close(release)
	wg.Wait()
	if got := hits.Load(); got != 1 {
		t.Fatalf("backend saw %d requests for one identical concurrent query, want 1", got)
	}
}

// TestRouterReusesNodeConnections pins the forwarding client's
// keep-alive pool: concurrent distinct queries through the router reuse
// its connections to a node instead of dialing one for most forwards.
func TestRouterReusesNodeConnections(t *testing.T) {
	const clients, perClient = 8, 50
	var dials atomic.Int64
	node := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond) // keep the forwards overlapping
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"seeds":[1]}`)
	}))
	node.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	node.Start()
	t.Cleanup(node.Close)
	rt, err := New(Options{Nodes: []string{node.URL}, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	t.Cleanup(tr.CloseIdleConnections)
	client := &http.Client{Transport: tr}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// A distinct k per request: no single-flight sharing.
				resp, err := client.Get(fmt.Sprintf("%s/v1/query?graph=g&k=%d&seed=1", ts.URL, 1+c*perClient+i))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d query %d: status %d", c, i, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := dials.Load(); got > 2*clients {
		t.Fatalf("the router opened %d connections to the node for %d concurrent clients", got, clients)
	}
}

// TestRouterSingleFlightKeysRawRequest pins that the flight is keyed on
// the request as sent, not on the identity the router parses from it: a
// GET with a misspelled parameter and a POST with an unknown field, sent
// while a leader with the same parsed identity is held at the node, each
// reach the node themselves and get its refusal, not the leader's answer.
func TestRouterSingleFlightKeysRawRequest(t *testing.T) {
	const leaderQuery, leaderBody = "graph=g&k=8&seed=1", `{"graph":"g","k":8,"seed":1}`
	var hits atomic.Int64
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		body, _ := io.ReadAll(r.Body)
		if r.URL.RawQuery != leaderQuery && string(body) != leaderBody {
			serve.WriteErrorEnvelope(w, http.StatusBadRequest, "invalid_query", "unknown parameter")
			return
		}
		<-release
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"seeds":[1,2,3]}`)
	}))
	t.Cleanup(backend.Close)
	rt, err := New(Options{Nodes: []string{backend.URL}, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	send := func(method, query, body string) <-chan int {
		status := make(chan int, 1)
		go func() {
			req, err := http.NewRequest(method, ts.URL+"/v1/query?"+query, strings.NewReader(body))
			if err != nil {
				t.Error(err)
				status <- 0
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				status <- 0
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		return status
	}
	waitHits := func(n int64) {
		deadline := time.Now().Add(2 * time.Second)
		for hits.Load() < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	leaders := []<-chan int{send(http.MethodGet, leaderQuery, ""), send(http.MethodPost, "", leaderBody)}
	waitHits(2)
	misspelled := []<-chan int{
		send(http.MethodGet, leaderQuery+"&epsilon=0.3", ""),
		send(http.MethodPost, "", `{"graph":"g","k":8,"seed":1,"eps":0.3}`),
	}
	waitHits(4)
	close(release)
	for i, st := range misspelled {
		if got := <-st; got != http.StatusBadRequest {
			t.Errorf("misspelled request %d: status %d, want the node's 400", i, got)
		}
	}
	for i, st := range leaders {
		if got := <-st; got != http.StatusOK {
			t.Errorf("leader %d: status %d, want 200", i, got)
		}
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("node saw %d requests, want 4: two leaders and two distinct misspelled requests", got)
	}
}

// TestRouterJobs pins the prefixed job id round-trip: submit through
// the router, poll through the router, list through the router.
func TestRouterJobs(t *testing.T) {
	_, ts, _ := testFleet(t, 2)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"graph":"g","k":6,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var job serve.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(job.ID, "n") || !strings.Contains(job.ID, "-job-") {
		t.Fatalf("router job id %q lacks node prefix", job.ID)
	}

	deadline := time.Now().Add(10 * time.Second)
	for job.State != serve.JobDone && job.State != serve.JobFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", job.ID, job)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, http.StatusOK, &job)
	}
	if job.State != serve.JobDone || job.Result == nil || len(job.Result.Seeds) != 6 {
		t.Fatalf("job = %+v", job)
	}

	var jobs []serve.Job
	getJSON(t, ts.URL+"/v1/jobs", http.StatusOK, &jobs)
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("jobs list = %+v", jobs)
	}

	var e serve.ErrorResponse
	getJSON(t, ts.URL+"/v1/jobs/n0-job-999", http.StatusNotFound, &e)
	if e.Error.Code != "unknown_job" {
		t.Fatalf("unknown job code = %q", e.Error.Code)
	}
	getJSON(t, ts.URL+"/v1/jobs/garbage", http.StatusNotFound, &e)
	if e.Error.Code != "unknown_job" {
		t.Fatalf("malformed job id code = %q", e.Error.Code)
	}
}

// TestRouterSurface pins the aggregation endpoints and the envelope
// fallbacks on the router's own mux.
func TestRouterSurface(t *testing.T) {
	_, ts, _ := testFleet(t, 2)

	var graphs serve.GraphsResponse
	getJSON(t, ts.URL+"/v1/graphs", http.StatusOK, &graphs)
	if len(graphs.Graphs) != 1 || graphs.Graphs[0].Name != "g" {
		t.Fatalf("graphs = %+v", graphs)
	}

	var e serve.ErrorResponse
	getJSON(t, ts.URL+"/v1/nope", http.StatusNotFound, &e)
	if e.Error.Code != "not_found" {
		t.Fatalf("unknown path code = %q", e.Error.Code)
	}
	resp, err := http.Post(ts.URL+"/v1/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	e = serve.ErrorResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || e.Error.Code != "method_not_allowed" {
		t.Fatalf("POST healthz: status %d code %q", resp.StatusCode, e.Error.Code)
	}

	// Validation errors from the owner node pass through the router
	// with their envelope intact.
	e = serve.ErrorResponse{}
	getJSON(t, ts.URL+"/v1/query?graph=missing&k=5", http.StatusNotFound, &e)
	if e.Error.Code != "unknown_graph" {
		t.Fatalf("forwarded validation code = %q", e.Error.Code)
	}
}

// TestNewValidation pins the constructor's option checks.
func TestNewValidation(t *testing.T) {
	cases := []Options{
		{},
		{Nodes: []string{""}},
		{Nodes: []string{"127.0.0.1:7601"}}, // missing scheme
		{Nodes: []string{"http://a:1", "http://a:1"}},
	}
	for i, opt := range cases {
		if _, err := New(opt); err == nil {
			t.Fatalf("case %d: New accepted invalid options %+v", i, opt)
		}
	}
	if _, err := New(Options{Nodes: []string{"http://a:1", "http://b:1"}}); err != nil {
		t.Fatal(err)
	}
}
