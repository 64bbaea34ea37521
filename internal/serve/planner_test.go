package serve

// Tests of the batched query planner, admission control, and shutdown
// draining. The concurrency tests use generous gather windows so that
// scheduling jitter cannot split a deliberate burst across drains.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestBatchSharedExtension is the tentpole regression: N concurrent
// distinct-k queries on one warm pool must gather into one batch,
// perform exactly one shared θ-extension (exactly one member generates,
// everyone else reads its own θ-prefix), and still answer every member
// byte-identically to a cold run. Run under -race in CI.
func TestBatchSharedExtension(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Options{
		Workers:      2,
		MaxTheta:     8000,
		QueryWorkers: 16,
		GatherWindow: 300 * time.Millisecond,
	}
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})

	// Warm the pool so the burst extends instead of building.
	warmup := QueryRequest{Graph: "g", K: 3, Epsilon: 0.8, Seed: 1}
	if _, err := s.Query(warmup); err != nil {
		t.Fatal(err)
	}

	reqs := []QueryRequest{
		{Graph: "g", K: 4, Epsilon: 0.6, Seed: 1},
		{Graph: "g", K: 20, Epsilon: 0.4, Seed: 1}, // largest requirement: the one extender
		{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1},
		{Graph: "g", K: 12, Epsilon: 0.5, Seed: 1},
		{Graph: "g", K: 16, Epsilon: 0.5, Seed: 1},
	}
	results := make([]*QueryResult, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req QueryRequest) {
			defer wg.Done()
			res, err := s.Query(req)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i, req)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	generators := 0
	for i, res := range results {
		cold := coldRun(t, g, opt, reqs[i])
		if !reflect.DeepEqual(res.Seeds, cold.Seeds) || res.Theta != cold.Theta {
			t.Fatalf("member %d (k=%d): served %v/θ=%d != cold %v/θ=%d",
				i, reqs[i].K, res.Seeds, res.Theta, cold.Seeds, cold.Theta)
		}
		if !res.Warm {
			t.Fatalf("member %d not served warm: %+v", i, res)
		}
		if res.BatchSize != len(reqs) {
			t.Fatalf("member %d answered in a batch of %d, want %d (burst split)", i, res.BatchSize, len(reqs))
		}
		if res.GeneratedSets > 0 {
			generators++
			if reqs[i].K != 20 {
				t.Fatalf("member %d (k=%d) generated %d sets; only k=20 should extend", i, reqs[i].K, res.GeneratedSets)
			}
		}
	}
	if generators != 1 {
		t.Fatalf("%d members generated sets, want exactly 1 shared extension", generators)
	}

	st := s.Stats()
	if st.SharedExtensions != 1 {
		t.Fatalf("stats report %d shared extensions, want 1: %+v", st.SharedExtensions, st)
	}
	if st.BatchedQueries != int64(len(reqs)) || st.MaxBatchSize != len(reqs) {
		t.Fatalf("batch accounting off: %+v", st)
	}
	if st.SharedSets == 0 {
		t.Fatalf("no shared-extension savings recorded: %+v", st)
	}
	if st.Batches < 2 { // warm-up drain + the burst drain
		t.Fatalf("batches = %d, want >= 2", st.Batches)
	}
}

// TestGatherWindowSkipsSequentialRepeat pins where the gather window
// waits: a query that comes straight back to a pool whose last drain
// answered it alone, from the resident pool and without growing it,
// drains at once; a leader gathers after a drain that built the pool,
// after an idle gap longer than the window, after a multi-member drain
// and after the pool's engine is dropped. Every answer still matches a
// cold run.
func TestGatherWindowSkipsSequentialRepeat(t *testing.T) {
	const window = 300 * time.Millisecond
	g := testGraph(t, 8, graph.IC)
	opt := Options{Workers: 2, MaxTheta: 4000, QueryWorkers: 4, GatherWindow: window}
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})
	req := QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Seed: 1}

	check := func(step string, req QueryRequest, res *QueryResult, gathered bool) {
		t.Helper()
		cold := coldRun(t, g, opt, req)
		if !reflect.DeepEqual(res.Seeds, cold.Seeds) || res.Theta != cold.Theta {
			t.Fatalf("%s: served %v/θ=%d != cold %v/θ=%d", step, res.Seeds, res.Theta, cold.Seeds, cold.Theta)
		}
		waited := res.WallMS >= float64(window/time.Millisecond)
		if gathered && !waited {
			t.Fatalf("%s: answered in %.1f ms, want a full %v gather window", step, res.WallMS, window)
		}
		if !gathered && (res.WallMS >= float64(window/time.Millisecond)/2 || res.BatchSize != 1) {
			t.Fatalf("%s: answered in %.1f ms in a batch of %d, want the window skipped", step, res.WallMS, res.BatchSize)
		}
	}
	query := func(step string, req QueryRequest, gathered bool) *QueryResult {
		t.Helper()
		res, err := s.Query(req)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		check(step, req, res, gathered)
		return res
	}

	query("q1 builds the pool", req, true)
	if res := query("q2 follows a growing drain", req, true); !res.Warm || res.GeneratedSets != 0 {
		t.Fatalf("q2 not a plain warm answer: %+v", res)
	}
	query("q3 comes straight back", req, false)
	time.Sleep(window + 100*time.Millisecond)
	query("q4 follows an idle gap", req, true)

	// A two-member drain: after another idle gap both members reach the
	// leader's window, and neither grows the pool.
	time.Sleep(window + 100*time.Millisecond)
	pair := []QueryRequest{{Graph: "g", K: 4, Epsilon: 0.5, Seed: 1}, {Graph: "g", K: 3, Epsilon: 0.5, Seed: 1}}
	var wg sync.WaitGroup
	for _, r := range pair {
		wg.Add(1)
		go func(r QueryRequest) {
			defer wg.Done()
			res, err := s.Query(r)
			if err != nil {
				t.Error(err)
				return
			}
			if res.BatchSize != 2 || res.GeneratedSets != 0 {
				t.Errorf("pair member k=%d: batch of %d, %d generated sets; want 2 and 0", r.K, res.BatchSize, res.GeneratedSets)
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	query("q5 follows a two-member drain", req, true)
	query("q6 comes straight back", req, false)

	s.mu.Lock()
	pe := s.pools[poolKey{graph: "g", seed: 1}]
	s.mu.Unlock()
	pe.mu.Lock()
	pe.dropEngine()
	pe.mu.Unlock()
	if res := query("q7 follows a dropped engine", req, true); res.Warm {
		t.Fatalf("q7 answered warm from a dropped engine: %+v", res)
	}
}

// TestAdmissionBackpressure pins the 429 path: with one worker, no wait
// queue, and a slow in-flight query, the overflow query is rejected
// with ErrOverloaded — and over HTTP that is a 429 with Retry-After.
func TestAdmissionBackpressure(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Options{
		Workers:      2,
		MaxTheta:     4000,
		QueryWorkers: 1,
		QueueDepth:   -1, // no waiting: reject when the worker is busy
		GatherWindow: 400 * time.Millisecond,
	}
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	release := make(chan struct{})
	go func() {
		defer close(release)
		if _, err := s.Query(QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Seed: 1}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(100 * time.Millisecond) // let the slow query take the slot

	if _, err := s.Query(QueryRequest{Graph: "g", K: 7, Epsilon: 0.5, Seed: 2}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow query returned %v, want ErrOverloaded", err)
	}
	resp, err := http.Get(ts.URL + "/v1/query?graph=g&k=7&eps=0.5&seed=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow over HTTP: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	<-release
	if st := s.Stats(); st.Rejected != 2 {
		t.Fatalf("rejected = %d, want 2: %+v", st.Rejected, st)
	}

	// With the slot free again, the same query succeeds.
	if _, err := s.Query(QueryRequest{Graph: "g", K: 7, Epsilon: 0.5, Seed: 2}); err != nil {
		t.Fatalf("post-backpressure query failed: %v", err)
	}
}

// TestQueryBatchExceedsAdmission pins the batch admission contract: a
// well-formed batch larger than the admission capacity executes in
// waves instead of partially failing with inline overload errors (the
// batch body is its queue, not the bounded admission queue).
func TestQueryBatchExceedsAdmission(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Options{
		Workers:      2,
		MaxTheta:     4000,
		QueryWorkers: 1,
		QueueDepth:   -1, // a bounded query would be rejected outright
		GatherWindow: -1,
	}
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})
	reqs := []QueryRequest{
		{Graph: "g", K: 4, Epsilon: 0.6, Seed: 1},
		{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1},
		{Graph: "g", K: 6, Epsilon: 0.5, Seed: 2},
		{Graph: "g", K: 10, Epsilon: 0.5, Seed: 2},
	}
	items := s.QueryBatch(reqs)
	for i, item := range items {
		if item.Error != "" || item.Result == nil {
			t.Fatalf("member %d of an over-capacity batch failed: %+v", i, item)
		}
		cold := coldRun(t, g, opt, reqs[i])
		if !reflect.DeepEqual(item.Result.Seeds, cold.Seeds) {
			t.Fatalf("member %d: %v != cold %v", i, item.Result.Seeds, cold.Seeds)
		}
	}
	// One worker and no gather window is the serial convoy: one query
	// per drain, no multi-member batch, no shared extension.
	if st := s.Stats(); st.Rejected != 0 || st.MaxBatchSize != 1 || st.BatchedQueries != 0 || st.SharedExtensions != 0 {
		t.Fatalf("batch members were rejected by admission or gathered by a serial planner: %+v", st)
	}
}

// TestShutdownDrains pins the drain contract: in-flight work finishes,
// work queued at admission is rejected cleanly, new work is refused,
// and finished job results stay readable.
func TestShutdownDrains(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Options{
		Workers:      2,
		MaxTheta:     4000,
		QueryWorkers: 1,
		GatherWindow: 400 * time.Millisecond, // keeps the in-flight query slow
	}
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// A job that finishes before shutdown: its result must survive.
	done, err := s.SubmitJob(QueryRequest{Graph: "g", K: 4, Epsilon: 0.6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, done.ID)

	var inflightErr, queuedErr error
	var inflightRes *QueryResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // in-flight: holds the only worker slot through the gather window
		defer wg.Done()
		inflightRes, inflightErr = s.Query(QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Seed: 1})
	}()
	time.Sleep(100 * time.Millisecond)
	go func() { // queued at admission behind the in-flight query
		defer wg.Done()
		_, queuedErr = s.Query(QueryRequest{Graph: "g", K: 6, Epsilon: 0.5, Seed: 2})
	}()
	// A job submitted during the burst: it waits for a slot behind the
	// in-flight query, and shutdown must drain it to completion rather
	// than fail it.
	queuedJob, err := s.SubmitJob(QueryRequest{Graph: "g", K: 7, Epsilon: 0.6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	wg.Wait()

	if inflightErr != nil || inflightRes == nil {
		t.Fatalf("in-flight query did not finish cleanly: %v", inflightErr)
	}
	cold := coldRun(t, g, opt, QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Seed: 1})
	if !reflect.DeepEqual(inflightRes.Seeds, cold.Seeds) {
		t.Fatalf("drained in-flight answer diverged: %v != %v", inflightRes.Seeds, cold.Seeds)
	}
	if !errors.Is(queuedErr, ErrShuttingDown) {
		t.Fatalf("queued query returned %v, want ErrShuttingDown", queuedErr)
	}
	// The queued job drained: Shutdown returned only after it ran.
	if job, ok := s.Job(queuedJob.ID); !ok || job.State != JobDone || job.Result == nil {
		t.Fatalf("job queued at shutdown did not drain to completion: %+v (ok=%v)", job, ok)
	}

	// New work is refused — as 503 over HTTP — and submissions too.
	if _, err := s.Query(QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Seed: 1}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown query returned %v, want ErrShuttingDown", err)
	}
	if _, err := s.SubmitJob(QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Seed: 1}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown job returned %v, want ErrShuttingDown", err)
	}
	resp, err := http.Get(ts.URL + "/v1/query?graph=g&k=5&eps=0.5&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown HTTP query: status %d, want 503", resp.StatusCode)
	}

	// Finished results remain readable during and after drain.
	job, ok := s.Job(done.ID)
	if !ok || job.State != JobDone || job.Result == nil {
		t.Fatalf("finished job unreadable after shutdown: %+v (ok=%v)", job, ok)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + done.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s after shutdown: status %d", done.ID, resp.StatusCode)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestJobLifecycle pins the async API at the Go level: a job's answer
// is byte-identical to the synchronous one, and validation failures are
// rejected at submit time with the right sentinel.
func TestJobLifecycle(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	s := testServer(t, Options{Workers: 2, MaxTheta: 4000}, map[string]*graph.Graph{"g": g})
	req := QueryRequest{Graph: "g", K: 6, Epsilon: 0.5, Seed: 4}

	sync1, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.SubmitJob(req)
	if err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, s, job.ID)
	if job.State != JobDone || job.Result == nil {
		t.Fatalf("job = %+v", job)
	}
	if !reflect.DeepEqual(job.Result.Seeds, sync1.Seeds) || job.Result.Theta != sync1.Theta {
		t.Fatalf("async answer %v/θ=%d != sync %v/θ=%d", job.Result.Seeds, job.Result.Theta, sync1.Seeds, sync1.Theta)
	}
	if !job.Result.Warm {
		t.Fatal("repeat job did not hit the warm pool")
	}

	if _, err := s.SubmitJob(QueryRequest{Graph: "nope", K: 3, Epsilon: 0.5}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown-graph job returned %v", err)
	}
	if _, err := s.SubmitJob(QueryRequest{Graph: "g", K: 0, Epsilon: 0.5}); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("invalid job returned %v", err)
	}
	if _, ok := s.Job("job-12345"); ok {
		t.Fatal("unknown job id resolved")
	}
	st := s.Stats()
	if st.JobsSubmitted != 1 || st.JobsDone != 1 || st.JobsFailed != 0 {
		t.Fatalf("job stats = %+v", st)
	}
}

// TestJobsTableBounded pins the jobs table's bound: with maxRetainedJobs
// unfinished jobs retained, a submission is refused as overloaded (429
// with Retry-After over HTTP) and adds no entry; once one of them
// finishes, the next submission evicts it and is accepted.
func TestJobsTableBounded(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	s := testServer(t, Options{Workers: 2, MaxTheta: 4000}, map[string]*graph.Graph{"g": g})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	req := QueryRequest{Graph: "g", K: 4, Epsilon: 0.6, Seed: 2}

	s.mu.Lock()
	for i := 1; i <= maxRetainedJobs; i++ {
		id := fmt.Sprintf("held-%d", i)
		s.jobs[id] = &jobEntry{seq: int64(-maxRetainedJobs + i), job: Job{ID: id, State: JobRunning, Request: req}}
	}
	s.mu.Unlock()

	if _, err := s.SubmitJob(req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submission into a full table returned %v, want ErrOverloaded", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"graph":"g","k":4,"epsilon":0.6,"seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("POST /v1/jobs into a full table: status %d, Retry-After %q; want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if n := len(s.Jobs()); n != maxRetainedJobs {
		t.Fatalf("refused submissions left %d jobs, want %d", n, maxRetainedJobs)
	}

	s.mu.Lock()
	s.jobs["held-7"].job.State = JobDone
	s.mu.Unlock()
	job, err := s.SubmitJob(req)
	if err != nil {
		t.Fatalf("submission after a job finished: %v", err)
	}
	if job = waitJob(t, s, job.ID); job.State != JobDone {
		t.Fatalf("accepted job = %+v", job)
	}
	if _, ok := s.Job("held-7"); ok {
		t.Fatal("the finished job was not evicted to make room")
	}
	if n := len(s.Jobs()); n != maxRetainedJobs {
		t.Fatalf("table holds %d jobs, want %d", n, maxRetainedJobs)
	}
}

func waitJob(t *testing.T, s *Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if job.State == JobDone || job.State == JobFailed {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
