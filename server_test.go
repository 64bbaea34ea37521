package efficientimm

// Public-facade tests of the warm-pool query service: the served answer
// for (graph, model, k, epsilon, rngSeed) must be byte-identical to a
// cold Run with the same options, cold or warm, direct or over HTTP.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestServerMatchesRun(t *testing.T) {
	g, err := GenerateRMAT(8, 6, IC, 42)
	if err != nil {
		t.Fatal(err)
	}
	const maxTheta = 4000
	srv := NewServer(ServeOptions{Workers: 2, MaxTheta: maxTheta})
	if _, err := srv.AddGraph("g", g, 42); err != nil {
		t.Fatal(err)
	}

	opt := Defaults()
	opt.K = 8
	opt.Workers = 2
	opt.MaxTheta = maxTheta
	cold, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}

	req := QueryRequest{Graph: "g", K: opt.K, Epsilon: opt.Epsilon, Seed: opt.Seed}
	for i, wantWarm := range []bool{false, true} {
		res, err := srv.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Seeds, cold.Seeds) || res.Theta != cold.Theta {
			t.Fatalf("query %d: served %v/θ=%d != Run %v/θ=%d", i, res.Seeds, res.Theta, cold.Seeds, cold.Theta)
		}
		if res.Warm != wantWarm {
			t.Fatalf("query %d: warm=%v, want %v", i, res.Warm, wantWarm)
		}
	}

	// The HTTP front-end serves the same bytes.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/query?graph=g&k=8&eps=0.5&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var httpRes QueryResult
	if err := json.NewDecoder(resp.Body).Decode(&httpRes); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(httpRes.Seeds, cold.Seeds) {
		t.Fatalf("HTTP seeds %v != Run seeds %v", httpRes.Seeds, cold.Seeds)
	}

	st := srv.Stats()
	if st.Queries != 3 || st.WarmHits != 2 || st.HitRatio() <= 0.5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServerBatchAndJobs exercises the batched and async front doors of
// the facade: both must return the same bytes as the synchronous path,
// and failures must map onto the exported sentinels.
func TestServerBatchAndJobs(t *testing.T) {
	g, err := GenerateRMAT(8, 6, IC, 42)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServeOptions{Workers: 2, MaxTheta: 4000})
	if _, err := srv.AddGraph("g", g, 42); err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{Graph: "g", K: 6, Epsilon: 0.5, Seed: 1}
	ref, err := srv.Query(req)
	if err != nil {
		t.Fatal(err)
	}

	items := srv.QueryBatch([]QueryRequest{req, {Graph: "nope", K: 3, Epsilon: 0.5}})
	if items[0].Result == nil || !reflect.DeepEqual(items[0].Result.Seeds, ref.Seeds) {
		t.Fatalf("batch member 0 = %+v, want seeds %v", items[0], ref.Seeds)
	}
	if items[1].Result != nil || items[1].Error == "" {
		t.Fatalf("batch member 1 should fail inline: %+v", items[1])
	}

	job, err := srv.SubmitJob(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.State != "done" && job.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", job)
		}
		time.Sleep(5 * time.Millisecond)
		job, _ = srv.Job(job.ID)
	}
	if job.State != "done" || !reflect.DeepEqual(job.Result.Seeds, ref.Seeds) {
		t.Fatalf("job = %+v, want seeds %v", job, ref.Seeds)
	}

	if _, err := srv.Query(QueryRequest{Graph: "nope", K: 3, Epsilon: 0.5}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph returned %v, want ErrUnknownGraph", err)
	}
	if _, err := srv.Query(QueryRequest{Graph: "g", K: -1, Epsilon: 0.5}); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("invalid k returned %v, want ErrInvalidQuery", err)
	}
}
