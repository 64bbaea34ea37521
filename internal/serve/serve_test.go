package serve

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
)

func testGraph(t testing.TB, scale int, model graph.Model) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, 6), model, 42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testServer(t testing.TB, opt Options, graphs map[string]*graph.Graph) *Server {
	t.Helper()
	s := NewServer(opt)
	for name, g := range graphs {
		if _, err := s.AddGraph(name, g, 42); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// coldRun computes the reference answer the server must reproduce,
// deriving the engine configuration through the same mapping the server
// uses.
func coldRun(t testing.TB, g *graph.Graph, opt Options, req QueryRequest) *imm.Result {
	t.Helper()
	o := opt.EngineOptions()
	o.K = req.K
	o.Epsilon = req.Epsilon
	o.Seed = req.Seed
	res, err := imm.Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQueryMatchesColdRun(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Options{Workers: 2, MaxTheta: 6000}
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})

	queries := []QueryRequest{
		{Graph: "g", K: 10, Epsilon: 0.5, Seed: 1},
		{Graph: "g", K: 10, Epsilon: 0.5, Seed: 1}, // warm repeat
		{Graph: "g", K: 4, Epsilon: 0.7, Seed: 1},  // truncated view
		{Graph: "g", K: 20, Epsilon: 0.4, Seed: 1}, // θ extension
		{Graph: "g", K: 10, Epsilon: 0.5, Seed: 9}, // different pool
	}
	for i, req := range queries {
		res, err := s.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		cold := coldRun(t, g, opt, req)
		if !reflect.DeepEqual(res.Seeds, cold.Seeds) || res.Theta != cold.Theta || res.Coverage != cold.Coverage {
			t.Fatalf("query %d: served %v/θ=%d != cold %v/θ=%d", i, res.Seeds, res.Theta, cold.Seeds, cold.Theta)
		}
		if wantWarm := i == 1 || i == 2 || i == 3; res.Warm != wantWarm {
			t.Fatalf("query %d: warm=%v, want %v", i, res.Warm, wantWarm)
		}
	}
	st := s.Stats()
	if st.ColdMisses != 2 || st.WarmHits != 3 {
		t.Fatalf("stats misses/hits = %d/%d, want 2/3", st.ColdMisses, st.WarmHits)
	}
	if st.ReusedSets == 0 || st.ReusedBytes == 0 {
		t.Fatalf("warm hits reused nothing: %+v", st)
	}
}

// TestWarmRepeatGeneratesNothing pins the amortization contract of the
// serving layer: an exact repeat consumes only the warm pool.
func TestWarmRepeatGeneratesNothing(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	s := testServer(t, Options{Workers: 2, MaxTheta: 6000}, map[string]*graph.Graph{"g": g})
	req := QueryRequest{Graph: "g", K: 10, Epsilon: 0.5, Seed: 1}

	first, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Warm || first.GeneratedSets == 0 || first.ReusedSets != 0 {
		t.Fatalf("cold query: warm=%v generated=%d reused=%d", first.Warm, first.GeneratedSets, first.ReusedSets)
	}
	second, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Warm || second.GeneratedSets != 0 || second.ReusedSets != second.Theta {
		t.Fatalf("warm repeat: warm=%v generated=%d reused=%d θ=%d",
			second.Warm, second.GeneratedSets, second.ReusedSets, second.Theta)
	}
	if !reflect.DeepEqual(first.Seeds, second.Seeds) {
		t.Fatalf("warm seeds diverged: %v vs %v", first.Seeds, second.Seeds)
	}
	// Nor does the repeat re-run a selection: the cold query met an empty
	// memo (only its final selection can repeat the last round's), the
	// repeat finds all rounds + 1 of its selections remembered.
	selections := int64(second.Rounds) + 1
	if first.MemoHits > 1 || second.MemoHits != selections {
		t.Fatalf("memo hits: cold %d, repeat %d of %d selections", first.MemoHits, second.MemoHits, selections)
	}
	if st := s.Stats(); st.SelectionMemoHits != first.MemoHits+second.MemoHits || st.SelectionMemoMisses != selections-first.MemoHits {
		t.Fatalf("stats count %d memo hits, %d misses; results say %d and %d",
			st.SelectionMemoHits, st.SelectionMemoMisses, first.MemoHits+second.MemoHits, selections-first.MemoHits)
	}
}

// TestConcurrentQueries exercises the server under -race: identical
// queries (which must coalesce or serialize) interleaved with distinct
// queries across two graphs and several pools.
func TestConcurrentQueries(t *testing.T) {
	gIC := testGraph(t, 8, graph.IC)
	gLT := testGraph(t, 8, graph.LT)
	s := testServer(t, Options{Workers: 2, MaxTheta: 4000},
		map[string]*graph.Graph{"ic": gIC, "lt": gLT})

	reqs := []QueryRequest{
		{Graph: "ic", K: 10, Epsilon: 0.5, Seed: 1},
		{Graph: "ic", K: 10, Epsilon: 0.5, Seed: 1}, // identical: coalesce or warm-hit
		{Graph: "ic", K: 5, Epsilon: 0.6, Seed: 1},  // same pool, distinct query
		{Graph: "ic", K: 10, Epsilon: 0.5, Seed: 2}, // distinct pool
		{Graph: "lt", K: 8, Epsilon: 0.5, Seed: 1},  // distinct graph
		{Graph: "lt", K: 8, Epsilon: 0.5, Seed: 1},  // identical again
	}
	const rounds = 4
	var wg sync.WaitGroup
	results := make([][]*QueryResult, rounds)
	for round := 0; round < rounds; round++ {
		results[round] = make([]*QueryResult, len(reqs))
		for i, req := range reqs {
			wg.Add(1)
			go func(round, i int, req QueryRequest) {
				defer wg.Done()
				res, err := s.Query(req)
				if err != nil {
					t.Error(err)
					return
				}
				results[round][i] = res
			}(round, i, req)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Every occurrence of the same query must have produced the same
	// seeds, however it was served (cold, warm, or coalesced).
	for i := range reqs {
		want := results[0][i].Seeds
		for round := 1; round < rounds; round++ {
			if !reflect.DeepEqual(results[round][i].Seeds, want) {
				t.Fatalf("request %d round %d: seeds %v != %v", i, round, results[round][i].Seeds, want)
			}
		}
	}
	// And they must match a cold run.
	for i, req := range reqs {
		g := gIC
		if req.Graph == "lt" {
			g = gLT
		}
		cold := coldRun(t, g, Options{Workers: 2, MaxTheta: 4000}, req)
		if !reflect.DeepEqual(results[0][i].Seeds, cold.Seeds) {
			t.Fatalf("request %d: served %v != cold %v", i, results[0][i].Seeds, cold.Seeds)
		}
	}
}

// TestEvictionUnderBytePressure pins the LRU byte budget: with a budget
// below the footprint of all pools together, old pools are dropped,
// re-querying them is a cold miss again, and answers stay identical.
func TestEvictionUnderBytePressure(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	// Query three seeds round-robin under a pressureBudget.
	s := testServer(t, Options{Workers: 1, MaxTheta: 4000, PoolBudgetBytes: pressureBudget(t, g)},
		map[string]*graph.Graph{"g": g})
	var first []*QueryResult
	for _, seed := range []uint64{1, 2, 3} {
		r, err := s.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, r)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under byte pressure: %+v", st)
	}
	if st.PoolBytes > st.BudgetBytes {
		t.Fatalf("resident %d bytes exceeds budget %d", st.PoolBytes, st.BudgetBytes)
	}
	// Seed 1 was evicted (least recently used): the repeat is cold but
	// byte-identical.
	r, err := s.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Warm {
		t.Fatal("evicted pool reported a warm hit")
	}
	if !reflect.DeepEqual(r.Seeds, first[0].Seeds) {
		t.Fatalf("post-eviction seeds %v != original %v", r.Seeds, first[0].Seeds)
	}
}

// TestOverBudgetPoolNotSelfEvicted is the regression test for the
// eviction defect: a pool whose footprint alone exceeds the byte budget
// must not be evicted by the very query that just populated it (the
// budget transiently overshoots instead, as for pinned pools) — the bug
// made every repeat query on such a pool regenerate from scratch
// forever. LRU pressure from *other* pools must still evict it.
func TestOverBudgetPoolNotSelfEvicted(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	s := testServer(t, Options{Workers: 2, MaxTheta: 4000, PoolBudgetBytes: 1},
		map[string]*graph.Graph{"g": g})
	req := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}

	first, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Warm || first.PoolBytes <= 1 {
		t.Fatalf("cold probe = %+v", first)
	}
	second, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Warm || second.GeneratedSets != 0 {
		t.Fatalf("repeat on the over-budget pool went cold (the self-eviction bug): %+v", second)
	}
	if !reflect.DeepEqual(second.Seeds, first.Seeds) {
		t.Fatalf("warm seeds diverged: %v vs %v", second.Seeds, first.Seeds)
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("the resident pool was evicted %d times with no competitor: %+v", st.Evictions, st)
	}

	// A query on a different pool makes the first pool the LRU victim:
	// the budget still works, it just never evicts the in-use entry.
	if _, err := s.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 || st.Pools != 1 {
		t.Fatalf("LRU pressure did not evict the idle pool: %+v", st)
	}
	third, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Warm || third.GeneratedSets == 0 {
		t.Fatalf("evicted pool did not regenerate: %+v", third)
	}
	if !reflect.DeepEqual(third.Seeds, first.Seeds) {
		t.Fatalf("post-eviction seeds %v != original %v", third.Seeds, first.Seeds)
	}
}

func TestQueryValidation(t *testing.T) {
	g := testGraph(t, 7, graph.IC)
	s := testServer(t, Options{Workers: 1, MaxTheta: 2000}, map[string]*graph.Graph{"g": g})
	cases := []struct {
		req  QueryRequest
		want error
	}{
		{QueryRequest{Graph: "missing", K: 5, Epsilon: 0.5, Seed: 1}, ErrUnknownGraph},
		{QueryRequest{Graph: "g", K: 0, Epsilon: 0.5, Seed: 1}, ErrInvalidQuery},
		{QueryRequest{Graph: "g", K: 5, Epsilon: 1.5, Seed: 1}, ErrInvalidQuery},
		{QueryRequest{Graph: "g", K: 5, Epsilon: math.NaN(), Seed: 1}, ErrInvalidQuery},
		{QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Model: "LT"}, ErrInvalidQuery}, // mismatch (graph is IC)
	}
	for i, c := range cases {
		if _, err := s.Query(c.req); !errors.Is(err, c.want) {
			t.Fatalf("case %d: query %+v returned %v, want %v", i, c.req, err, c.want)
		}
	}
	if _, err := s.Query(QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Seed: 1, Model: "IC"}); err != nil {
		t.Fatalf("matching explicit model rejected: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	g := testGraph(t, 7, graph.IC)
	s := NewServer(Options{})
	if _, err := s.AddGraph("g", g, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddGraph("g", g, 42); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := s.AddGraph("", g, 42); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := s.AddGraph("nil", nil, 42); err == nil {
		t.Fatal("nil graph accepted")
	}

	// Snapshot round-trip into the registry.
	path := filepath.Join(t.TempDir(), "g.imsnap")
	if err := ingest.WriteSnapshotFile(path, g, 42); err != nil {
		t.Fatal(err)
	}
	info, err := s.AddSnapshot("snap", path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != g.N || info.Edges != g.M || info.WeightSeed != 42 {
		t.Fatalf("snapshot info %+v does not match graph (n=%d m=%d)", info, g.N, g.M)
	}
	if _, err := s.AddSnapshot("bad", filepath.Join(t.TempDir(), "missing.imsnap")); err == nil {
		t.Fatal("missing snapshot accepted")
	}

	graphs := s.Graphs()
	if len(graphs) != 2 || graphs[0].Name != "g" || graphs[1].Name != "snap" {
		t.Fatalf("unexpected graph list %+v", graphs)
	}

	// A snapshot-registered graph serves the same answer as the
	// in-memory original.
	req := QueryRequest{Graph: "g", K: 5, Epsilon: 0.5, Seed: 1}
	a, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Graph = "snap"
	b, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Seeds, b.Seeds) {
		t.Fatalf("snapshot answer %v != in-memory answer %v", b.Seeds, a.Seeds)
	}
}
