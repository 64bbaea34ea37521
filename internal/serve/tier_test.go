package serve

// Two-tier (RAM + disk) pool LRU tests. The recurring correctness bar:
// a pool answered from the disk tier — demoted and promoted back, or
// rehydrated after a restart — must answer byte-identically to the
// resident pool it was frozen from AND to a cold imm.Run on the same
// graph epoch. Staleness (delta-advanced epoch, different graph
// content) must fall back to cold regeneration, never a wrong answer.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
)

func TestPoolFileNameRoundTrip(t *testing.T) {
	keys := []poolKey{
		{graph: "g", seed: 1},
		{graph: "web-Google", seed: 42},         // dash in the name
		{graph: "a-b-c-9", seed: 7},             // dashes and a trailing digit
		{graph: "social/us-east", seed: 123456}, // path separator
		{graph: "100", seed: 0},                 // all-digit name
		{graph: "snap 2024 (v2)", seed: 9},      // spaces and parens
		{graph: strings.Repeat("x", 100), seed: 1},
	}
	for _, key := range keys {
		name := poolFileName(key)
		if strings.ContainsRune(name, os.PathSeparator) {
			t.Fatalf("file name %q for %+v contains a path separator", name, key)
		}
		got, ok := parsePoolFileName(name)
		if !ok || got != key {
			t.Fatalf("round trip %+v -> %q -> %+v (ok=%v)", key, name, got, ok)
		}
	}
	for _, bad := range []string{
		"",                 // empty
		"g-1",              // wrong extension
		"g-1.imsnap",       // snapshot, not pool
		"g.impool",         // no seed
		"-1.impool",        // empty graph
		"g-x.impool",       // non-numeric seed
		"g-1.impool.tmp42", // leftover temp file
	} {
		if key, ok := parsePoolFileName(bad); ok {
			t.Fatalf("parsePoolFileName(%q) accepted as %+v", bad, key)
		}
	}
}

// tierProbe measures the resident footprint of one pool built by the
// given number of workers, so tier tests can size budgets against it.
func tierProbe(t *testing.T, g *graph.Graph, workers int) int64 {
	t.Helper()
	probe := testServer(t, Options{Workers: workers, MaxTheta: 4000}, map[string]*graph.Graph{"g": g})
	res, err := probe.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolBytes == 0 {
		t.Fatal("probe pool has no resident bytes")
	}
	return res.PoolBytes
}

// pressureBudget is the byte budget for tests that query three tenants
// on g with one worker and need the third to push one out: one and a
// half pools. A pool's PoolBytes depends on what it holds, not on the
// schedule that built it, and every tenant's pool lands within a percent
// of the probe.
func pressureBudget(t *testing.T, g *graph.Graph) int64 {
	onePool := tierProbe(t, g, 1)
	return onePool + onePool/2
}

// TestDemotedPoolAnswersIdentically pins the tentpole contract: under
// byte pressure with a pool directory, cold pools demote to .impool
// snapshots instead of being dropped, and the next query on a demoted
// pool promotes it back via mmap — warm, zero generated sets, and
// byte-identical to both the original answer and a cold run.
func TestDemotedPoolAnswersIdentically(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	dir := t.TempDir()
	opt := Options{Workers: 1, MaxTheta: 4000, PoolBudgetBytes: pressureBudget(t, g), PoolDir: dir}
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})

	var first []*QueryResult
	for _, seed := range []uint64{1, 2, 3} {
		r, err := s.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, r)
	}
	st := s.Stats()
	if st.Demotions == 0 {
		t.Fatalf("no demotions under byte pressure with a pool dir: %+v", st)
	}
	if st.Evictions != 0 {
		t.Fatalf("tiered mode evicted instead of demoting: %+v", st)
	}
	if st.DiskPools == 0 || st.DiskBytes == 0 {
		t.Fatalf("demotion left no disk-tier accounting: %+v", st)
	}
	if st.PoolBytes > st.BudgetBytes {
		t.Fatalf("resident %d bytes exceeds budget %d after demotion", st.PoolBytes, st.BudgetBytes)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("pool dir after demotion: entries=%d err=%v", len(ents), err)
	}

	// Seed 1 was demoted (least recently used). The repeat must be a
	// warm promotion: no resampling at all.
	r, err := s.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Warm || r.GeneratedSets != 0 {
		t.Fatalf("promoted pool did not answer warm: warm=%v generated=%d", r.Warm, r.GeneratedSets)
	}
	if !reflect.DeepEqual(r.Seeds, first[0].Seeds) || r.Theta != first[0].Theta {
		t.Fatalf("promoted answer diverged: %v/θ=%d vs %v/θ=%d", r.Seeds, r.Theta, first[0].Seeds, first[0].Theta)
	}
	cold := coldRun(t, g, opt, QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1})
	if !reflect.DeepEqual(r.Seeds, cold.Seeds) {
		t.Fatalf("promoted seeds %v != cold %v", r.Seeds, cold.Seeds)
	}
	if st = s.Stats(); st.Promotions == 0 {
		t.Fatalf("warm answer without a recorded promotion: %+v", st)
	}
}

// TestTwoTierSecondTenantPressure extends the PR 5 self-eviction
// regression family to tiered mode: a pool whose footprint alone
// exceeds the budget is never demoted by its own query, LRU pressure
// from a second tenant demotes (not evicts) it, and the comeback query
// is a promotion rather than a cold rebuild.
func TestTwoTierSecondTenantPressure(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	s := testServer(t, Options{Workers: 2, MaxTheta: 4000, PoolBudgetBytes: 1, PoolDir: t.TempDir()},
		map[string]*graph.Graph{"g": g})
	req := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}

	first, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Warm || second.GeneratedSets != 0 {
		t.Fatalf("repeat on the over-budget pool went cold (self-demotion): %+v", second)
	}
	if st := s.Stats(); st.Demotions != 0 || st.Evictions != 0 {
		t.Fatalf("resident pool demoted with no competitor: %+v", st)
	}

	// The second tenant makes seed 1 the LRU victim: demoted, not evicted.
	if _, err := s.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Demotions != 1 || st.Evictions != 0 {
		t.Fatalf("second tenant pressure: want 1 demotion 0 evictions, got %+v", st)
	}
	if st.Pools != 2 {
		t.Fatalf("demotion dropped the entry: %+v", st)
	}

	third, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Warm || third.GeneratedSets != 0 {
		t.Fatalf("comeback query did not promote: %+v", third)
	}
	if !reflect.DeepEqual(third.Seeds, first.Seeds) {
		t.Fatalf("promoted seeds %v != original %v", third.Seeds, first.Seeds)
	}
}

// TestSaveAndRehydrateAcrossServers pins the instant-warm restart path:
// save pools, shut the server down, boot a fresh one on the same pool
// directory, and the first query answers warm with zero generated sets
// and byte-identical seeds.
func TestSaveAndRehydrateAcrossServers(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	dir := t.TempDir()
	opt := Options{Workers: 2, MaxTheta: 4000, PoolDir: dir}
	req := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}

	s1 := testServer(t, opt, map[string]*graph.Graph{"g": g})
	first, err := s1.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := s1.SavePools("")
	if err != nil || saved != 1 {
		t.Fatalf("SavePools = %d, %v", saved, err)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := testServer(t, opt, map[string]*graph.Graph{"g": g})
	loaded, err := s2.LoadPools()
	if err != nil || loaded != 1 {
		t.Fatalf("LoadPools = %d, %v", loaded, err)
	}
	st := s2.Stats()
	if st.Rehydrated != 1 || st.DiskPools != 1 || st.PoolBytes != 0 {
		t.Fatalf("rehydrated entry accounting: %+v", st)
	}
	r, err := s2.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Warm || r.GeneratedSets != 0 {
		t.Fatalf("first post-restart query not instant-warm: warm=%v generated=%d", r.Warm, r.GeneratedSets)
	}
	if !reflect.DeepEqual(r.Seeds, first.Seeds) || r.Theta != first.Theta {
		t.Fatalf("restart answer diverged: %v/θ=%d vs %v/θ=%d", r.Seeds, r.Theta, first.Seeds, first.Theta)
	}
	cold := coldRun(t, g, opt, req)
	if !reflect.DeepEqual(r.Seeds, cold.Seeds) {
		t.Fatalf("restart seeds %v != cold %v", r.Seeds, cold.Seeds)
	}
}

// TestDemotedPoolSurvivesShutdownReload is the demote-then-restart
// variant: the snapshot written by budget-pressure demotion (not an
// explicit save) must rehydrate and answer warm in the next process.
func TestDemotedPoolSurvivesShutdownReload(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	dir := t.TempDir()
	opt := Options{Workers: 1, MaxTheta: 4000, PoolBudgetBytes: pressureBudget(t, g), PoolDir: dir}

	s1 := testServer(t, opt, map[string]*graph.Graph{"g": g})
	var first []*QueryResult
	for _, seed := range []uint64{1, 2, 3} {
		r, err := s1.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, r)
	}
	if st := s1.Stats(); st.Demotions == 0 {
		t.Fatalf("setup did not demote: %+v", st)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := testServer(t, opt, map[string]*graph.Graph{"g": g})
	loaded, err := s2.LoadPools()
	if err != nil || loaded == 0 {
		t.Fatalf("LoadPools after demotion = %d, %v", loaded, err)
	}
	r, err := s2.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Warm || r.GeneratedSets != 0 {
		t.Fatalf("demoted snapshot did not survive restart warm: %+v", r)
	}
	if !reflect.DeepEqual(r.Seeds, first[0].Seeds) {
		t.Fatalf("post-reload seeds %v != original %v", r.Seeds, first[0].Seeds)
	}
}

// TestStaleSnapshotRejected pins the two staleness paths: a delta
// advancing the graph epoch drops this graph's disk snapshots (repair
// cannot fix a file), and a snapshot binding different graph content is
// rejected at promotion — both fall back to a cold build with correct
// post-change answers, never a stale one.
func TestStaleSnapshotRejected(t *testing.T) {
	t.Run("delta-advanced epoch", func(t *testing.T) {
		g := testGraph(t, 8, graph.IC)
		dir := t.TempDir()
		opt := Options{Workers: 2, MaxTheta: 4000, PoolDir: dir}
		s := testServer(t, opt, map[string]*graph.Graph{"g": g})
		req := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}
		if _, err := s.Query(req); err != nil {
			t.Fatal(err)
		}
		if saved, err := s.SavePools(""); err != nil || saved != 1 {
			t.Fatalf("SavePools = %d, %v", saved, err)
		}

		d := graph.Delta{Add: freshEdges(g, 8), Seed: 5}
		res, err := s.ApplyDelta("g", d, graph.DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != 1 {
			t.Fatalf("delta epoch = %d, want 1", res.Epoch)
		}
		// The repair pass must have discarded the epoch-0 snapshot: the
		// disk tier never answers for dead epochs, even across a crash.
		if st := s.Stats(); st.DiskPools != 0 {
			t.Fatalf("stale snapshot still registered after delta: %+v", st)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("stale snapshot file survived the delta: %v", ents)
		}

		// The repaired pool still answers identically to a cold run on
		// the post-delta graph.
		ng, _, err := graph.ApplyDelta(g, d, graph.DeltaOptions{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		cold := coldRun(t, ng, opt, req)
		if !reflect.DeepEqual(r.Seeds, cold.Seeds) {
			t.Fatalf("post-delta seeds %v != cold %v", r.Seeds, cold.Seeds)
		}
	})

	t.Run("different graph content", func(t *testing.T) {
		gA := testGraph(t, 8, graph.IC)
		// Same shape, different RMAT seed: different edges and weights,
		// so the snapshot's content checksum cannot match.
		gB, err := gen.RMAT(gen.DefaultRMAT(8, 6), graph.IC, 77)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		opt := Options{Workers: 2, MaxTheta: 4000, PoolDir: dir}
		req := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}

		s1 := testServer(t, opt, map[string]*graph.Graph{"g": gA})
		if _, err := s1.Query(req); err != nil {
			t.Fatal(err)
		}
		if saved, err := s1.SavePools(""); err != nil || saved != 1 {
			t.Fatalf("SavePools = %d, %v", saved, err)
		}
		if err := s1.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}

		// Same graph name, different content: the snapshot's checksum
		// binding no longer matches, so promotion must reject it and the
		// query must build cold against the graph actually registered.
		s2 := testServer(t, opt, map[string]*graph.Graph{"g": gB})
		if loaded, err := s2.LoadPools(); err != nil || loaded != 1 {
			t.Fatalf("LoadPools = %d, %v", loaded, err)
		}
		r, err := s2.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		if r.Warm {
			t.Fatal("stale snapshot served a warm answer for different graph content")
		}
		cold := coldRun(t, gB, opt, req)
		if !reflect.DeepEqual(r.Seeds, cold.Seeds) {
			t.Fatalf("seeds %v != cold %v on the actual graph", r.Seeds, cold.Seeds)
		}
		st := s2.Stats()
		if st.PromoteFailures == 0 {
			t.Fatalf("stale rejection not counted: %+v", st)
		}
		if st.DiskPools != 0 {
			t.Fatalf("rejected snapshot still registered: %+v", st)
		}
	})
}

// TestConcurrentDemotePromoteRace runs concurrent queries over more
// pools than the budget holds, so demotion, promotion, and cold builds
// race on the same entries (exercised under -race). Every answer for a
// seed must be identical, however its pool was served.
func TestConcurrentDemotePromoteRace(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	onePool := tierProbe(t, g, 2)
	s := testServer(t,
		Options{Workers: 2, MaxTheta: 4000, PoolBudgetBytes: onePool + onePool/2, PoolDir: t.TempDir()},
		map[string]*graph.Graph{"g": g})

	seeds := []uint64{1, 2, 3}
	const rounds = 4
	results := make([][]*QueryResult, rounds)
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		results[round] = make([]*QueryResult, len(seeds))
		for i, seed := range seeds {
			wg.Add(1)
			go func(round, i int, seed uint64) {
				defer wg.Done()
				r, err := s.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: seed})
				if err != nil {
					t.Error(err)
					return
				}
				results[round][i] = r
			}(round, i, seed)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, seed := range seeds {
		want := results[0][i].Seeds
		for round := 1; round < rounds; round++ {
			if !reflect.DeepEqual(results[round][i].Seeds, want) {
				t.Fatalf("seed %d round %d: %v != %v", seed, round, results[round][i].Seeds, want)
			}
		}
		cold := coldRun(t, g, Options{Workers: 2, MaxTheta: 4000},
			QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: seed})
		if !reflect.DeepEqual(want, cold.Seeds) {
			t.Fatalf("seed %d: served %v != cold %v", seed, want, cold.Seeds)
		}
	}
	if st := s.Stats(); st.PoolBytes > st.BudgetBytes+onePool {
		// Transient overshoot of one in-flight pool is legal (pinned
		// entries are never victims); unbounded growth is not.
		t.Fatalf("budget lost under racing demotion: %+v", st)
	}
	checkMappingsBounded(t, s)
}

// TestRemoveGraphDropsSnapshots pins disk-tier cleanup: unregistering a
// graph removes its .impool files along with the pool entries.
func TestRemoveGraphDropsSnapshots(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	dir := t.TempDir()
	s := testServer(t, Options{Workers: 2, MaxTheta: 4000, PoolDir: dir},
		map[string]*graph.Graph{"g": g})
	if _, err := s.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if saved, err := s.SavePools(""); err != nil || saved != 1 {
		t.Fatalf("SavePools = %d, %v", saved, err)
	}
	if _, _, err := s.RemoveGraph("g"); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("snapshots survived graph removal: %v", ents)
	}
}

// TestPoolsSaveEndpoint covers POST /v1/pools/save: explicit directory,
// the no-directory error, and that a saved snapshot is a real .impool
// file named for its pool key.
func TestPoolsSaveEndpoint(t *testing.T) {
	_, ts := testHTTP(t) // no PoolDir configured

	getJSON(t, ts.URL+"/v1/query?graph=g&k=8&eps=0.5&seed=1", http.StatusOK, nil)

	// No configured dir and none given: invalid_query envelope.
	postJSON(t, ts.URL+"/v1/pools/save", `{}`, http.StatusBadRequest, nil)

	dir := t.TempDir()
	dirJSON, err := json.Marshal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var save PoolsSaveResponse
	postJSON(t, ts.URL+"/v1/pools/save", `{"dir":`+string(dirJSON)+`}`, http.StatusOK, &save)
	if save.Saved != 1 || save.Dir != dir {
		t.Fatalf("pools/save = %+v", save)
	}
	path := filepath.Join(dir, poolFileName(poolKey{graph: "g", seed: 1}))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("saved snapshot missing: %v", err)
	}

	// Unknown body fields are rejected like every other endpoint.
	postJSON(t, ts.URL+"/v1/pools/save", `{"dirr":"x"}`, http.StatusBadRequest, nil)
}

// rotate asks every tenant's pool once, in seed order, checking each
// answer against want (the cold imm.Run seeds, by tenant) and, when warm
// is set, that it was served warm without generating a set.
func rotate(t *testing.T, s *Server, tenants int, warm bool, want [][]int32) {
	t.Helper()
	for i := 0; i < tenants; i++ {
		r, err := s.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if warm && (!r.Warm || r.GeneratedSets != 0) {
			t.Fatalf("tenant %d: warm=%v generated=%d, want a warm answer generating nothing", i+1, r.Warm, r.GeneratedSets)
		}
		if !reflect.DeepEqual(r.Seeds, want[i]) {
			t.Fatalf("tenant %d: served %v != cold %v", i+1, r.Seeds, want[i])
		}
	}
}

// rotationBudget returns a byte budget holding 2.5 of the tenants'
// pools as they weigh once promoted from the disk tier (a promoted
// pool is accounted smaller than a freshly built one, whose grown arrays
// carry spare capacity): build them, save them, and promote them all on
// a second server with room to spare.
func rotationBudget(t *testing.T, g *graph.Graph, opt Options, tenants int, want [][]int32) int64 {
	t.Helper()
	opt.PoolBudgetBytes = 0
	opt.PoolDir = t.TempDir()
	s1 := testServer(t, opt, map[string]*graph.Graph{"g": g})
	rotate(t, s1, tenants, false, want)
	if saved, err := s1.SavePools(""); err != nil || saved != tenants {
		t.Fatalf("SavePools = %d, %v", saved, err)
	}
	s2 := testServer(t, opt, map[string]*graph.Graph{"g": g})
	if loaded, err := s2.LoadPools(); err != nil || loaded != tenants {
		t.Fatalf("LoadPools = %d, %v", loaded, err)
	}
	rotate(t, s2, tenants, true, want)
	st := s2.Stats()
	if st.Promotions != int64(tenants) {
		t.Fatalf("sizing promoted %d of %d pools", st.Promotions, tenants)
	}
	if _, _, err := s2.RemoveGraph("g"); err != nil { // releases the mappings
		t.Fatal(err)
	}
	return st.PoolBytes * 5 / (2 * int64(tenants))
}

// poolFile returns the snapshot path of tenant seed's pool on graph "g".
func poolFile(dir string, seed uint64) string {
	return filepath.Join(dir, poolFileName(poolKey{graph: "g", seed: seed}))
}

// TestCleanDemotionWritesNothing pins the clean half of the tier rule:
// once every pool of a rotating working set has been through the disk
// tier, a demotion finds its snapshot already holding the pool and
// writes nothing — the files keep their inode and mtime and
// demotion_writes stays flat while demotions and promotions advance by
// one per query — and every answer is still warm, generates nothing and
// equals a cold run's.
func TestCleanDemotionWritesNothing(t *testing.T) {
	const tenants = 4
	g := testGraph(t, 8, graph.IC)
	dir := t.TempDir()
	opt := Options{Workers: 2, MaxTheta: 4000, PoolDir: dir}
	want := make([][]int32, tenants)
	for i := range want {
		want[i] = coldRun(t, g, opt, QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: uint64(i + 1)}).Seeds
	}
	opt.PoolBudgetBytes = rotationBudget(t, g, opt, tenants, want)
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})

	rotate(t, s, tenants, false, want) // builds the pools; the overflow is demoted dirty
	rotate(t, s, tenants, true, want)  // the first rotation: the rest go through the disk tier
	before := s.Stats()
	if before.Promotions != tenants {
		t.Fatalf("first rotation promoted %d of %d pools: the budget holds the working set", before.Promotions, tenants)
	}
	if before.DemotionWrites == 0 || before.DemotionWrites > before.Demotions {
		t.Fatalf("fresh pools were demoted without a write: %+v", before)
	}
	files := make([]os.FileInfo, tenants)
	for i := range files {
		fi, err := os.Stat(poolFile(dir, uint64(i+1)))
		if err != nil {
			t.Fatalf("tenant %d has no snapshot after the first rotation: %v", i+1, err)
		}
		files[i] = fi
	}

	rotate(t, s, tenants, true, want)
	rotate(t, s, tenants, true, want)

	after := s.Stats()
	if after.DemotionWrites != before.DemotionWrites {
		t.Fatalf("clean demotions wrote: demotion_writes %d -> %d", before.DemotionWrites, after.DemotionWrites)
	}
	if got := after.Promotions - before.Promotions; got != 2*tenants {
		t.Fatalf("%d promotions over two rotations, want %d: the rotation left the disk tier", got, 2*tenants)
	}
	if got := after.Demotions - before.Demotions; got != 2*tenants {
		t.Fatalf("%d demotions over two rotations, want %d", got, 2*tenants)
	}
	if after.PromoteFailures != 0 || after.Evictions != 0 || after.ColdMisses != tenants {
		t.Fatalf("rotation fell off the warm path: %+v", after)
	}
	for i, was := range files {
		fi, err := os.Stat(poolFile(dir, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(was, fi) || !fi.ModTime().Equal(was.ModTime()) || fi.Size() != was.Size() {
			t.Fatalf("tenant %d's snapshot was rewritten by a clean demotion", i+1)
		}
	}
}

// TestDirtyDemotionRewrites pins the other half: whatever changes what
// a fresh freeze would write — a θ-extension, a delta, a vanished file,
// another directory — takes the write path.
func TestDirtyDemotionRewrites(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	dir := t.TempDir()
	// A one-byte budget: each query demotes the other tenant's pool.
	opt := Options{Workers: 2, MaxTheta: 6000, PoolBudgetBytes: 1, PoolDir: dir}
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})
	base1 := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}
	base2 := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 2}
	tight1 := QueryRequest{Graph: "g", K: 20, Epsilon: 0.4, Seed: 1}
	ask := func(req QueryRequest) *QueryResult {
		t.Helper()
		r, err := s.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	writes := func() int64 { return s.Stats().DemotionWrites }
	snapshot := func(seed uint64) (os.FileInfo, ingest.PoolSnapshotInfo) {
		t.Helper()
		fi, err := os.Stat(poolFile(dir, seed))
		if err != nil {
			t.Fatal(err)
		}
		info, err := ingest.ReadPoolSnapshotInfoFile(poolFile(dir, seed))
		if err != nil {
			t.Fatal(err)
		}
		return fi, info
	}

	ask(base1)
	ask(base2) // demotes tenant 1: fresh, written
	ask(base1) // promotes 1, demotes 2: fresh, written
	if got := writes(); got != 2 {
		t.Fatalf("two fresh demotions wrote %d snapshots", got)
	}
	smallFile, small := snapshot(1)

	// θ-extension while promoted: the snapshot no longer holds the pool.
	if r := ask(tight1); !r.Warm || r.GeneratedSets == 0 {
		t.Fatalf("tighter query did not extend the promoted pool: %+v", r)
	}
	ask(base2) // promotes 2, demotes the grown tenant 1
	if got := writes(); got != 3 {
		t.Fatalf("demotion_writes = %d after demoting an extended pool, want 3", got)
	}
	bigFile, big := snapshot(1)
	if big.Count <= small.Count || os.SameFile(smallFile, bigFile) {
		t.Fatalf("extended pool not rewritten: %d sets on disk, was %d", big.Count, small.Count)
	}
	r := ask(tight1) // promotes the rewritten snapshot; demotes 2 clean
	if !r.Warm || r.GeneratedSets != 0 {
		t.Fatalf("promotion of the rewritten snapshot regenerated: %+v", r)
	}
	if cold := coldRun(t, g, opt, tight1); !reflect.DeepEqual(r.Seeds, cold.Seeds) || r.Theta != cold.Theta {
		t.Fatalf("promoted tight answer %v/θ=%d != cold %v/θ=%d", r.Seeds, r.Theta, cold.Seeds, cold.Theta)
	}
	if got := writes(); got != 3 {
		t.Fatalf("clean demotion of tenant 2 wrote: demotion_writes = %d", got)
	}

	// The file vanishes under a resident promoted pool: the next
	// demotion puts it back.
	if err := os.Remove(poolFile(dir, 1)); err != nil {
		t.Fatal(err)
	}
	ask(base2)
	if got := writes(); got != 4 {
		t.Fatalf("demotion_writes = %d after the snapshot was deleted, want 4", got)
	}
	if _, info := snapshot(1); info.Count != big.Count {
		t.Fatalf("restored snapshot holds %d sets, want %d", info.Count, big.Count)
	}

	// SavePools into the server's own directory skips a pool its
	// snapshot already holds; any other directory is always written.
	own, _ := snapshot(2)
	if saved, err := s.SavePools(""); err != nil || saved != 1 {
		t.Fatalf("SavePools(own) = %d, %v", saved, err)
	}
	if again, _ := snapshot(2); !os.SameFile(own, again) || !again.ModTime().Equal(own.ModTime()) {
		t.Fatal("SavePools rewrote a snapshot that already held the pool")
	}
	other := t.TempDir()
	var prev os.FileInfo
	for i := 0; i < 2; i++ {
		if saved, err := s.SavePools(other); err != nil || saved != 1 {
			t.Fatalf("SavePools(other) = %d, %v", saved, err)
		}
		fi, err := os.Stat(poolFile(other, 2))
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && os.SameFile(prev, fi) {
			t.Fatal("SavePools to another directory did not write")
		}
		prev = fi
	}

	// A delta drops the pointer: the repaired pool is dirty again and its
	// next demotion writes the new epoch.
	d := graph.Delta{Add: freshEdges(g, 8), Seed: 5}
	if _, err := s.ApplyDelta("g", d, graph.DeltaOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskPools != 0 {
		t.Fatalf("delta left %d disk pointers", st.DiskPools)
	}
	before := writes()
	ask(base1) // tenant 1 rebuilds cold on the new epoch, demotes the repaired tenant 2
	if got := writes(); got != before+1 {
		t.Fatalf("demotion after a delta wrote %d snapshots, want 1", got-before)
	}
	if _, info := snapshot(2); info.Epoch != 1 {
		t.Fatalf("post-delta snapshot frozen at epoch %d, want 1", info.Epoch)
	}
	ng, _, err := graph.ApplyDelta(g, d, graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r = ask(base2) // promoted at epoch 1
	if cold := coldRun(t, ng, opt, base2); !r.Warm || r.GeneratedSets != 0 || !reflect.DeepEqual(r.Seeds, cold.Seeds) {
		t.Fatalf("post-delta promotion: warm=%v generated=%d seeds %v, cold %v", r.Warm, r.GeneratedSets, r.Seeds, cold.Seeds)
	}
}

// impoolMappings counts this process's live mappings of .impool files
// under dir, or reports false where /proc/self/maps does not exist.
func impoolMappings(dir string) (int, bool) {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return 0, false
	}
	live := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) && strings.Contains(line, ingest.PoolSnapshotExt) {
			live++
		}
	}
	return live, true
}

// checkMappingsBounded fails the test when more mappings of s's pool
// files are live than s holds resident promoted pools: every mapping
// has an owner that releases it. Call it with no query in flight.
func checkMappingsBounded(t *testing.T, s *Server) {
	t.Helper()
	live, ok := impoolMappings(s.opt.PoolDir)
	if !ok {
		return
	}
	// The server is quiescent (every query has returned), so the engine
	// fields can be read without their entry's mutex.
	promoted := 0
	s.mu.Lock()
	for _, pe := range s.pools {
		if pe.eng != nil && pe.unmap != nil {
			promoted++
		}
	}
	s.mu.Unlock()
	if live > promoted {
		t.Fatalf("%d .impool mappings live for %d resident promoted pools", live, promoted)
	}
}

// TestOldFormatPoolFileRebuildsCold walks the refusal path of a pool
// directory written before the current .impool version: the file is
// refused as a structural error at the header, LoadPools skips it, the
// query answers cold and byte-identically without a failed promotion,
// and the pool's next demotion replaces the file with a current one.
func TestOldFormatPoolFileRebuildsCold(t *testing.T) {
	for _, old := range []struct {
		version  uint32
		sections int
	}{{1, 129}, {2, 99}, {3, 101}, {4, 53}, {5, 8}, {6, 9}} {
		t.Run(fmt.Sprintf("v%d", old.version), func(t *testing.T) {
			g := testGraph(t, 8, graph.IC)
			dir := t.TempDir()
			// An old file as far as any reader gets: its magic, its version,
			// and the length of its header and section table.
			image := make([]byte, 48+old.sections*32+64)
			copy(image, "IMPOOL\x1a\x00")
			binary.LittleEndian.PutUint32(image[8:], old.version)
			path := poolFile(dir, 1)
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			unsupported := fmt.Sprintf("unsupported version %d", old.version)
			if _, err := ingest.ReadPoolSnapshotInfoFile(path); !errors.Is(err, ingest.ErrPoolSnapshot) || !strings.Contains(err.Error(), unsupported) {
				t.Fatalf("version-%d header: got %v, want ErrPoolSnapshot naming the version", old.version, err)
			}
			if _, _, release, err := ingest.MapPoolSnapshot(path); !errors.Is(err, ingest.ErrPoolSnapshot) || release != nil {
				t.Fatalf("version-%d file mapped: %v", old.version, err)
			}

			// A one-byte budget: each query demotes the other tenant's pool.
			opt := Options{Workers: 2, MaxTheta: 4000, PoolBudgetBytes: 1, PoolDir: dir}
			s := testServer(t, opt, map[string]*graph.Graph{"g": g})
			if loaded, err := s.LoadPools(); err != nil || loaded != 0 {
				t.Fatalf("LoadPools = %d, %v; want the old file skipped", loaded, err)
			}
			req := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}
			r, err := s.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			if cold := coldRun(t, g, opt, req); r.Warm || !reflect.DeepEqual(r.Seeds, cold.Seeds) || r.Theta != cold.Theta {
				t.Fatalf("answer beside an old pool file: warm=%v %v/θ=%d, cold run %v/θ=%d", r.Warm, r.Seeds, r.Theta, cold.Seeds, cold.Theta)
			}
			if _, err := s.Query(QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 2}); err != nil { // pushes tenant 1 out
				t.Fatal(err)
			}
			st := s.Stats()
			if st.PromoteFailures != 0 || st.Promotions != 0 || st.Demotions != 1 || st.DemotionWrites != 1 {
				t.Fatalf("old file should cost a cold build and one written demotion, nothing else: %+v", st)
			}
			info, err := ingest.ReadPoolSnapshotInfoFile(path)
			if err != nil || info.Version != ingest.PoolSnapshotVersion || info.Seed != 1 {
				t.Fatalf("demotion did not replace the old file: %+v, %v", info, err)
			}
			again, err := s.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Warm || again.GeneratedSets != 0 || !reflect.DeepEqual(again.Seeds, r.Seeds) {
				t.Fatalf("promotion from the rewritten file: warm=%v generated=%d seeds %v vs %v", again.Warm, again.GeneratedSets, again.Seeds, r.Seeds)
			}
		})
	}
}

// askCold serves req on s and requires the answer a cold imm.Run on g
// gives, served warm without generating a set when warm is set.
func askCold(t *testing.T, s *Server, g *graph.Graph, req QueryRequest, warm bool) *QueryResult {
	t.Helper()
	r, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	if cold := coldRun(t, g, s.opt, req); !reflect.DeepEqual(r.Seeds, cold.Seeds) || r.Theta != cold.Theta {
		t.Fatalf("k=%d eps=%v seed=%d: served %v/θ=%d, cold %v/θ=%d", req.K, req.Epsilon, req.Seed, r.Seeds, r.Theta, cold.Seeds, cold.Theta)
	}
	if warm && (!r.Warm || r.GeneratedSets != 0) {
		t.Fatalf("k=%d eps=%v seed=%d: warm=%v generated=%d, want a warm answer generating nothing", req.K, req.Epsilon, req.Seed, r.Warm, r.GeneratedSets)
	}
	return r
}

// TestPromotedPoolAnswersFromMemo pins the selection memo across the
// disk tier: a file carries the memo as it stood when it was written, so
// a promoted pool answers a shape it had answered before from the memo;
// a shape first asked after the promotion grows only the RAM memo — the
// next demotion stays clean — and so the pool promoted again runs that
// shape's selections anew. Every answer is a cold run's.
func TestPromotedPoolAnswersFromMemo(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	// A one-byte budget: each query demotes the other tenant's pool.
	s := testServer(t, Options{Workers: 2, MaxTheta: 4000, PoolBudgetBytes: 1, PoolDir: t.TempDir()},
		map[string]*graph.Graph{"g": g})
	base1 := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}
	base2 := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 2}
	later1 := QueryRequest{Graph: "g", K: 4, Epsilon: 0.7, Seed: 1} // a smaller θ: no extension

	askCold(t, s, g, base1, false)
	askCold(t, s, g, base2, false) // demotes tenant 1, memo and all
	if r := askCold(t, s, g, base1, true); r.MemoHits != int64(r.Rounds)+1 {
		t.Fatalf("promoted pool: %d memo hits for %d selections", r.MemoHits, r.Rounds+1)
	}

	if r := askCold(t, s, g, later1, true); r.MemoHits > 1 {
		t.Fatalf("a shape new to the pool hit the memo on %d selections", r.MemoHits)
	}
	writes := s.Stats().DemotionWrites
	askCold(t, s, g, base2, true) // demotes tenant 1 again: its file still holds the pool
	if got := s.Stats().DemotionWrites; got != writes {
		t.Fatalf("memo growth made a demotion dirty: demotion_writes %d -> %d", writes, got)
	}
	if r := askCold(t, s, g, later1, true); r.MemoHits > 1 {
		t.Fatalf("the file remembered a shape asked after it was written: %d memo hits", r.MemoHits)
	}
	if st := s.Stats(); st.PromoteFailures != 0 {
		t.Fatalf("%d promotions failed", st.PromoteFailures)
	}
}

// TestRestartAnswersFromMemo pins the restart leg: SavePools, a new
// Server on the same directory, LoadPools — and the first answer runs no
// selection at all.
func TestRestartAnswersFromMemo(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Options{Workers: 2, MaxTheta: 4000, PoolDir: t.TempDir()}
	req := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}
	s1 := testServer(t, opt, map[string]*graph.Graph{"g": g})
	askCold(t, s1, g, req, false)
	if saved, err := s1.SavePools(""); err != nil || saved != 1 {
		t.Fatalf("SavePools = %d, %v", saved, err)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := testServer(t, opt, map[string]*graph.Graph{"g": g})
	if loaded, err := s2.LoadPools(); err != nil || loaded != 1 {
		t.Fatalf("LoadPools = %d, %v", loaded, err)
	}
	if r := askCold(t, s2, g, req, true); r.MemoHits != int64(r.Rounds)+1 {
		t.Fatalf("first answer after a restart: %d memo hits for %d selections", r.MemoHits, r.Rounds+1)
	}
	if st := s2.Stats(); st.SelectionMemoMisses != 0 || st.Promotions != 1 {
		t.Fatalf("restart ran %d selections over %d promotions", st.SelectionMemoMisses, st.Promotions)
	}
}

// TestRepairedPoolFileCarriesSurvivingMemo pins what a delta leaves of
// the memo on disk: the repaired pool's next file carries exactly the
// entries whose view ends at or below the first replaced slot, in order.
func TestRepairedPoolFileCarriesSurvivingMemo(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	dir := t.TempDir()
	s := testServer(t, Options{Workers: 2, MaxTheta: 6000, PoolDir: dir}, map[string]*graph.Graph{"g": g})
	reqs := []QueryRequest{
		{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1},
		{Graph: "g", K: 20, Epsilon: 0.4, Seed: 1},
		{Graph: "g", K: 4, Epsilon: 0.7, Seed: 1},
	}
	for _, req := range reqs {
		askCold(t, s, g, req, false)
	}
	before := t.TempDir()
	if saved, err := s.SavePools(before); err != nil || saved != 1 {
		t.Fatalf("SavePools = %d, %v", saved, err)
	}
	pre, _, err := ingest.ReadPoolSnapshotFile(poolFile(before, 1))
	if err != nil {
		t.Fatal(err)
	}

	// An edge into the vertex whose first set comes latest: the delta
	// dirties it alone, so repair replaces from that set on.
	// A vertex's postings are a row or a list, as its count says.
	target, first := int32(-1), int64(-1)
	policy := imm.PolicyFromOptions(imm.Defaults())
	words := (pre.Count + 63) / 64
	var list, row int64
	for v := int32(0); v < pre.N; v++ {
		c, at := pre.PostIdx[v+1]-pre.PostIdx[v], int64(-1) // v's first set
		if policy.Dense(int32(pre.Count), int(c)) {
			for wi, w := range pre.PostRows[row : row+words] {
				if w != 0 {
					at = int64(wi<<6 + bits.TrailingZeros64(w))
					break
				}
			}
			row += words
		} else {
			if c > 0 {
				at = int64(pre.PostData[list])
			}
			list += c
		}
		if at > first {
			target, first = v, at
		}
	}
	var d graph.Delta
	for u := int32(0); u < g.N && d.Add == nil; u++ {
		if u != target && !slices.Contains(g.OutEdges[g.OutIndex[u]:g.OutIndex[u+1]], target) {
			d = graph.Delta{Add: []graph.Edge{{Src: u, Dst: target}}, Seed: 5}
		}
	}
	if _, err := s.ApplyDelta("g", d, graph.DeltaOptions{}); err != nil {
		t.Fatal(err)
	}
	if saved, err := s.SavePools(""); err != nil || saved != 1 {
		t.Fatalf("SavePools = %d, %v", saved, err)
	}
	post, _, err := ingest.ReadPoolSnapshotFile(poolFile(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	var want []imm.PoolMemoEntry
	for _, e := range pre.Memo {
		if e.Limit <= first {
			want = append(want, e)
		}
	}
	if len(want) == 0 || len(want) == len(pre.Memo) {
		t.Fatalf("first replaced slot %d keeps %d of %d entries: the delta does not split the memo", first, len(want), len(pre.Memo))
	}
	if !reflect.DeepEqual(post.Memo, want) {
		t.Fatalf("repaired pool's file remembers %+v, want the %d entries at or below slot %d", post.Memo, len(want), first)
	}
	ng, _, err := graph.ApplyDelta(g, d, graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range reqs {
		askCold(t, s, ng, req, true)
	}
}

// TestPromotionSkipsGatherWindow pins the disk-tier half of the gather
// window rule: a leader whose pool is demoted or rehydrated promotes it
// at once, since a promotion generates nothing a joiner could share,
// while a leader that builds — a new pool, or a dropped engine with no
// snapshot behind it — still waits out the window. Every answer is a
// cold run's.
func TestPromotionSkipsGatherWindow(t *testing.T) {
	const window = 300 * time.Millisecond
	g := testGraph(t, 8, graph.IC)
	dir := t.TempDir()
	// A one-byte budget: each query demotes the other tenant's pool.
	opt := Options{Workers: 2, MaxTheta: 4000, QueryWorkers: 4, GatherWindow: window, PoolBudgetBytes: 1, PoolDir: dir}
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})
	base1 := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 1}
	base2 := QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: 2}
	later2 := QueryRequest{Graph: "g", K: 4, Epsilon: 0.7, Seed: 2} // a smaller θ: no extension

	waited := func(step string, r *QueryResult) {
		t.Helper()
		if r.WallMS < float64(window/time.Millisecond) || r.Warm {
			t.Fatalf("%s: answered in %.1f ms (warm=%v), want a cold build after a full %v window", step, r.WallMS, r.Warm, window)
		}
	}
	promptly := func(step string, r *QueryResult) {
		t.Helper()
		if r.WallMS >= float64(window/time.Millisecond)/2 || r.BatchSize != 1 || !r.Warm || r.GeneratedSets != 0 {
			t.Fatalf("%s: answered in %.1f ms, batch of %d, warm=%v, %d generated; want a prompt warm promotion", step, r.WallMS, r.BatchSize, r.Warm, r.GeneratedSets)
		}
	}

	waited("q1 builds tenant 1", askCold(t, s, g, base1, false))
	waited("q2 builds tenant 2", askCold(t, s, g, base2, false)) // demotes tenant 1
	promptly("q3 promotes tenant 1", askCold(t, s, g, base1, true))
	if st := s.Stats(); st.Promotions != 1 || st.Demotions != 2 {
		t.Fatalf("after the promotion: %d promotions, %d demotions; want 1 and 2", st.Promotions, st.Demotions)
	}

	// Two concurrent queries on demoted tenant 2: one promotion answers
	// both, whichever drain each lands in.
	before := s.Stats()
	pair := []QueryRequest{base2, later2}
	results := make([]*QueryResult, len(pair))
	var wg sync.WaitGroup
	for i, req := range pair {
		wg.Add(1)
		go func(i int, req QueryRequest) {
			defer wg.Done()
			r, err := s.Query(req)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i, req)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, r := range results {
		cold := coldRun(t, g, opt, pair[i])
		if !reflect.DeepEqual(r.Seeds, cold.Seeds) || r.Theta != cold.Theta || !r.Warm || r.GeneratedSets != 0 {
			t.Fatalf("pair member k=%d: served %v/θ=%d warm=%v generated=%d, cold %v/θ=%d", pair[i].K, r.Seeds, r.Theta, r.Warm, r.GeneratedSets, cold.Seeds, cold.Theta)
		}
	}
	after := s.Stats()
	if got := after.Promotions - before.Promotions; got != 1 {
		t.Fatalf("the pair promoted %d times, want 1", got)
	}
	if after.GeneratedSets != before.GeneratedSets || after.PromoteFailures != 0 {
		t.Fatalf("the pair generated %d sets with %d failed promotions", after.GeneratedSets-before.GeneratedSets, after.PromoteFailures)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A fresh server rehydrates the directory and promotes at once.
	opt.PoolBudgetBytes = 0
	s2 := testServer(t, opt, map[string]*graph.Graph{"g": g})
	if loaded, err := s2.LoadPools(); err != nil || loaded != 2 {
		t.Fatalf("LoadPools = %d, %v", loaded, err)
	}
	promptly("q4 promotes a rehydrated pool", askCold(t, s2, g, base1, true))

	// With its engine dropped and no snapshot behind it, the pool is
	// rebuilt, and the build gathers.
	s2.mu.Lock()
	pe := s2.pools[poolKey{graph: "g", seed: 1}]
	s2.mu.Unlock()
	pe.mu.Lock()
	pe.dropEngine()
	s2.mu.Lock()
	s2.dropDiskLocked(pe)
	s2.mu.Unlock()
	pe.mu.Unlock()
	waited("q5 rebuilds a dropped engine", askCold(t, s2, g, base1, false))
}
