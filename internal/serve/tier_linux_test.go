package serve

import (
	"runtime/debug"
	"testing"

	"repro/internal/graph"
)

// TestPoolMappingsBounded rotates four tenants through a 2.5-pool
// budget fifty times and then reads /proc/self/maps: the live .impool
// mappings must number no more than the resident promoted pools — one
// mapping per promotion, released when its engine is dropped — where the
// tier used to keep one per promotion until exit. The rotation runs on
// this goroutine alone (Workers 1) with faults turned into panics, so a
// read through a mapping released too early fails the test instead of
// killing the process. CI's race leg runs it by name: the file is
// linux-only, and a build tag that silently excluded it would show.
func TestPoolMappingsBounded(t *testing.T) {
	dir := t.TempDir()
	if _, ok := impoolMappings(dir); !ok {
		t.Fatal("/proc/self/maps unreadable on linux")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("fault while rotating (use after unmap?): %v", r)
		}
	}()

	const tenants, rotations = 4, 50
	g := testGraph(t, 8, graph.IC)
	opt := Options{Workers: 1, MaxTheta: 4000, PoolDir: dir, GatherWindow: -1}
	want := make([][]int32, tenants)
	for i := range want {
		want[i] = coldRun(t, g, opt, QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: uint64(i + 1)}).Seeds
	}
	opt.PoolBudgetBytes = rotationBudget(t, g, opt, tenants, want)
	s := testServer(t, opt, map[string]*graph.Graph{"g": g})
	rotate(t, s, tenants, false, want)
	for i := 0; i < rotations; i++ {
		rotate(t, s, tenants, true, want)
	}
	if st := s.Stats(); st.Promotions < rotations*tenants {
		t.Fatalf("%d promotions in %d rotations of %d tenants: the rotation left the disk tier", st.Promotions, rotations, tenants)
	}
	checkMappingsBounded(t, s)

	// Removing the graph releases the rest.
	if _, _, err := s.RemoveGraph("g"); err != nil {
		t.Fatal(err)
	}
	if live, _ := impoolMappings(dir); live != 0 {
		t.Fatalf("%d .impool mappings outlive their graph", live)
	}
}
