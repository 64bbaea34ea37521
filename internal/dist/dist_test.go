package dist

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
	"repro/internal/rrr"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(8, 5), graph.IC, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testOptions(ranks int) Options {
	opt := DefaultOptions()
	opt.Ranks = ranks
	opt.K = 6
	opt.Seed = 7
	opt.MaxTheta = 1500
	return opt
}

func sharedRun(t *testing.T, g *graph.Graph, opt Options) *imm.Result {
	t.Helper()
	res, err := imm.Run(g, opt.Options)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSingleRankMatchesSharedRun pins the Ranks=1 degradation: identical
// seeds, θ trajectory, and zero communication.
func TestSingleRankMatchesSharedRun(t *testing.T) {
	g := testGraph(t)
	opt := testOptions(1)
	shared := sharedRun(t, g, opt)
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSeeds(t, shared.Seeds, res.Seeds)
	if res.Theta != shared.Theta || res.Rounds != shared.Rounds {
		t.Fatalf("trajectory diverged: theta %d vs %d, rounds %d vs %d",
			res.Theta, shared.Theta, res.Rounds, shared.Rounds)
	}
	if res.Comm.BytesSent != 0 || res.Comm.Messages != 0 {
		t.Fatalf("single rank communicated: %+v", res.Comm)
	}
}

// TestRankPartitioningDeterminism pins the core guarantee: any rank
// count returns seeds byte-identical to the shared-memory run, because
// slot-indexed RNG streams make the pool independent of who generates
// which slot.
func TestRankPartitioningDeterminism(t *testing.T) {
	g := testGraph(t)
	shared := sharedRun(t, g, testOptions(1))
	for _, ranks := range []int{2, 3, 5, 8} {
		res, err := Run(g, testOptions(ranks))
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		assertSameSeeds(t, shared.Seeds, res.Seeds)
		if res.Theta != shared.Theta {
			t.Fatalf("ranks=%d: theta %d vs shared %d", ranks, res.Theta, shared.Theta)
		}
		if res.Comm.BytesSent == 0 {
			t.Fatalf("ranks=%d: no communication recorded", ranks)
		}
	}
}

// TestCommMonotonicInRanks checks that the metered volume grows with the
// rank count: more ranks mean more counter reductions and a larger share
// of the pool crossing the wire.
func TestCommMonotonicInRanks(t *testing.T) {
	g := testGraph(t)
	var prev int64 = -1
	for _, ranks := range []int{1, 2, 4, 8} {
		res, err := Run(g, testOptions(ranks))
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if res.Comm.BytesSent <= prev {
			t.Fatalf("ranks=%d: BytesSent %d not above previous %d", ranks, res.Comm.BytesSent, prev)
		}
		prev = res.Comm.BytesSent
	}
}

// TestCommAccountingConsistency checks the phase breakdown sums to the
// aggregate totals and that sent equals received (every byte sent is
// received exactly once).
func TestCommAccountingConsistency(t *testing.T) {
	g := testGraph(t)
	res, err := Run(g, testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Comm
	phases := []PhaseComm{c.ThetaExchange, c.CounterReduce, c.SetGather, c.SeedBroadcast}
	var sent, recv, msgs int64
	for _, p := range phases {
		sent += p.BytesSent
		recv += p.BytesReceived
		msgs += p.Messages
	}
	if sent != c.BytesSent || recv != c.BytesReceived || msgs != c.Messages {
		t.Fatalf("phase sums (%d,%d,%d) disagree with totals (%d,%d,%d)",
			sent, recv, msgs, c.BytesSent, c.BytesReceived, c.Messages)
	}
	if c.BytesSent != c.BytesReceived {
		t.Fatalf("sent %d != received %d", c.BytesSent, c.BytesReceived)
	}
	if c.SetGather.BytesSent == 0 || c.CounterReduce.BytesSent == 0 {
		t.Fatalf("data phases empty: %+v", c)
	}
}

// TestMaxThetaCappingAcrossRanks checks the cap binds the union of rank
// budgets, not each rank's share: the final pool never exceeds MaxTheta
// and matches the shared-memory θ exactly.
func TestMaxThetaCappingAcrossRanks(t *testing.T) {
	g := testGraph(t)
	for _, cap := range []int64{97, 500, 1500} {
		opt := testOptions(3)
		opt.MaxTheta = cap
		shared := sharedRun(t, g, opt)
		res, err := Run(g, opt)
		if err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		if res.Theta > cap {
			t.Fatalf("cap=%d: theta %d exceeds cap", cap, res.Theta)
		}
		if res.Theta != shared.Theta {
			t.Fatalf("cap=%d: theta %d vs shared %d", cap, res.Theta, shared.Theta)
		}
		assertSameSeeds(t, shared.Seeds, res.Seeds)
	}
}

// TestMoreRanksThanTheta exercises ranks receiving empty slot slices.
func TestMoreRanksThanTheta(t *testing.T) {
	g := testGraph(t)
	opt := testOptions(8)
	opt.MaxTheta = 5
	shared := sharedRun(t, g, opt)
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSeeds(t, shared.Seeds, res.Seeds)
}

func TestInvalidOptions(t *testing.T) {
	g := testGraph(t)
	if _, err := Run(g, testOptions(0)); err == nil {
		t.Fatal("Ranks=0 accepted")
	}
	if _, err := Run(nil, testOptions(2)); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func assertSameSeeds(t *testing.T, want, got []int32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("seed count %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("seeds diverged: got %v want %v", got, want)
		}
	}
}

// TestEngineLabelNormalized pins that a Ripples request is relabeled:
// the distributed runtime always runs the EfficientIMM kernels.
func TestEngineLabelNormalized(t *testing.T) {
	g := testGraph(t)
	opt := testOptions(2)
	opt.Engine = imm.Ripples
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != imm.Efficient {
		t.Fatalf("result labeled %v, want %v", res.Engine, imm.Efficient)
	}
	assertSameSeeds(t, sharedRun(t, g, opt).Seeds, res.Seeds)
}

// TestRunSnapshot pins the snapshot-fed distributed path: rank 0 loads
// the graph from a .imsnap file, seeds match the in-memory run exactly,
// and the graph broadcast is metered at the snapshot's wire size per
// non-root rank.
func TestRunSnapshot(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.imsnap")
	if err := ingest.WriteSnapshotFile(path, g, 7); err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 3} {
		opt := testOptions(ranks)
		direct, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := RunSnapshot(path, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSeeds(t, direct.Seeds, snap.Seeds)
		wantBytes := int64(ranks-1) * ingest.SnapshotSize(g)
		if snap.Comm.GraphBroadcast.BytesSent != wantBytes {
			t.Fatalf("ranks=%d: graph broadcast %dB, want %dB",
				ranks, snap.Comm.GraphBroadcast.BytesSent, wantBytes)
		}
		if snap.Comm.BytesSent != direct.Comm.BytesSent+wantBytes {
			t.Fatalf("ranks=%d: broadcast not folded into aggregate", ranks)
		}
	}
	if _, err := RunSnapshot(filepath.Join(t.TempDir(), "missing.imsnap"), testOptions(2)); err == nil {
		t.Fatal("missing snapshot not surfaced")
	}
}

// TestAnswersAreRunAnswers pins that a distributed answer is the
// shared-memory answer: at every rank count, simulated and networked, the
// seeds, coverage, θ trajectory, lower bound, set statistics and pool
// footprint equal imm.Run's on the same options. The scan kernel is a
// shared-memory toggle: every distributed entry point refuses it with
// imm.ErrWarmOptions, and the networked one sends nothing.
func TestAnswersAreRunAnswers(t *testing.T) {
	g := testGraph(t)
	workers := startWorkers(t, 7)
	type answer struct {
		Seeds    []int32
		Coverage float64
		Theta    int64
		Rounds   int
		LB       float64
		SetStats rrr.Stats
		Pool     imm.PoolFootprint
	}
	answerOf := func(r imm.Result) answer {
		return answer{r.Seeds, r.Coverage, r.Theta, r.Rounds, r.LB, r.SetStats, r.Pool}
	}
	for _, ranks := range []int{1, 2, 3, 4, 8} {
		opt := testOptions(ranks)
		want := answerOf(*sharedRun(t, g, opt))
		sim, err := Run(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := Connect(ClusterConfig{Peers: workers.Peers[:ranks]}, testClusterOptions())
		if err != nil {
			t.Fatal(err)
		}
		net, err := RunCluster(g, opt, cl)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*Result{"Run": sim, "RunCluster": net} {
			if got := answerOf(res.Result); !reflect.DeepEqual(got, want) {
				t.Errorf("%d ranks: %s answered\n%+v\nimm.Run answered\n%+v", ranks, name, got, want)
			}
		}
	}

	scan := testOptions(3)
	scan.Selection = imm.SelectScan
	if _, err := Run(g, scan); !errors.Is(err, imm.ErrWarmOptions) {
		t.Errorf("Run with scan selection: got %v, want ErrWarmOptions", err)
	}
	path := filepath.Join(t.TempDir(), "g.imsnap")
	if err := ingest.WriteSnapshotFile(path, g, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSnapshot(path, scan); !errors.Is(err, imm.ErrWarmOptions) {
		t.Errorf("RunSnapshot with scan selection: got %v, want ErrWarmOptions", err)
	}
	cl, err := Connect(ClusterConfig{Peers: workers.Peers[:3]}, testClusterOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sent, _, msgs := cl.MeterTotals()
	if _, err := RunCluster(g, scan, cl); !errors.Is(err, imm.ErrWarmOptions) {
		t.Errorf("RunCluster with scan selection: got %v, want ErrWarmOptions", err)
	}
	if s, _, m := cl.MeterTotals(); s != sent || m != msgs {
		t.Errorf("a refused RunCluster sent %d bytes in %d messages", s-sent, m-msgs)
	}
}
