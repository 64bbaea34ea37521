package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
	"repro/internal/rrr"
	"repro/internal/wire"
)

// startWorkers boots n worker rank servers on loopback listeners and
// returns a root ClusterConfig whose Peers[1:] point at them. Cleanup
// stops them.
func startWorkers(t *testing.T, n int) ClusterConfig {
	t.Helper()
	cfg := ClusterConfig{Rank: 0, Peers: []string{"root.invalid:0"}}
	for i := 0; i < n; i++ {
		cfg.Peers = append(cfg.Peers, startRank(t).Addr())
	}
	return cfg
}

// startRank boots one worker rank server on a loopback listener; cleanup
// stops it.
func startRank(t *testing.T) *RankServer {
	t.Helper()
	rs, err := ListenRank("127.0.0.1:0", ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go rs.Serve()
	t.Cleanup(func() { rs.Close() })
	return rs
}

func testClusterOptions() ClusterOptions {
	return ClusterOptions{
		DialTimeout:  2 * time.Second,
		FrameTimeout: 30 * time.Second,
		DialRetries:  1,
		Backoff:      10 * time.Millisecond,
	}
}

// TestClusterSeedsByteIdentical is the tentpole guarantee over real TCP:
// at ranks 1, 2, and 4 — with non-root chunks generated by worker
// processes on loopback sockets — the seeds, θ trajectory, and modeled
// communication match the shared-memory run exactly, and the measured
// wire bytes are nonzero whenever anything actually crossed a socket.
func TestClusterSeedsByteIdentical(t *testing.T) {
	g := testGraph(t)
	shared := sharedRun(t, g, testOptions(1))
	for _, ranks := range []int{1, 2, 4} {
		cfg := startWorkers(t, ranks-1)
		cl, err := Connect(cfg, testClusterOptions())
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		res, err := RunCluster(g, testOptions(ranks), cl)
		cl.Close()
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		assertSameSeeds(t, shared.Seeds, res.Seeds)
		if res.Theta != shared.Theta || res.Rounds != shared.Rounds {
			t.Fatalf("ranks=%d: trajectory diverged: theta %d vs %d, rounds %d vs %d",
				ranks, res.Theta, shared.Theta, res.Rounds, shared.Rounds)
		}
		if res.Comm.Failovers != 0 {
			t.Fatalf("ranks=%d: unexpected failovers: %d", ranks, res.Comm.Failovers)
		}
		if ranks == 1 {
			if res.Comm.MeasuredBytesSent != 0 {
				t.Fatalf("single rank measured traffic: %+v", res.Comm)
			}
			continue
		}
		if res.Comm.MeasuredBytesSent == 0 || res.Comm.MeasuredBytesReceived == 0 || res.Comm.MeasuredMessages == 0 {
			t.Fatalf("ranks=%d: no measured traffic: %+v", ranks, res.Comm)
		}
		if res.Comm.BytesSent == 0 {
			t.Fatalf("ranks=%d: modeled comm missing", ranks)
		}
	}
}

// TestClusterModeledMatchesSimulated pins that putting the phases on the
// wire does not change the modeled bill: a networked run and a simulated
// run at the same rank count report identical modeled Comm totals (the
// measured column is where they differ).
func TestClusterModeledMatchesSimulated(t *testing.T) {
	g := testGraph(t)
	opt := testOptions(2)
	sim, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := startWorkers(t, 1)
	cl, err := Connect(cfg, testClusterOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	net, err := RunCluster(g, opt, cl)
	if err != nil {
		t.Fatal(err)
	}
	// RunCluster additionally models the graph broadcast (the in-memory
	// simulated Run has no graph to ship); net aggregates minus that
	// phase must equal the simulated bill exactly.
	netBytes := net.Comm.BytesSent - net.Comm.GraphBroadcast.BytesSent
	netMsgs := net.Comm.Messages - net.Comm.GraphBroadcast.Messages
	if netBytes != sim.Comm.BytesSent || netMsgs != sim.Comm.Messages {
		t.Fatalf("modeled comm diverged: wire (%d bytes, %d msgs) vs simulated (%d bytes, %d msgs)",
			netBytes, netMsgs, sim.Comm.BytesSent, sim.Comm.Messages)
	}
	if net.Comm.SetGather != sim.Comm.SetGather || net.Comm.CounterReduce != sim.Comm.CounterReduce ||
		net.Comm.ThetaExchange != sim.Comm.ThetaExchange || net.Comm.SeedBroadcast != sim.Comm.SeedBroadcast {
		t.Fatalf("phase accounting diverged:\nwire %+v\nsim  %+v", net.Comm, sim.Comm)
	}
	if net.Comm.GraphBroadcast.Messages != 1 || net.Comm.GraphBroadcast.BytesSent == 0 {
		t.Fatalf("graph broadcast not modeled: %+v", net.Comm.GraphBroadcast)
	}
}

// TestClusterWorkerLossFailsOver kills a worker mid-cluster: the run
// must regenerate the dead rank's chunks locally, report the failovers,
// and still return byte-identical seeds.
func TestClusterWorkerLossFailsOver(t *testing.T) {
	g := testGraph(t)
	shared := sharedRun(t, g, testOptions(1))

	rs1, err := ListenRank("127.0.0.1:0", ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go rs1.Serve()
	t.Cleanup(func() { rs1.Close() })
	rs2, err := ListenRank("127.0.0.1:0", ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go rs2.Serve()

	cfg := ClusterConfig{Rank: 0, Peers: []string{"root.invalid:0", rs1.Addr(), rs2.Addr()}}
	cl, err := Connect(cfg, testClusterOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Kill rank 2 after the handshake, before any round.
	rs2.Close()

	res, err := RunCluster(g, testOptions(3), cl)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSeeds(t, shared.Seeds, res.Seeds)
	if res.Comm.Failovers == 0 {
		t.Fatal("worker loss not reported in Comm.Failovers")
	}
	if res.Comm.MeasuredBytesSent == 0 {
		t.Fatal("surviving worker produced no measured traffic")
	}
}

// startLyingRank serves the worker side of the wire protocol over g, but
// passes every Round reply through lie before sending it. It returns its
// address and the number of Round replies it has sent.
func startLyingRank(t *testing.T, g *graph.Graph, lie func(rep *wire.RoundReply)) (string, *atomic.Int64) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	rounds := new(atomic.Int64)
	serve := func(nc net.Conn) {
		conn := wire.NewConn(nc, 30*time.Second, nil)
		conn.SetReadTimeout(0)
		defer conn.Close()
		for {
			typ, payload, err := conn.ReadFrame()
			if err != nil {
				return // the root closed the cluster
			}
			switch typ {
			case wire.MsgHello:
				err = conn.WriteFrame(wire.MsgHelloAck, wire.EncodeHello(wire.Hello{Tag: "liar"}))
			case wire.MsgGraph:
				err = conn.WriteFrame(wire.MsgGraphAck, nil)
			case wire.MsgRound:
				rd, _ := wire.DecodeRound(payload)
				rep := generateRound(g, rd)
				lie(&rep)
				rounds.Add(1)
				err = conn.WriteFrame(wire.MsgRoundReply, wire.EncodeRoundReply(rep))
			case wire.MsgSeeds:
				err = conn.WriteFrame(wire.MsgSeedsAck, nil)
			}
			if err != nil {
				return
			}
		}
	}
	go func() {
		for {
			nc, err := lis.Accept()
			if err != nil {
				return
			}
			go serve(nc)
		}
	}()
	return lis.Addr().String(), rounds
}

// hugeCount is a plain set header that claims 2^40 members and carries
// none.
func hugeCount(rep *wire.RoundReply) {
	for i := range rep.Sets {
		rep.Sets[i] = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	}
}

// sampleChunk is the oracle for a slot generator's output: the sizes and
// one chunk of slots [lo, lo+count) sampled at the root.
func sampleChunk(g *graph.Graph, policy rrr.Policy, seed uint64, lo, count int64) ([]int32, imm.Chunk) {
	sizes := make([]int32, count)
	c, _, _ := imm.SampleSlots(g, policy, seed, lo, sizes)
	return sizes, c
}

// assertChunks checks a slot generator's sizes and chunks, byte for byte,
// against the oracle's.
func assertChunks(t *testing.T, sizes []int32, chunks []imm.Chunk, wantSizes []int32, want imm.Chunk) {
	t.Helper()
	var got imm.Chunk
	for _, c := range chunks {
		got.Lists, got.Rows = append(got.Lists, c.Lists...), append(got.Rows, c.Rows...)
	}
	if !slices.Equal(sizes, wantSizes) || !slices.Equal(got.Lists, want.Lists) || !slices.Equal(got.Rows, want.Rows) {
		t.Fatalf("generated chunk differs from local sampling: sizes %v, %d list members and %d row words; want %v, %d and %d",
			sizes, len(got.Lists), len(got.Rows), wantSizes, len(want.Lists), len(want.Rows))
	}
}

// TestClusterMalformedSetCountFailsOver feeds the root a rank reply whose
// set payloads claim more members than they have bytes: the chunk decoder
// must treat it as a failed exchange — resample the chunk at the root,
// count the failover, and return what a healthy cluster would have —
// instead of sizing a buffer from the peer's count.
func TestClusterMalformedSetCountFailsOver(t *testing.T) {
	g := testGraph(t)
	shared := sharedRun(t, g, testOptions(1))
	liar, _ := startLyingRank(t, g, hugeCount)
	cfg := ClusterConfig{Rank: 0, Peers: []string{"root.invalid:0", liar}}
	cl, err := Connect(cfg, testClusterOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := RunCluster(g, testOptions(2), cl)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSeeds(t, shared.Seeds, res.Seeds)
	if res.Theta != shared.Theta || res.Comm.Failovers == 0 {
		t.Fatalf("theta %d (want %d), failovers %d (want > 0)", res.Theta, shared.Theta, res.Comm.Failovers)
	}

	// The serving path's pool generator: one remote chunk per call.
	opt := testOptions(2)
	policy := imm.PolicyFromOptions(opt.Options)
	sizes := make([]int32, 64)
	before := cl.Failovers()
	chunks, _, err := cl.PoolGenerator("g", g, policy, opt.Seed).GenerateSlots(100, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Failovers() != before+1 {
		t.Fatalf("failovers %d -> %d, want +1", before, cl.Failovers())
	}
	wantSizes, want := sampleChunk(g, policy, opt.Seed, 100, 64)
	assertChunks(t, sizes, chunks, wantSizes, want)
}

// TestClusterLyingRank feeds the root rank replies that are well framed
// but lie: a set with a member past the graph, as a list or as a bitmap
// row; a plain delta that carries a member past 2^31, which an int32
// cast would wrap negative; a set padded with bytes after its last
// member; honest sets under an inflated member word; and honest sets
// under an edge count 2^40 past what they can have visited. Each run must
// equal the shared-memory run in seeds, θ and pool footprint, and an
// honest 2-rank run in its modeled sampling cost. A reply with a bad set
// or an impossible edge count is refused whole, one failover per chunk;
// the member word is never read, so the honest sets are kept.
func TestClusterLyingRank(t *testing.T) {
	g := testGraph(t)
	opt := testOptions(2)
	shared := sharedRun(t, g, opt)
	honest := func() *Result {
		cl, err := Connect(ClusterConfig{Peers: []string{"root.invalid:0", startRank(t).Addr()}}, testClusterOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		res, err := RunCluster(g, opt, cl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	plainWrap := binary.AppendUvarint([]byte{2, 3}, 1<<31) // members 3 and 3+2^31+1
	dense := make([]int32, 17)                             // 16 members is g's bitmap threshold
	for i := range dense {
		dense[i] = int32(i)
	}
	dense[16] = 1 << 20
	for _, tc := range []struct {
		name    string
		lie     func(rep *wire.RoundReply)
		refused bool
	}{
		{"sparse-member-past-n", func(rep *wire.RoundReply) { rep.Sets[0] = compress.AppendPlain(nil, []int32{1 << 20}) }, true},
		{"dense-member-past-n", func(rep *wire.RoundReply) { rep.Sets[0] = compress.AppendPlain(nil, dense) }, true},
		{"delta-past-int32", func(rep *wire.RoundReply) { rep.Sets[0] = plainWrap }, true},
		{"padded-set", func(rep *wire.RoundReply) { rep.Sets[0] = append(slices.Clip(rep.Sets[0]), 0xff, 0x01) }, true},
		{"members-word-high", func(rep *wire.RoundReply) { rep.Members += 1000 }, false},
		{"edges-inflated", func(rep *wire.RoundReply) { rep.Edges += 1 << 40 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			liar, rounds := startLyingRank(t, g, tc.lie)
			cl, err := Connect(ClusterConfig{Peers: []string{"root.invalid:0", liar}}, testClusterOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			res, err := RunCluster(g, opt, cl)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSeeds(t, shared.Seeds, res.Seeds)
			if res.Theta != shared.Theta || res.Pool != shared.Pool {
				t.Fatalf("theta %d, pool %+v; want %d, %+v", res.Theta, res.Pool, shared.Theta, shared.Pool)
			}
			want := int64(0)
			if tc.refused {
				want = rounds.Load()
			}
			if rounds.Load() == 0 || res.Comm.Failovers != want || cl.Failovers() != want {
				t.Fatalf("%d rounds: failovers %d (cluster %d), want %d", rounds.Load(), res.Comm.Failovers, cl.Failovers(), want)
			}
			if res.Breakdown.SamplingModeled != honest.Breakdown.SamplingModeled {
				t.Fatalf("modeled sampling %v, honest 2-rank run %v", res.Breakdown.SamplingModeled, honest.Breakdown.SamplingModeled)
			}
		})
	}
}

// TestClusterPoolMatchesLocal is the remote path's byte-level oracle. On
// uniform IC, where most sets are bitmap rows, a warm engine extended in
// two θ rounds over two wire ranks — and over a cluster whose second
// worker died, so its chunks fail over — freezes to the sets and index a
// local engine builds.
func TestClusterPoolMatchesLocal(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 16), graph.IC, 42)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(3).Options
	freeze := func(gen imm.SlotGenerator) *imm.PoolState {
		w, err := imm.NewWarmEngine(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.SetRemote(gen); err != nil {
			t.Fatal(err)
		}
		for _, theta := range []int64{300, 700} { // two θ rounds, each closed by a selection
			w.Generate(theta)
			w.SelectSeeds(opt.K)
		}
		st, err := w.Freeze(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	want := freeze(nil)
	if len(want.BitmapData) == 0 || len(want.ListData) == 0 {
		t.Fatalf("want both kinds of set: %d list members, %d row words", len(want.ListData), len(want.BitmapData))
	}
	dead := startRank(t)
	for _, tc := range []struct {
		name      string
		peers     []string
		failovers int64
	}{
		{"two-ranks", []string{startRank(t).Addr(), startRank(t).Addr()}, 0},
		{"dead-rank", []string{startRank(t).Addr(), dead.Addr()}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := Connect(ClusterConfig{Peers: append([]string{"root.invalid:0"}, tc.peers...)}, testClusterOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if tc.failovers > 0 {
				dead.Close() // after the handshake: its chunks fail over
			}
			got := freeze(cl.PoolGenerator("g", g, imm.PolicyFromOptions(opt), opt.Seed))
			if cl.Failovers() != tc.failovers {
				t.Fatalf("failovers %d, want %d", cl.Failovers(), tc.failovers)
			}
			if got.TotalMembers != want.TotalMembers || !slices.Equal(got.Sizes, want.Sizes) ||
				!slices.Equal(got.ListData, want.ListData) || !slices.Equal(got.BitmapData, want.BitmapData) {
				t.Fatal("frozen sets differ from the local engine's")
			}
			if !slices.Equal(got.PostIdx, want.PostIdx) || !slices.Equal(got.PostData, want.PostData) || !slices.Equal(got.PostRows, want.PostRows) {
				t.Fatal("frozen index differs from the local engine's")
			}
		})
	}
}

// TestClusterConfigValidate covers the shared validation the CLIs rely
// on.
func TestClusterConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ClusterConfig
		want string // empty = valid
	}{
		{"valid", ClusterConfig{Rank: 1, Peers: []string{"a:1", "b:2"}}, ""},
		{"solo", ClusterConfig{Rank: 0, Peers: []string{"a:1"}}, ""},
		{"no peers", ClusterConfig{}, "at least one peer"},
		{"rank high", ClusterConfig{Rank: 2, Peers: []string{"a:1", "b:2"}}, "out of range"},
		{"rank negative", ClusterConfig{Rank: -1, Peers: []string{"a:1"}}, "out of range"},
		{"empty addr", ClusterConfig{Rank: 0, Peers: []string{"a:1", ""}}, "empty address"},
		{"duplicate", ClusterConfig{Rank: 0, Peers: []string{"a:1", "a:1"}}, "share address"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestConnectRejectsWorkerRank pins that Connect is root-only.
func TestConnectRejectsWorkerRank(t *testing.T) {
	if _, err := Connect(ClusterConfig{Rank: 1, Peers: []string{"a:1", "b:2"}}, ClusterOptions{}); err == nil {
		t.Fatal("Connect accepted a non-root rank")
	}
}

// TestClusterGenBillsEmptyChunks asks a 4-rank generator for two slots, so
// ranks 0 and 2 get empty chunks: no Round frame may reach rank 2, yet the
// bill charges every non-root rank its gather and counter reduction, as
// the simulated runtime always has.
func TestClusterGenBillsEmptyChunks(t *testing.T) {
	g := testGraph(t)
	rank2 := startRank(t)
	cfg := ClusterConfig{Peers: []string{"root.invalid:0", startRank(t).Addr(), rank2.Addr(), startRank(t).Addr()}}
	cl, err := Connect(cfg, testClusterOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	opt := testOptions(4)
	policy := imm.PolicyFromOptions(opt.Options)
	gen := cl.PoolGenerator("g", g, policy, opt.Seed).(*clusterGen)
	// A first call ships the graph to every rank.
	if _, _, err := gen.GenerateSlots(0, make([]int32, 64)); err != nil {
		t.Fatal(err)
	}
	before := gen.comm
	_, _, frames := rank2.MeterTotals()
	sizes := make([]int32, 2)
	chunks, _, err := gen.GenerateSlots(64, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, after := rank2.MeterTotals(); after != frames {
		t.Fatalf("rank 2 exchanged %d frames for an empty chunk", after-frames)
	}
	wantSizes, want := sampleChunk(g, policy, opt.Seed, 64, 2)
	assertChunks(t, sizes, chunks, wantSizes, want)
	ref := make([]rrr.Set, 2)
	imm.GenerateSlots(g, policy, opt.Seed, 64, ref)
	gather := ph(32+ref[0].Bytes()+ref[1].Bytes(), 3)
	counter := ph(3*8*int64(g.N), 3)
	if d := phaseDelta(gen.comm.SetGather, before.SetGather); d != gather {
		t.Errorf("set gather billed %+v, want %+v", d, gather)
	}
	if d := phaseDelta(gen.comm.CounterReduce, before.CounterReduce); d != counter {
		t.Errorf("counter reduce billed %+v, want %+v", d, counter)
	}
}

func phaseDelta(after, before PhaseComm) PhaseComm {
	return PhaseComm{after.BytesSent - before.BytesSent, after.BytesReceived - before.BytesReceived, after.Messages - before.Messages}
}

// TestClusterFailoverCountedOnce pins where a failover shows: a malformed
// remote chunk moves the run's Comm.Failovers and the cluster's
// Failovers() by exactly one each.
func TestClusterFailoverCountedOnce(t *testing.T) {
	g := testGraph(t)
	liar, _ := startLyingRank(t, g, hugeCount)
	cl, err := Connect(ClusterConfig{Peers: []string{"root.invalid:0", liar}}, testClusterOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	opt := testOptions(2)
	gen := cl.PoolGenerator("g", g, imm.PolicyFromOptions(opt.Options), opt.Seed).(*clusterGen)
	if _, _, err := gen.GenerateSlots(100, make([]int32, 64)); err != nil {
		t.Fatal(err)
	}
	if gen.comm.Failovers != 1 || cl.Failovers() != 1 {
		t.Fatalf("failovers: comm %d, cluster %d, want 1 and 1", gen.comm.Failovers, cl.Failovers())
	}
	res, err := RunCluster(g, opt, cl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Failovers == 0 || cl.Failovers() != 1+res.Comm.Failovers {
		t.Fatalf("run counted %d failovers, cluster %d more", res.Comm.Failovers, cl.Failovers()-1)
	}
}

// TestRankServerRefusesImpossibleRound sends rounds whose slot range no
// pool can hold on a raw connection: the worker must answer bad_request
// without sizing anything from the peer's count, and keep serving the
// connection.
func TestRankServerRefusesImpossibleRound(t *testing.T) {
	g := testGraph(t)
	nc, err := net.Dial("tcp", startRank(t).Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(nc, 30*time.Second, nil)
	defer conn.Close()
	if _, err := conn.Call(wire.MsgHello, wire.EncodeHello(wire.Hello{Tag: "test"}), wire.MsgHelloAck); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ingest.WriteSnapshot(&snap, g, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call(wire.MsgGraph, wire.EncodeGraph("g", snap.Bytes()), wire.MsgGraphAck); err != nil {
		t.Fatal(err)
	}
	round := func(lo, count int64) ([]byte, error) {
		return conn.Call(wire.MsgRound, wire.EncodeRound(wire.Round{Graph: "g", Seed: 7, Lo: lo, Count: count}), wire.MsgRoundReply)
	}
	for _, bad := range []struct{ lo, count int64 }{
		{0, 1 << 40},
		{1, math.MaxInt32},
		{math.MaxInt32, 1},
		{math.MaxInt64, math.MaxInt64},
	} {
		_, err := round(bad.lo, bad.count)
		if re, ok := err.(*wire.RemoteError); !ok || re.Code != "bad_request" {
			t.Fatalf("round [%d, +%d): err = %v, want a bad_request reply", bad.lo, bad.count, err)
		}
	}
	body, err := round(math.MaxInt32-8, 8)
	if err != nil {
		t.Fatalf("valid round after refusals: %v", err)
	}
	if rep, err := wire.DecodeRoundReply(body); err != nil || len(rep.Sets) != 8 {
		t.Fatalf("valid round: %d sets, %v", len(rep.Sets), err)
	}
}
