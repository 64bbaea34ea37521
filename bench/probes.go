package main

// Per-layer probes: direct calls into one layer's existing public
// functions on the workload's own inputs, each under its own span, plus the
// counters the code already exports. They run after the timed phases of a
// traced run.

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"time"

	efficientimm "repro"
	"repro/internal/compress"
	"repro/internal/counter"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
	"repro/internal/rng"
	"repro/internal/rrr"
	"repro/internal/sched"
	"repro/internal/wire"
)

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink uint64

// probe opens a span around one probe; call the result to end it.
func (e *env) probe(name string) (done func()) {
	i := e.tr.open("probe", name, time.Now())
	return func() { e.tr.close(i, name) }
}

// timeN runs fn n times and returns the median wall in milliseconds.
func timeN(n int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

func mbPerSec(bytes int64, wallMS float64) float64 {
	if wallMS <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / (wallMS / 1000)
}

func ingestMetrics(st efficientimm.IngestStats, m map[string]float64) {
	m["ingest.edgelist_mb_s"] = mbPerSec(st.Bytes, ms(st.TotalWall))
	m["ingest.parse_ms"] = ms(st.ParseWall)
	m["ingest.build_ms"] = ms(st.BuildWall)
	m["ingest.assign_ms"] = ms(st.AssignWall)
}

// serveCounters reports what serve.Stats counted between two readings.
func serveCounters(before, after efficientimm.ServeStats, m map[string]float64) {
	d := func(a, b int64) float64 { return float64(a - b) }
	queries := d(after.Queries, before.Queries)
	if queries > 0 {
		m["serve.warm_hit_ratio"] = d(after.WarmHits, before.WarmHits) / queries
	}
	m["serve.generated_sets"] = d(after.GeneratedSets, before.GeneratedSets)
	m["serve.batches"] = d(after.Batches, before.Batches)
	m["serve.max_batch_size"] = float64(after.MaxBatchSize)
	m["serve.batched_queries"] = d(after.BatchedQueries, before.BatchedQueries)
	m["serve.shared_extensions"] = d(after.SharedExtensions, before.SharedExtensions)
	m["serve.coalesced"] = d(after.Coalesced, before.Coalesced)
	m["serve.rejected"] = d(after.Rejected, before.Rejected)
	m["serve.evictions"] = d(after.Evictions, before.Evictions)
	m["serve.promotions"] = d(after.Promotions, before.Promotions)
	m["serve.demotions"] = d(after.Demotions, before.Demotions)
	m["serve.promote_failures"] = d(after.PromoteFailures, before.PromoteFailures)
	m["serve.repaired_sets"] = d(after.RepairedSets, before.RepairedSets)
	m["serve.full_resamples"] = d(after.FullResamples, before.FullResamples)
	m["serve.disk_mb"] = float64(after.DiskBytes) / 1e6
}

// probeSnapshotCodec times the .imsnap writer and reader on the workload's graph.
func probeSnapshotCodec(e *env, g *graph.Graph, m map[string]float64) error {
	defer e.probe("ingest.imsnap")()
	path := filepath.Join(e.tmp, "probe"+ingest.SnapshotExt)
	size := ingest.SnapshotSize(g)
	w, err := timeN(5, func() error { return ingest.WriteSnapshotFile(path, g, e.seed) })
	if err != nil {
		return err
	}
	r, err := timeN(5, func() error { _, _, err := ingest.ReadSnapshotFile(path); return err })
	if err != nil {
		return err
	}
	m["ingest.imsnap_write_mb_s"] = mbPerSec(size, w)
	m["ingest.imsnap_read_mb_s"] = mbPerSec(size, r)
	return nil
}

func probeRouteOwner(e *env, rt *efficientimm.Router, m map[string]float64) {
	defer e.probe("route.owner_ns")()
	const n = 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += uint64(len(rt.Owner(graphName, uint64(i))))
	}
	m["route.owner_ns"] = float64(time.Since(t0).Nanoseconds()) / n
}

// probeGeneration races the fused kernel against the materialized one on
// the same slots, one worker: ns per edge visited, sets per second,
// allocations per set, and the in-run wall ratio.
func probeGeneration(e *env, g *graph.Graph, m map[string]float64) {
	defer e.probe("imm.gen")()
	policy := imm.PolicyFromOptions(imm.Defaults())
	seed := e.poolSeed(1)
	// 4096 slots, grown until one pass is long enough to time.
	slots := 4096
	for ; slots < 1<<18; slots *= 2 {
		t0 := time.Now()
		imm.GenerateSlotsFused(g, policy, seed, 0, make([]rrr.Set, slots), rrr.NewArena(), counter.New(g.N))
		if time.Since(t0) >= 20*time.Millisecond {
			break
		}
	}
	var fused, mat, nsEdge, allocs []float64
	for rep := 0; rep < 5; rep++ {
		out, arena, cnt := make([]rrr.Set, slots), rrr.NewArena(), counter.New(g.N)
		before := readProc()
		t0 := time.Now()
		_, edges := imm.GenerateSlotsFused(g, policy, seed, 0, out, arena, cnt)
		wall := time.Since(t0)
		after := readProc()
		fused = append(fused, ms(wall))
		if edges > 0 {
			nsEdge = append(nsEdge, float64(wall.Nanoseconds())/float64(edges))
		}
		allocs = append(allocs, float64(after.mallocs-before.mallocs)/float64(slots))

		out = make([]rrr.Set, slots)
		t0 = time.Now()
		imm.GenerateSlots(g, policy, seed, 0, out)
		mat = append(mat, ms(time.Since(t0)))
	}
	m["imm.gen_fused_ns_edge"] = median(nsEdge)
	m["imm.gen_fused_sets_s"] = float64(slots) / (median(fused) / 1000)
	m["imm.gen_fused_allocs_set"] = median(allocs)
	m["imm.gen_fused_vs_materialized"] = median(mat) / median(fused)
}

func probeRNG(e *env, m map[string]float64) {
	defer e.probe("rng")()
	const n = 2_000_000
	r := rng.New(e.seed)
	var acc float64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		acc += r.Float64()
	}
	m["rng.float64_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	sink += uint64(acc)

	var x rng.Xoshiro256
	t0 = time.Now()
	for i := 0; i < n/4; i++ {
		x.SeedStream(e.seed, i)
		sink += x.Uint64()
	}
	m["rng.seedstream_ns"] = float64(time.Since(t0).Nanoseconds()) / (n / 4)
}

// probeSched times the fork-join primitives warm selection and generation
// are built from, at this box's parallelism with an empty body.
func probeSched(e *env, m map[string]float64) {
	defer e.probe("sched")()
	const forks = 5000
	body := func(worker, start, end int) {}
	before := readProc()
	t0 := time.Now()
	for i := 0; i < forks; i++ {
		sched.Static(engineWorkers, engineWorkers, body)
	}
	wall := time.Since(t0)
	after := readProc()
	m["sched.static_forkjoin_us"] = float64(wall.Microseconds()) / forks
	m["sched.static_allocs"] = float64(after.mallocs-before.mallocs) / forks

	const items, chunk = 1 << 20, 64
	t0 = time.Now()
	sched.Dynamic(engineWorkers, items, chunk, body)
	m["sched.dynamic_chunk_ns"] = float64(time.Since(t0).Nanoseconds()) / (items / chunk)
}

// probeWarmEngine measures what a warm answer costs below the planner:
// WarmEngine.AnswerBatch on a pool that already covers the query.
func probeWarmEngine(e *env, g *graph.Graph, opt efficientimm.ServeOptions, m map[string]float64) error {
	defer e.probe("imm.warm")()
	eo := opt.EngineOptions()
	eo.Seed = e.poolSeed(1)
	w, err := imm.NewWarmEngine(g, eo)
	if err != nil {
		return err
	}
	one := []imm.BatchQuery{{K: baseShape.k, Epsilon: baseShape.eps}}
	var four []imm.BatchQuery // one pool's share of the mix, as one batch
	for _, sh := range queryShapes() {
		four = append(four, imm.BatchQuery{K: sh.k, Epsilon: sh.eps})
	}
	if _, err := w.AnswerBatch(eo, four); err != nil { // builds the pool
		return err
	}
	const reps = 25
	before := readProc()
	warm, err := timeN(reps, func() error {
		rep, err := w.AnswerBatch(eo, one)
		if err == nil && rep.Extensions != 0 {
			err = fmt.Errorf("warm probe extended the pool")
		}
		return err
	})
	if err != nil {
		return err
	}
	after := readProc()
	m["imm.warm_answer_ms"] = warm
	m["imm.warm_answer_allocs"] = float64(after.mallocs-before.mallocs) / reps
	m["imm.select_us_seed"] = warm * 1000 / float64(baseShape.k)
	m["imm.batch_answer_ms"], err = timeN(reps/2, func() error { _, err := w.AnswerBatch(eo, four); return err })
	return err
}

// probeInproc measures Server.Query without HTTP: the planner's share is
// what it adds over the bare warm answer (gather window included).
func probeInproc(e *env, srv *efficientimm.Server, req efficientimm.QueryRequest, m map[string]float64) error {
	defer e.probe("serve.query_inproc_ms")()
	inproc, err := timeN(25, func() error {
		res, err := srv.Query(req)
		if err == nil && res.GeneratedSets != 0 {
			err = fmt.Errorf("in-process probe generated %d sets", res.GeneratedSets)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["serve.query_inproc_ms"] = inproc
	m["serve.planner_overhead_ms"] = inproc - m["imm.warm_answer_ms"]
	return nil
}

// probePoolCodec times the pieces of one demote/promote cycle in
// isolation: Freeze, the .impool writer, the mmap+CRC+validate reader,
// the graph fingerprint, and Thaw.
func probePoolCodec(e *env, g *graph.Graph, opt efficientimm.ServeOptions, seed uint64, m map[string]float64) error {
	defer e.probe("ingest.impool")()
	eo := opt.EngineOptions()
	eo.Seed = seed
	w, err := imm.NewWarmEngine(g, eo)
	if err != nil {
		return err
	}
	if _, err := w.AnswerBatch(eo, []imm.BatchQuery{{K: baseShape.k, Epsilon: baseShape.eps}}); err != nil {
		return err
	}
	var st *imm.PoolState
	if m["imm.freeze_ms"], err = timeN(7, func() (err error) { st, err = w.Freeze(0); return err }); err != nil {
		return err
	}
	path := filepath.Join(e.tmp, "probe"+ingest.PoolSnapshotExt)
	size := ingest.PoolSnapshotSize(st)
	wr, err := timeN(7, func() error { return ingest.WritePoolSnapshotFile(path, st) })
	if err != nil {
		return err
	}
	var mapped *imm.PoolState
	rd, err := timeN(7, func() (err error) { mapped, _, err = ingest.MapPoolSnapshotFile(path); return err })
	if err != nil {
		return err
	}
	m["ingest.impool_write_mb_s"] = mbPerSec(size, wr)
	m["ingest.impool_read_mb_s"] = mbPerSec(size, rd)
	m["imm.graph_checksum_ms"], _ = timeN(7, func() error { sink += imm.GraphChecksum(g); return nil })
	m["imm.thaw_ms"], err = timeN(7, func() error { _, err := imm.ThawWarmEngine(g, eo, mapped); return err })
	return err
}

// probeDelta times the write path layer by layer on fresh deltas from the
// workload's own pre-generated list: graph.ApplyDelta, WarmEngine repair,
// Server.ApplyDelta in-process, and the .imdelta codec round trip.
func probeDelta(e *env, w *deltaWorkload, m map[string]float64) error {
	defer e.probe("graph.delta")()
	const reps = 15
	if w.sent+2*reps > len(w.batches) {
		return fmt.Errorf("delta probe needs %d unused batches, have %d", 2*reps, len(w.batches)-w.sent)
	}
	eo := w.opt.EngineOptions()
	eo.Seed = e.poolSeed(1)
	eng, err := imm.NewWarmEngine(w.refG, eo)
	if err != nil {
		return err
	}
	if _, err := eng.AnswerBatch(eo, []imm.BatchQuery{{K: baseShape.k, Epsilon: baseShape.eps}}); err != nil {
		return err
	}
	g := w.refG
	var apply, dirty, repair, sets, codec []float64
	for i := 0; i < reps; i++ {
		d := w.batches[w.sent+i].delta()
		t0 := time.Now()
		ng, rep, err := graph.ApplyDelta(g, d, graph.DeltaOptions{})
		apply = append(apply, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		dirty = append(dirty, float64(len(rep.Dirty)))
		t0 = time.Now()
		rr, err := eng.ApplyDelta(ng, rep)
		repair = append(repair, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		sets = append(sets, float64(rr.Resampled))
		g = ng

		var buf bytes.Buffer
		t0 = time.Now()
		if err := ingest.WriteDelta(&buf, d); err != nil {
			return err
		}
		if _, _, err := ingest.ReadDelta(&buf); err != nil {
			return err
		}
		codec = append(codec, float64(time.Since(t0).Microseconds()))
	}
	m["graph.apply_delta_ms"] = median(apply)
	m["graph.dirty_vertices"] = median(dirty)
	m["imm.repair_ms"] = median(repair)
	m["imm.repair_sets"] = median(sets)
	m["ingest.imdelta_roundtrip_us"] = median(codec)

	// The live server, in-process: ApplyDelta + its pool repair, no HTTP.
	next := w.sent + reps
	m["serve.delta_apply_ms"], err = timeN(reps, func() error {
		_, err := w.st.srv.ApplyDelta(graphName, w.batches[next].delta(), graph.DeltaOptions{})
		next++
		return err
	})
	return err
}

// probeWire times the frame layer over a loopback wire.Conn pair and the
// codecs a generation round's reply passes through, on sets sampled from
// the workload's graph.
func probeWire(e *env, g *graph.Graph, m map[string]float64) error {
	defer e.probe("wire")()

	// A round's worth of real sets, plain-coded as a rank would ship them.
	const slots = 4096
	sets := make([]rrr.Set, slots)
	imm.GenerateSlots(g, rrr.ListOnlyPolicy(), e.poolSeed(1), 0, sets)
	var members [][]int32
	var rawBytes int64
	for _, s := range sets {
		v := s.Vertices(nil)
		members = append(members, v)
		rawBytes += 4 * int64(len(v))
	}
	var plain [][]byte
	enc, _ := timeN(9, func() error {
		plain = plain[:0]
		for _, v := range members {
			plain = append(plain, compress.AppendPlain(nil, v))
		}
		return nil
	})
	dec, err := timeN(9, func() error {
		for _, p := range plain {
			v, err := compress.DecodePlain(p, nil)
			if err != nil {
				return err
			}
			sink += uint64(len(v))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["compress.plain_encode_mb_s"] = mbPerSec(rawBytes, enc)
	m["compress.plain_decode_mb_s"] = mbPerSec(rawBytes, dec)

	reply := wire.RoundReply{Members: rawBytes / 4, Sets: plain}
	var frame []byte
	enc, _ = timeN(9, func() error { frame = wire.EncodeRoundReply(reply); return nil })
	dec, err = timeN(9, func() error { _, err := wire.DecodeRoundReply(frame); return err })
	if err != nil {
		return err
	}
	m["wire.roundreply_encode_mb_s"] = mbPerSec(int64(len(frame)), enc)
	m["wire.roundreply_decode_mb_s"] = mbPerSec(int64(len(frame)), dec)

	// Frames over loopback TCP: the writer's time is the CRC plus the
	// socket write, the reader's the read plus the CRC check.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	const frames = 64
	payload := bytes.Repeat(frame, 1+(1<<20)/len(frame)) // about 1 MiB
	type readResult struct {
		wall time.Duration
		err  error
	}
	done := make(chan readResult, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			done <- readResult{err: err}
			return
		}
		rc := wire.NewConn(c, 30*time.Second, nil)
		defer rc.Close()
		var wall time.Duration
		for i := 0; i < frames; i++ {
			t0 := time.Now()
			if _, _, err := rc.ReadFrame(); err != nil {
				done <- readResult{err: err}
				return
			}
			wall += time.Since(t0)
		}
		done <- readResult{wall: wall}
	}()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return err
	}
	wc := wire.NewConn(c, 30*time.Second, nil)
	defer wc.Close()
	var wwall time.Duration
	for i := 0; i < frames; i++ {
		t0 := time.Now()
		if err := wc.WriteFrame(wire.MsgRoundReply, payload); err != nil {
			return err
		}
		wwall += time.Since(t0)
	}
	rr := <-done
	if rr.err != nil {
		return rr.err
	}
	total := float64(frames) * float64(len(payload)) / 1e9
	m["wire.frame_write_gb_s"] = total / wwall.Seconds()
	m["wire.frame_read_gb_s"] = total / rr.wall.Seconds()
	return nil
}

// probeDist times one fixed generation round against a live rank, the
// first-contact graph ship on a fresh connection, and the simulated
// runtime against the networked one on the same options.
func probeDist(e *env, w *clusterWorkload, m map[string]float64) error {
	defer e.probe("dist")()
	g, cl := w.refG, w.st.cluster
	seed := e.poolSeed(clusterSeeds + 1) // a seed no op used
	const chunk = 2048
	// The probe's first Round ships g under this hint; time it apart.
	t0 := time.Now()
	if _, err := cl.Round(1, g, "probe", seed, 0, chunk, false); err != nil {
		return err
	}
	first := ms(time.Since(t0))
	lo := int64(chunk)
	round, err := timeN(15, func() error {
		_, err := cl.Round(1, g, "probe", seed, lo, chunk, false)
		lo += chunk
		return err
	})
	if err != nil {
		return err
	}
	m["dist.round_ms"] = round
	m["dist.share_graph_ms"] = first - round

	opt := dist.Options{Options: w.opt.EngineOptions(), Ranks: clusterRanks + 1}
	opt.K, opt.Epsilon, opt.Seed = baseShape.k, baseShape.eps, seed
	var simSeeds, netSeeds []int32
	if m["dist.sim_run_ms"], err = timeN(5, func() error {
		res, err := dist.Run(g, opt)
		if err == nil {
			simSeeds = res.Seeds
		}
		return err
	}); err != nil {
		return err
	}
	if m["dist.cluster_run_ms"], err = timeN(5, func() error {
		res, err := dist.RunCluster(g, opt, cl)
		if err == nil {
			netSeeds = res.Seeds
		}
		return err
	}); err != nil {
		return err
	}
	if fmt.Sprint(simSeeds) != fmt.Sprint(netSeeds) {
		return fmt.Errorf("dist.Run and RunCluster disagree on seeds")
	}
	if cl.Failovers() != 0 {
		return fmt.Errorf("dist probes caused %d failovers", cl.Failovers())
	}
	return nil
}
