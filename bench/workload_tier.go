package main

// tier-rotate: the promote leg of harness.TierSweep, over and over. Four
// tenants (RNG seeds) share a RAM budget of 2.5 pools, as there, and the
// default query goes round-robin, so every op finds its pool demoted:
// it is promoted from its .impool snapshot (mmap, CRC, validate, thaw) and
// another is demoted (freeze, write). Generation does nothing; the codec
// and serve/tier.go do most of each op. A stress case, the LRU's worst:
// the share of queries that promote is 1 here, and asserted. The client
// pauses between ops (see thinkTime).

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	efficientimm "repro"
)

const (
	// TierSweep overflows a 2.5-pool budget with three tenants. Here RAM
	// holds the same 2.5 pools, of four tenants': budgetShare of what the
	// four weigh once they have been through the disk tier. (TierSweep
	// states its budget in freshly built pools. A fresh pool's accounted
	// size depends on which worker's arena took which set and differed by
	// a fifth between two runs of one seed, and a promoted pool is accounted
	// at about 0.8 of a fresh one: a budget of 2.5 fresh pools held three
	// promoted pools on most runs and all four on some, and then nothing
	// rotated. A promoted pool's size is read from its file and repeats.)
	tenants     = 4
	budgetShare = 2.5 / tenants
	restarts    = 5
)

type tierWorkload struct {
	served
	next   int     // round-robin cursor, continues across phases
	rotP50 float64 // p50 of the untraced rotating phase, for serve.rotate_overhead_ms
}

// promotedBytes builds the tenants' pools on a throwaway in-process server,
// saves them, and promotes them all on a second one with room for them: the
// resident bytes of the whole working set after a trip through the disk tier.
func (w *tierWorkload) promotedBytes(e *env) (int64, error) {
	opt := w.opt
	opt.PoolBudgetBytes = 0 // the default: room for all of them
	opt.PoolDir = filepath.Join(e.tmp, "sizing-pools")
	if err := os.MkdirAll(opt.PoolDir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(opt.PoolDir)
	var srv *efficientimm.Server
	askAll := func() error {
		srv = efficientimm.NewServer(opt)
		if _, err := srv.AddGraph(graphName, w.refG, e.seed); err != nil {
			return err
		}
		if _, err := srv.LoadPools(); err != nil {
			return err
		}
		for pool := 1; pool <= tenants; pool++ {
			if _, err := srv.Query(w.request(e, pool, baseShape)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := askAll(); err != nil { // nothing to load yet: builds them
		return 0, err
	}
	if _, err := srv.SavePools(""); err != nil {
		return 0, err
	}
	if err := askAll(); err != nil { // promotes them
		return 0, err
	}
	st := srv.Stats()
	if st.Promotions != tenants {
		return 0, fmt.Errorf("sizing: %d of %d pools were promoted", st.Promotions, tenants)
	}
	return st.PoolBytes, nil
}

func (w *tierWorkload) prepare(e *env) error {
	if err := w.prepareGraph(e); err != nil {
		return err
	}
	all, err := w.promotedBytes(e)
	if err != nil {
		return err
	}
	w.opt.PoolBudgetBytes = int64(budgetShare * float64(all))
	w.opt.PoolDir = filepath.Join(e.tmp, "pools")
	return nil
}

func (w *tierWorkload) setup(e *env) error {
	if err := os.RemoveAll(w.opt.PoolDir); err != nil {
		return err
	}
	if err := os.MkdirAll(w.opt.PoolDir, 0o755); err != nil {
		return err
	}
	if err := w.bringUp(e); err != nil {
		return err
	}
	return w.prewarm(e, tenants, baseShape)
}

func (w *tierWorkload) warmup(e *env) error {
	// One full rotation: afterwards every tenant has been through the
	// disk tier once and the LRU is in its steady worst-case order.
	if err := w.prewarm(e, tenants, baseShape); err != nil {
		return err
	}
	w.openWindow()
	return nil
}

// thinkTime is how long the client waits after each answer. At full speed
// the rotation writes 30 MB/s of pool files, and on the reference box the
// file system answers such a stream with a step of +13 ms per write that
// arrives 4 to 10 s into a run, earlier and larger when runs follow each
// other: where the step fell decided the run's percentiles (p90 between
// 44 and 109 ms over ten runs of the same code). Paced to about 8 ops/s
// the rotation writes 9 MB/s and the disk's share of an op repeats. The
// rotation is a stress case at any pace; this one can be measured.
const thinkTime = 90 * time.Millisecond

func (w *tierWorkload) run(e *env, d time.Duration) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for time.Since(start) < d {
		req := w.request(e, 1+w.next%tenants, baseShape)
		w.next++
		t0 := time.Now()
		res, err := w.st.query(req)
		lat := time.Since(t0)
		ph.attempted++
		if err != nil {
			ph.failed++
			continue
		}
		ph.answered(start, lat)
		w.keep(record(req, 0, res))
		time.Sleep(thinkTime)
	}
	ph.wall = time.Since(start)
	if !e.tr.enabled() {
		w.rotP50 = ph.p50()
	}
	return ph, nil
}

func (w *tierWorkload) verify(e *env) (int, error) {
	if err := w.requireNoGeneration(); err != nil {
		return 0, err
	}
	st := w.st.srv.Stats()
	if st.PromoteFailures != 0 || st.Rejected != 0 {
		return 0, fmt.Errorf("promote_failures=%d rejected=%d, want 0", st.PromoteFailures, st.Rejected)
	}
	if got := st.Promotions - w.statsBefore.Promotions; e.scaleShift == 0 && got < int64(len(w.answers)) {
		return 0, fmt.Errorf("%d promotions for %d timed ops: the rotation is not hitting the disk tier", got, len(w.answers))
	}
	return w.orc.check(w.answers)
}

func (w *tierWorkload) probes(e *env, m map[string]float64) error {
	ingestMetrics(w.ingest, m)
	serveCounters(w.statsBefore, w.st.srv.Stats(), m)
	if err := probeSnapshotCodec(e, w.refG, m); err != nil {
		return err
	}
	probeRouteOwner(e, w.st.router, m)
	if err := probePoolCodec(e, w.refG, w.opt, e.poolSeed(1), m); err != nil {
		return err
	}

	// Hot p50: the same tenant over and over, so nothing rotates. The
	// difference to the rotating p50 is what the disk tier costs per op.
	done := e.probe("serve.rotate_overhead_ms")
	var hot []float64
	req := w.request(e, 1, baseShape)
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		if _, err := w.st.query(req); err != nil {
			return err
		}
		if i >= 2 { // the first two promote and settle the LRU
			hot = append(hot, ms(time.Since(t0)))
		}
	}
	done()
	m["serve.rotate_overhead_ms"] = w.rotP50 - median(hot)

	return w.probeRestart(e, m)
}

// probeRestart measures, five times: SavePools on the live server, then a
// new Server on the same PoolDir + AddSnapshot + LoadPools -> first warm
// answer. The answer must be warm, generate nothing and match the oracle.
func (w *tierWorkload) probeRestart(e *env, m map[string]float64) error {
	defer e.probe("serve.restart_ms")()
	req := w.request(e, 1, baseShape)
	var save, load, restart []float64
	for i := 0; i < restarts; i++ {
		t0 := time.Now()
		if _, err := w.st.srv.SavePools(""); err != nil {
			return fmt.Errorf("SavePools: %w", err)
		}
		save = append(save, ms(time.Since(t0)))

		t0 = time.Now()
		srv := efficientimm.NewServer(w.opt)
		if _, err := srv.AddSnapshot(graphName, w.snap); err != nil {
			return err
		}
		tl := time.Now()
		n, err := srv.LoadPools()
		if err != nil {
			return fmt.Errorf("LoadPools: %w", err)
		}
		load = append(load, ms(time.Since(tl)))
		res, err := srv.Query(req)
		if err != nil {
			return err
		}
		restart = append(restart, ms(time.Since(t0)))
		same, err := w.orc.matches(0, req, res.Seeds, res.Theta)
		if err != nil {
			return err
		}
		if n != tenants || !res.Warm || res.GeneratedSets != 0 || !same {
			return fmt.Errorf("restart %d: rehydrated %d/%d pools, warm=%v generated=%d, matches oracle=%v",
				i, n, tenants, res.Warm, res.GeneratedSets, same)
		}
	}
	m["serve.savepools_ms"] = median(save)
	m["serve.loadpools_ms"] = median(load)
	m["serve.restart_ms"] = median(restart)
	return nil
}
