package main

// cluster-cold: the full chain, immrouter -> immserver -> planner ->
// WarmEngine -> wire ranks, and the latency a tenant's first query pays.
// Every op names an RNG seed whose pool is not resident, so the node
// builds a new pool with two thirds of its slots generated by the two
// worker ranks: wire framing and CRC, the set codec and dist chunking are
// on the critical path, selection is minor.

import (
	"fmt"
	"time"

	efficientimm "repro"
)

const (
	clusterRanks = 2
	// The ops cycle through this many RNG seeds under a RAM budget of
	// clusterBudgetPools pools (no disk tier), so by the time a seed comes
	// round again its pool was evicted long ago: every op is cold, and the
	// oracle needs only this many references.
	clusterSeeds = 16
	// Half a pool of slack keeps the resident count at four whatever the
	// seed-to-seed difference in pool size.
	clusterBudgetPools = 4.5
)

type clusterWorkload struct {
	served
	next int // seed cursor, continues across phases
}

// onePoolBytes asks a throwaway in-process server what one pool of the
// given shape weighs, so budgets can be stated in pools.
func onePoolBytes(e *env, g *efficientimm.Graph, sh shape) (int64, error) {
	srv := efficientimm.NewServer(efficientimm.ServeOptions{Workers: engineWorkers})
	if _, err := srv.AddGraph(graphName, g, e.seed); err != nil {
		return 0, err
	}
	res, err := srv.Query(efficientimm.QueryRequest{Graph: graphName, K: sh.k, Epsilon: sh.eps, Seed: e.poolSeed(1)})
	if err != nil {
		return 0, err
	}
	return res.PoolBytes, nil
}

func (w *clusterWorkload) prepare(e *env) error {
	w.nranks = clusterRanks
	if err := w.prepareGraph(e); err != nil {
		return err
	}
	one, err := onePoolBytes(e, w.refG, baseShape)
	if err != nil {
		return err
	}
	w.opt.PoolBudgetBytes = int64(clusterBudgetPools * float64(one))
	return nil
}

func (w *clusterWorkload) setup(e *env) error {
	if err := w.bringUp(e); err != nil {
		return err
	}
	// First contact ships the graph to both ranks; a tenant pays that
	// once per graph, so it belongs to set-up, not to an op.
	_, err := w.op(e)
	return err
}

func (w *clusterWorkload) op(e *env) (answer, error) {
	req := w.request(e, 1+w.next%clusterSeeds, baseShape)
	w.next++
	res, err := w.st.query(req)
	if err != nil {
		return answer{}, err
	}
	return record(req, 0, res), nil
}

func (w *clusterWorkload) warmup(e *env) error {
	for i := 0; i < 3; i++ {
		if _, err := w.op(e); err != nil {
			return err
		}
	}
	w.openWindow()
	return nil
}

func (w *clusterWorkload) run(e *env, d time.Duration) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		a, err := w.op(e)
		lat := time.Since(t0)
		ph.attempted++
		if err != nil {
			ph.failed++
			continue
		}
		ph.answered(start, lat)
		w.keep(a)
	}
	ph.wall = time.Since(start)
	return ph, nil
}

func (w *clusterWorkload) verify(e *env) (int, error) {
	for _, a := range w.answers {
		// On a shrunken graph pools differ too much in size for the
		// budget to evict reliably.
		if e.scaleShift == 0 && (a.warm || a.generated == 0) {
			return 0, fmt.Errorf("query on seed %d was warm (generated %d sets); every op must build its pool", a.req.Seed, a.generated)
		}
	}
	st := w.st.srv.Stats()
	if st.RemoteFailovers != 0 || st.Rejected != 0 {
		return 0, fmt.Errorf("remote_failovers=%d rejected=%d, want 0", st.RemoteFailovers, st.Rejected)
	}
	if st.WireMessages == w.statsBefore.WireMessages {
		return 0, fmt.Errorf("no wire traffic in the timed phase: the ranks did no work")
	}
	return w.orc.check(w.answers)
}

// poolBytes is the median footprint of the pools the ops built. The total
// resident is whatever the budget allows (a setting, and it flips between
// four and five pools with the seeds' pool sizes); what one tenant's pool
// weighs is the measurement.
func (w *clusterWorkload) poolBytes() int64 {
	var xs []float64
	for _, a := range w.answers {
		xs = append(xs, float64(a.poolBytes))
	}
	return int64(median(xs))
}

func (w *clusterWorkload) probes(e *env, m map[string]float64) error {
	ingestMetrics(w.ingest, m)
	after := w.st.srv.Stats()
	serveCounters(w.statsBefore, after, m)
	if err := probeSnapshotCodec(e, w.refG, m); err != nil {
		return err
	}
	probeRouteOwner(e, w.st.router, m)

	m["wire.messages"] = float64(after.WireMessages - w.statsBefore.WireMessages)
	m["dist.failovers"] = float64(after.RemoteFailovers)
	// Workers generate (ranks-1)/ranks of every extension and ship it back.
	ranks := float64(clusterRanks + 1)
	if remote := float64(after.GeneratedSets-w.statsBefore.GeneratedSets) * (ranks - 1) / ranks; remote > 0 {
		m["wire.bytes_per_set"] = float64(after.WireBytesReceived-w.statsBefore.WireBytesReceived) / remote
	}
	if err := probeWire(e, w.refG, m); err != nil {
		return err
	}
	return probeDist(e, w, m)
}
