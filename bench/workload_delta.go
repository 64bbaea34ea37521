package main

// delta-churn: the write path beside the read path. Each op sends a small
// delta (see churnRate) and then a query, and its latency is delta sent -> post-delta
// answer received: graph.ApplyDelta builds a new CSR epoch, the warm pool
// is repaired in place, and the query reads the repaired pool. An index
// layout that speeds reads but slows repair shows up here only.

import (
	"fmt"
	"time"

	efficientimm "repro"
)

const (
	deltaBatches = 1024 // pre-generated; far more than a run can send
	verifyEvery  = 10   // every 10th post-delta answer, and the last, meets the oracle
)

// deltaRequest is the POST /v1/graphs/{g}/edges body (serve.DeltaRequest).
type deltaRequest struct {
	Add     [][2]int32 `json:"add"`
	AddProb []float32  `json:"add_prob"`
	Remove  [][2]int32 `json:"remove"`
}

// delta is the same change as the library type, for the oracle's replay
// and the probes.
func (b deltaRequest) delta() efficientimm.Delta {
	d := efficientimm.Delta{AddProb: b.AddProb}
	for _, ed := range b.Add {
		d.Add = append(d.Add, efficientimm.Edge{Src: ed[0], Dst: ed[1]})
	}
	for _, ed := range b.Remove {
		d.Remove = append(d.Remove, efficientimm.Edge{Src: ed[0], Dst: ed[1]})
	}
	return d
}

type deltaWorkload struct {
	served
	batches []deltaRequest
	sent    int // deltas applied to the live server since its set-up
}

func (w *deltaWorkload) prepare(e *env) error {
	if err := w.prepareGraph(e); err != nil {
		return err
	}
	taken := map[[2]int32]bool{}
	// No edge is touched twice, so a shrunken test graph bounds the count.
	for i := 0; i < deltaBatches && 8*int64(i) < w.refG.M; i++ {
		w.batches = append(w.batches, e.churnDelta(w.refG, taken))
	}
	return nil
}

func (w *deltaWorkload) setup(e *env) error {
	w.sent = 0
	if err := w.bringUp(e); err != nil {
		return err
	}
	return w.prewarm(e, 1, baseShape)
}

// op sends the next delta, then the query, through the router.
func (w *deltaWorkload) op(e *env) (time.Duration, *efficientimm.QueryResult, error) {
	if w.sent >= len(w.batches) {
		return 0, nil, fmt.Errorf("ran out of pre-generated deltas after %d", w.sent)
	}
	req := w.request(e, 1, baseShape)
	t0 := time.Now()
	var dres efficientimm.ServeDeltaResult
	path := "/v1/graphs/" + graphName + "/edges"
	b := w.batches[w.sent]
	if err := w.st.post(path, "POST "+path, b, &dres); err != nil {
		return 0, nil, err
	}
	w.sent++
	if dres.Added != int64(len(b.Add)) || dres.Removed != int64(len(b.Remove)) || dres.FullResamples != 0 {
		return 0, nil, fmt.Errorf("delta %d added %d/%d and removed %d/%d edges with %d full resamples",
			w.sent, dres.Added, len(b.Add), dres.Removed, len(b.Remove), dres.FullResamples)
	}
	res, err := w.st.query(req)
	return time.Since(t0), res, err
}

func (w *deltaWorkload) warmup(e *env) error {
	for i := 0; i < 3; i++ {
		if _, _, err := w.op(e); err != nil {
			return err
		}
	}
	w.openWindow()
	return nil
}

func (w *deltaWorkload) run(e *env, d time.Duration) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for time.Since(start) < d {
		lat, res, err := w.op(e)
		ph.attempted++
		if err != nil {
			ph.failed++
			continue
		}
		ph.answered(start, lat)
		w.keep(record(w.request(e, 1, baseShape), w.sent, res))
	}
	ph.wall = time.Since(start)
	return ph, nil
}

// verify replays the deltas on the oracle's own graph (graph.ApplyDelta,
// outside the timed window) and checks every verifyEvery-th answer and the
// last against a cold Run on that epoch's graph.
func (w *deltaWorkload) verify(e *env) (int, error) {
	if st := w.st.srv.Stats(); st.FullResamples != 0 || st.Rejected != 0 {
		return 0, fmt.Errorf("full_resamples=%d rejected=%d, want 0", st.FullResamples, st.Rejected)
	}
	var sample []answer
	for i, a := range w.answers {
		if i%verifyEvery == verifyEvery-1 || i == len(w.answers)-1 {
			sample = append(sample, a)
		}
	}
	g := w.refG
	w.orc.graphs = make([]*efficientimm.Graph, w.sent+1)
	w.orc.graphs[0] = g
	need := map[int]bool{}
	for _, a := range sample {
		need[a.epoch] = true
	}
	for i := 0; i < w.sent; i++ {
		ng, _, err := efficientimm.ApplyDelta(g, w.batches[i].delta(), efficientimm.DeltaApplyOptions{Strict: true})
		if err != nil {
			return 0, fmt.Errorf("oracle delta %d: %w", i+1, err)
		}
		g = ng
		if need[i+1] {
			w.orc.graphs[i+1] = g
		}
	}
	return w.orc.check(sample)
}

func (w *deltaWorkload) probes(e *env, m map[string]float64) error {
	ingestMetrics(w.ingest, m)
	serveCounters(w.statsBefore, w.st.srv.Stats(), m)
	if err := probeSnapshotCodec(e, w.refG, m); err != nil {
		return err
	}
	probeRouteOwner(e, w.st.router, m)
	return probeDelta(e, w, m)
}
