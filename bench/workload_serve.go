package main

// serve-warm and serve-open, plus what every served workload shares: the
// graph pipeline (ingest -> weighted cascade -> .imsnap -> AddSnapshot),
// the stack, answer recording and the stats window.
//
// serve-warm is the case the serving stack exists for: two waiting clients,
// pools already warm, so generation does nothing and warm selection,
// planner, JSON and the router hop are the whole cost. serve-open sends the
// same mix on a schedule instead, with same-instant pairs: independent
// users make an open loop, and only there do the gather window, the shared
// batch path and the admission queue see traffic.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	efficientimm "repro"
)

const (
	graphName = "g"
	// openRate is the serve-open arrival rate in requests per second: the
	// issue's 8. No file of the repository records an arrival rate, so this
	// is a load level, not observed traffic: with the pairs it offers under
	// a fifth of what serve-warm's closed loop sustains on the reference
	// box, so the median request meets an idle server and the tail queues
	// or is a pair. (Waiting grows faster than load: at 15/s the p50 of six
	// runs ranged over 24-34 ms, at 25/s over 32-42 ms, at 8/s over 24-28.)
	// pairEvery is the issue's one pair per eight arrivals.
	openRate  = 8
	pairEvery = 8
)

// served is the state every HTTP workload shares.
type served struct {
	edgeList string
	snap     string
	refG     *efficientimm.Graph // the bench's own load of the same inputs, for the oracle
	opt      efficientimm.ServeOptions
	nranks   int

	st     *stack
	ingest efficientimm.IngestStats
	orc    *oracle

	mu      sync.Mutex
	answers []answer

	statsBefore efficientimm.ServeStats
}

// prepareGraph writes the edge list and loads the oracle's copy. Untimed.
func (s *served) prepareGraph(e *env) (err error) {
	if s.edgeList, err = e.writeEdgeList(serveWC); err != nil {
		return err
	}
	s.snap = filepath.Join(e.tmp, graphName+efficientimm.SnapshotExt)
	if s.refG, _, err = loadGraph(s.edgeList, serveWC, e.seed); err != nil {
		return err
	}
	s.opt.Workers = engineWorkers
	s.orc = newOracle(s.opt, s.refG)
	return nil
}

// bringUp is the system-side set-up every served workload starts with:
// ingest the edge list, write the snapshot, boot ranks, node and router,
// register the snapshot.
func (s *served) bringUp(e *env) error {
	g, st, err := loadGraph(s.edgeList, serveWC, e.seed)
	if err != nil {
		return err
	}
	s.ingest = st
	if err := efficientimm.WriteSnapshotFile(s.snap, g, e.seed); err != nil {
		return err
	}
	if s.st, err = bootStack(s.opt, s.nranks, e.tr); err != nil {
		return err
	}
	_, err = s.st.srv.AddSnapshot(graphName, s.snap)
	return err
}

func (s *served) teardown() {
	if s.st != nil {
		s.st.close()
		s.st = nil
	}
}

func (s *served) request(e *env, pool int, sh shape) efficientimm.QueryRequest {
	return efficientimm.QueryRequest{Graph: graphName, K: sh.k, Epsilon: sh.eps, Seed: e.poolSeed(pool)}
}

// prewarm builds pools 1..n at the warm shape through the router.
func (s *served) prewarm(e *env, n int, sh shape) error {
	for pool := 1; pool <= n; pool++ {
		if _, err := s.st.query(s.request(e, pool, sh)); err != nil {
			return fmt.Errorf("pre-warm pool %d: %w", pool, err)
		}
	}
	return nil
}

func (s *served) keep(a ...answer) {
	s.mu.Lock()
	s.answers = append(s.answers, a...)
	s.mu.Unlock()
}

// openWindow marks where the stats counters stood when timing began.
func (s *served) openWindow() { s.statsBefore = s.st.srv.Stats() }

func (s *served) poolBytes() int64 {
	st := s.st.srv.Stats()
	return st.PoolBytes + st.DiskBytes
}

// requireNoGeneration is the invariant of the warm workloads: a timed
// query that generated sets measured generation, not warm selection.
func (s *served) requireNoGeneration() error {
	for _, a := range s.answers {
		if a.generated != 0 || !a.warm {
			return fmt.Errorf("query k=%d eps=%g seed=%d generated %d sets (warm=%v); the workload requires 0",
				a.req.K, a.req.Epsilon, a.req.Seed, a.generated, a.warm)
		}
	}
	return nil
}

type serveWorkload struct {
	served
	open  bool
	pairs int // same-instant pairs the open loop's schedules held
}

func (w *serveWorkload) prepare(e *env) error { return w.prepareGraph(e) }

func (w *serveWorkload) setup(e *env) error {
	if err := w.bringUp(e); err != nil {
		return err
	}
	return w.prewarm(e, clientConns, baseShape)
}

func (w *serveWorkload) warmup(e *env) error {
	// Every shape the timed phase asks: the pools are grown here to what
	// the hungriest one needs, so no timed query has to generate.
	for _, sh := range queryShapes() {
		for pool := 1; pool <= clientConns; pool++ {
			if _, err := w.st.query(w.request(e, pool, sh)); err != nil {
				return err
			}
		}
	}
	w.openWindow()
	return nil
}

func (w *serveWorkload) run(e *env, d time.Duration) (*phase, error) {
	if w.open {
		return w.runOpen(e, d)
	}
	return w.runClosed(e, d)
}

// runClosed: two clients, each with its own pool and its own deck of the
// mix, each sending its next query when the previous one is answered. A
// client reshuffles its deck every time it has dealt it out: with one fixed
// order per client the two fell into a repeating pattern of who waits
// behind whom, the pattern differed from seed to seed, and the p50, which
// lies between "ran alone" and "waited", moved 18% with it while ops/s
// moved 4%.
func (w *serveWorkload) runClosed(e *env, d time.Duration) (*phase, error) {
	decks := make([][]shape, clientConns)
	rnds := make([]*rand.Rand, clientConns)
	for c := range decks {
		decks[c] = queryShapes()
		rnds[c] = rand.New(rand.NewSource(e.rnd.Int63()))
	}
	phases := make([]phase, clientConns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ph := &phases[c]
			var got []answer
			deck := decks[c]
			for i := 0; time.Since(start) < d; i++ {
				if i%len(deck) == 0 {
					rnds[c].Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
				}
				req := w.request(e, c+1, deck[i%len(deck)])
				t0 := time.Now()
				res, err := w.st.query(req)
				lat := time.Since(t0)
				ph.attempted++
				if err != nil {
					ph.failed++
					continue
				}
				ph.answered(start, lat)
				got = append(got, record(req, 0, res))
			}
			w.keep(got...)
		}(c)
	}
	wg.Wait()
	out := &phase{wall: time.Since(start)}
	for i := range phases {
		out.merge(&phases[i])
	}
	return out, nil
}

// runOpen: arrivals on a seeded schedule (see arrivalSchedule). Two senders share the
// schedule; each takes the next arrival, waits until it is due, sends.
// Latency counts from the due time, so a stall is charged to everyone it
// delays, and how late each send actually left is reported beside it.
func (w *serveWorkload) runOpen(e *env, d time.Duration) (*phase, error) {
	sched := e.arrivalSchedule(graphName, openRate, d, pairEvery)
	for i := 1; i < len(sched); i++ {
		if sched[i].due == sched[i-1].due {
			w.pairs++
		}
	}
	phases := make([]phase, clientConns)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ph := &phases[c]
			var got []answer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					break
				}
				a := sched[i]
				if wait := a.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				res, err := w.st.query(a.q)
				done := time.Since(start)
				ph.attempted++
				if err != nil {
					ph.failed++
					continue
				}
				ph.answered(start, done-a.due)
				ph.late = append(ph.late, sent-a.due)
				got = append(got, record(a.q, 0, res))
			}
			w.keep(got...)
		}(c)
	}
	wg.Wait()
	out := &phase{wall: time.Since(start)}
	for i := range phases {
		out.merge(&phases[i])
	}
	return out, nil
}

func (w *serveWorkload) verify(e *env) (int, error) {
	if err := w.requireNoGeneration(); err != nil {
		return 0, err
	}
	st := w.st.srv.Stats()
	if !w.open && st.Rejected != 0 {
		return 0, fmt.Errorf("closed loop saw %d admission rejections", st.Rejected)
	}
	// A run too short to schedule a handful of pairs asserts nothing here.
	if w.open && e.scaleShift == 0 && w.pairs >= 4 && st.MaxBatchSize < 2 {
		return 0, fmt.Errorf("no same-instant pair reached a shared batch (max_batch_size=%d)", st.MaxBatchSize)
	}
	return w.orc.check(w.answers)
}

func (w *serveWorkload) probes(e *env, m map[string]float64) error {
	ingestMetrics(w.ingest, m)
	serveCounters(w.statsBefore, w.st.srv.Stats(), m)
	if err := probeSnapshotCodec(e, w.refG, m); err != nil {
		return err
	}
	probeRouteOwner(e, w.st.router, m)
	if w.open {
		return nil
	}
	if err := probeWarmEngine(e, w.refG, w.opt, m); err != nil {
		return err
	}
	if err := probeInproc(e, w.st.srv, w.request(e, 1, baseShape), m); err != nil {
		return err
	}
	probeSched(e, m)
	return nil
}
