package main

// One workload, one process: set-up (timed, repeated for a median),
// untimed warm-up, the timed phase, then verification outside the timed
// window. A traced run splits the timed phase in quarters, spans off, on,
// on, off, so trace.overhead_pct compares like with like in one process,
// and runs the workload's per-layer probes afterwards.

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// engineWorkers is the engine parallelism every workload uses: the
// reference box shows two CPUs, so a user's engine runs two workers, with
// the fork-join, per-worker arenas and merges that go with them.
const engineWorkers = 2

// procs is the GOMAXPROCS of the benchmark process: one. The box's second
// CPU is not one to count on: two busy threads finish twice the work of one
// in anything between 1.0 and 2.0 times the time, and which it is changes by
// the minute (two vCPUs, at times on one core of the host). With two Ps
// every timing followed that: serve-warm's p50 drifted from 21 to 30 ms over
// ten back-to-back runs, and back. On one P the same ten runs stay within
// 2%. So the two workers, the clients, the router and the node take turns
// on one core, and a latency here is the CPU time a request's whole path
// costs plus its waits for that one core. What this cannot show is how
// well the work spreads over cores.
const procs = 1

// Set-up runs at least setupRepsMin times in an untraced run, and then
// again until an eighth of the timed phase's length is spent: setup_s is
// the median, and a millisecond set-up needs many more repeats than a
// 300 ms one to be steady.
const (
	setupRepsMin     = 3
	setupRepsMax     = 101
	setupBudgetShare = 8
)

// phase is what one timed pass produced.
type phase struct {
	lat       []time.Duration // latency of each op that got an answer
	at        []time.Duration // when each of those answers arrived, from the phase's start
	wall      time.Duration
	attempted int
	failed    int // transport errors, refusals, oracle mismatches
	proc      procSample
	late      []time.Duration // open loop: how late each send left
}

func (p *phase) p50() float64 { return median(durationsMS(p.lat)) }

// answered records one op that got an answer, lat after it was sent (or due).
func (p *phase) answered(start time.Time, lat time.Duration) {
	p.lat = append(p.lat, lat)
	p.at = append(p.at, time.Since(start))
}

// merge folds one client's share of a phase into the whole.
func (p *phase) merge(c *phase) {
	p.lat = append(p.lat, c.lat...)
	p.at = append(p.at, c.at...)
	p.late = append(p.late, c.late...)
	p.attempted += c.attempted
	p.failed += c.failed
}

// extend appends a later phase: its answers arrive after everything so far.
func (p *phase) extend(next *phase) {
	for i := range next.at {
		next.at[i] += p.wall
	}
	p.merge(next)
	p.wall += next.wall
	p.proc.cpu += next.proc.cpu
	p.proc.mallocs += next.proc.mallocs
	p.proc.gcCPU += next.proc.gcCPU
	p.proc.allCPU += next.proc.allCPU
}

// windows is how many equal slices of the timed phase a run's latencies
// are also printed over, and loadgen.calm_p50_ms / calm_p90_ms are taken
// from. The end-to-end timings are whole-phase figures; the windows show
// whether a run drifted or stalled.
const windows = 5

// calmest returns the lowest window p50 and the lowest window p90: what
// the run measured while nothing interfered. A per-layer diagnostic, so
// that a reader can tell interference on the box from a slower program.
func (p *phase) calmest() (p50, p90 float64) {
	p50, p90 = math.Inf(1), math.Inf(1)
	for _, lat := range p.byWindow() {
		// A window with a handful of answers has no percentile worth
		// comparing; a stall that empties a window is not a calm one.
		if len(lat) >= len(p.lat)/(2*windows) && len(lat) > 0 {
			p50 = math.Min(p50, quantile(lat, 0.5))
			p90 = math.Min(p90, quantile(lat, 0.9))
		}
	}
	return p50, p90
}

// byWindow splits the answered ops' latencies (ms) by arrival window.
func (p *phase) byWindow() [][]float64 {
	span := p.wall / windows
	byWin := make([][]float64, windows)
	for i, at := range p.at {
		w := int(at / span)
		if w >= windows {
			w = windows - 1
		}
		byWin[w] = append(byWin[w], ms(p.lat[i]))
	}
	return byWin
}

// impl is what a workload provides. setup/teardown bracket the system
// under test; run executes ops until the deadline and records what is
// needed to verify them later.
type impl interface {
	// prepare generates inputs from the seed. Untimed.
	prepare(e *env) error
	// setup brings the system up from its inputs: this is setup_s.
	setup(e *env) error
	teardown()
	// warmup runs at least one op so lazy set-up and heap growth finish.
	warmup(e *env) error
	// run is the timed phase: ops until d has elapsed.
	run(e *env, d time.Duration) (*phase, error)
	// verify checks recorded answers against the oracle and the
	// workload's invariants. It returns how many answers were wrong;
	// a broken invariant is an error: the run measured something else.
	verify(e *env) (wrong int, err error)
	// poolBytes is what the system holds resident to answer, at end of run.
	poolBytes() int64
	// probes measures the workload's per-layer metrics into m. Traced runs only.
	probes(e *env, m map[string]float64) error
}

func newImpl(name string) (impl, error) {
	switch name {
	case "cold-ic-dense":
		return &coldWorkload{spec: denseIC}, nil
	case "cold-lt-sparse":
		return &coldWorkload{spec: sparseLT}, nil
	case "serve-warm":
		return &serveWorkload{}, nil
	case "serve-open":
		return &serveWorkload{open: true}, nil
	case "tier-rotate":
		return &tierWorkload{}, nil
	case "delta-churn":
		return &deltaWorkload{}, nil
	case "cluster-cold":
		return &clusterWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload executes one workload and returns its result line. Progress
// and the human-readable table go to w.
func runWorkload(e *env, w io.Writer) (*result, error) {
	wl, err := newImpl(e.workload)
	if err != nil {
		return nil, err
	}
	if err := e.mkTmp(); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.tmp)
	if e.trace {
		e.tr = newTracer()
	}
	if err := wl.prepare(e); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	// Set-up, repeated. A traced run reports no setup_s and sets up once.
	total := time.Duration(e.seconds * float64(time.Second))
	var setups []time.Duration
	var spent time.Duration
	for {
		t0 := time.Now()
		if err := wl.setup(e); err != nil {
			wl.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		setups = append(setups, d)
		spent += d
		if e.trace || len(setups) >= setupRepsMax || (len(setups) >= setupRepsMin && spent >= total/setupBudgetShare) {
			break
		}
		wl.teardown()
	}
	defer wl.teardown()

	if err := wl.warmup(e); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// An untraced run is one phase. A traced run is four quarters, spans
	// off-on-on-off: a workload whose latency drifts over the run (and two
	// do) then shifts both halves alike, and trace.overhead_pct compares
	// spans with no spans, not late with early.
	plain, traced := &phase{}, &phase{}
	quarters := []bool{false}
	if e.trace {
		quarters = []bool{false, true, true, false}
	}
	for _, on := range quarters {
		if e.trace {
			e.tr.on.Store(on)
		}
		ph, err := timedPhase(wl, e, total/time.Duration(len(quarters)))
		if err != nil {
			return nil, err
		}
		if on {
			traced.extend(ph)
		} else {
			plain.extend(ph)
		}
	}
	if e.trace {
		e.tr.on.Store(false)
	}

	wrong, err := wl.verify(e)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	res := &result{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed + wrong,
		Metrics:   map[string]value{},
	}
	res.Correct = res.Failed == 0
	if len(plain.lat) == 0 {
		return nil, fmt.Errorf("no operation of the timed phase got an answer (%d attempted)", plain.attempted)
	}

	if !e.trace {
		lat := durationsMS(plain.lat)
		vals := map[string]float64{
			"setup_s":          median(durationsMS(setups)) / 1000,
			"latency_p50_ms":   quantile(lat, 0.5),
			"throughput_ops_s": float64(len(plain.lat)) / plain.wall.Seconds(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = value{vals[m.Name], m.Unit}
		}
		fmt.Fprintf(w, "%s seed=%d: %d timed ops in %.2fs, %d set-ups\n", e.workload, e.seed, len(plain.lat), plain.wall.Seconds(), len(setups))
		fmt.Fprintf(w, "  p50 by window [ms]:")
		for _, lat := range plain.byWindow() {
			fmt.Fprintf(w, " %.2f (n=%d)", median(lat), len(lat))
		}
		fmt.Fprintf(w, "\n  not gated: p90 %.2f ms, pool %.3f MB\n", quantile(lat, 0.9), float64(wl.poolBytes())/1e6)
		printMetrics(w, res.Metrics, len(plain.lat))
		return res, nil
	}

	layer := map[string]float64{}
	if err := wl.probes(e, layer); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	ops := float64(len(plain.lat))
	layer["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	layer["process.peak_rss_mb"] = peakRSSMB()
	layer["process.cpu_s_per_op"] = plain.proc.cpu.Seconds() / ops
	layer["process.allocs_per_op"] = float64(plain.proc.mallocs) / ops
	if plain.proc.allCPU > 0 {
		layer["process.gc_cpu_share"] = plain.proc.gcCPU / plain.proc.allCPU
	}
	if len(plain.late) > 0 {
		layer["loadgen.late_ms"] = median(durationsMS(plain.late))
	}
	layer["latency_p90_ms"] = quantile(durationsMS(plain.lat), 0.9)
	layer["pool_mb"] = float64(wl.poolBytes()) / 1e6
	layer["loadgen.calm_p50_ms"], layer["loadgen.calm_p90_ms"] = plain.calmest()
	spans, ambiguous := e.tr.snapshot()
	self := selfTimes(spans)
	if len(traced.lat) > 0 {
		layer["trace.overhead_pct"] = 100 * (traced.p50() - plain.p50()) / plain.p50()
	}
	spanMetrics(spans, layer)
	if err := checkSpans(spans); err != nil {
		return nil, err
	}
	path := filepath.Join(e.outDir, "trace-"+e.workload+".json")
	if err := writeTrace(path, traceFile{Workload: e.workload, Seed: e.seed, Machine: describeMachine(), Ambiguous: ambiguous, Self: self, Spans: spans}); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = value{layer[m.Name], m.Unit}
		delete(layer, m.Name)
	}
	for name := range layer {
		return nil, fmt.Errorf("probe emitted %q, which the manifest lacks", name)
	}
	fmt.Fprintf(w, "%s seed=%d traced: %d + %d timed ops, %d spans -> %s\n", e.workload, e.seed, len(plain.lat), len(traced.lat), len(spans), path)
	printMetrics(w, res.Metrics, len(plain.lat))
	return res, nil
}

// timedPhase runs one timed pass and fills in the process-counter deltas.
func timedPhase(wl impl, e *env, d time.Duration) (*phase, error) {
	before := readProc()
	ph, err := wl.run(e, d)
	if err != nil {
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	after := readProc()
	ph.proc = procSample{
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
		gcCPU:   after.gcCPU - before.gcCPU,
		allCPU:  after.allCPU - before.allCPU,
	}
	return ph, nil
}

// spanMetrics derives the span-based layer metrics request by request:
// what each HTTP boundary adds, and how much of the latency the caller saw
// the layer spans explain. Only query requests count; delta-churn's write
// leg has no engine interval to pair with (its spans are in the file).
func spanMetrics(spans []span, layer map[string]float64) {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	chains := map[int64]map[string]time.Duration{} // root span -> name -> duration
	for _, s := range spans {
		if s.Name == "probe" || strings.HasPrefix(s.Req, "POST ") {
			continue
		}
		root := s
		for root.Parent != 0 {
			root = byID[root.Parent]
		}
		if chains[root.ID] == nil {
			chains[root.ID] = map[string]time.Duration{}
		}
		chains[root.ID][s.Name] = s.dur()
	}
	var hop, httpOver, accounted []float64
	for _, c := range chains {
		if run, ok := c[spanRun]; ok && run > 0 {
			accounted = append(accounted, 100*float64(c[spanSample]+c[spanSelect])/float64(run))
			continue
		}
		client, engine := c[spanClient], c[spanEngine]
		if client == 0 || engine == 0 {
			continue // a refused request has no engine interval
		}
		hop = append(hop, ms(c[spanRouter]-c[spanNode]))
		httpOver = append(httpOver, ms(c[spanNode]-engine))
		// Router self + forwarding leg self + node HTTP self + engine:
		// everything inside the router's handler.
		accounted = append(accounted, 100*float64(c[spanRouter])/float64(client))
	}
	if len(hop) > 0 {
		layer["route.hop_ms"] = median(hop)
		layer["serve.http_overhead_ms"] = median(httpOver)
	}
	layer["trace.accounted_pct"] = median(accounted)
}

func printMetrics(w io.Writer, m map[string]value, n int) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s (n=%d)\n", name, m[name].Value, m[name].Unit, n)
	}
}
