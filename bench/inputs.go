package main

// Seeded input generation. Everything the system under test is given comes
// from -seed: the R-MAT graph (as edge-list text, what a user would hold),
// the RNG seeds queries name, the (k, eps) mix, the arrival schedule and
// the delta edges. None of this is timed.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	efficientimm "repro"
)

// graphSpec says which graph a workload runs on.
type graphSpec struct {
	scale      int // log2 vertices before -scale-shift
	edgeFactor float64
	model      efficientimm.Model
	wc         bool // replace IC probabilities with 1/indegree
}

var (
	// The paper's setting: uniform-[0,1) IC makes the cascade supercritical,
	// so sets are dense bitmaps even on a small graph. At edge factor 8 one
	// graph seed in six needs a second estimation round and runs 40%
	// longer; at Graph500's 16 every seed tried stops after the first.
	denseIC = graphSpec{scale: 9, edgeFactor: 16, model: efficientimm.IC}
	// LT on a larger graph: many tiny sets.
	sparseLT = graphSpec{scale: 16, edgeFactor: 8, model: efficientimm.LT}
	// Weighted-cascade IC, the serving graph: sets of ~8 members.
	serveWC = graphSpec{scale: 13, edgeFactor: 8, model: efficientimm.IC, wc: true}
)

// env is one run's context.
type env struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	scaleShift int
	outDir     string
	tmp        string // scratch inside outDir, removed at exit
	rnd        *rand.Rand
	tr         *tracer // nil on an untraced run
}

// poolSeed is the i-th RNG seed queries of this run name (i from 1).
func (e *env) poolSeed(i int) uint64 { return e.seed*1000 + uint64(i) }

// writeEdgeList generates the workload's graph and writes it as SNAP-style
// text, returning the path. The generated graph object is dropped: the
// system sees only the file.
func (e *env) writeEdgeList(spec graphSpec) (string, error) {
	scale := spec.scale + e.scaleShift
	if scale < 5 {
		scale = 5
	}
	g, err := efficientimm.GenerateRMAT(scale, spec.edgeFactor, spec.model, e.seed)
	if err != nil {
		return "", err
	}
	path := filepath.Join(e.tmp, "graph.txt")
	if err := efficientimm.WriteEdgeListFile(path, g); err != nil {
		return "", err
	}
	return path, nil
}

// loadGraph is the system-side load of an edge list: parse, build, assign
// weights. It is timed as part of set-up.
func loadGraph(path string, spec graphSpec, weightSeed uint64) (*efficientimm.Graph, efficientimm.IngestStats, error) {
	g, st, err := efficientimm.IngestFile(path, efficientimm.IngestOptions{Workers: engineWorkers, Model: spec.model, Seed: weightSeed})
	if err != nil {
		return nil, st, err
	}
	if spec.wc {
		efficientimm.UseWeightedCascade(g)
	}
	return g, st, nil
}

// shape is one (k, eps) query shape.
type shape struct {
	k   int
	eps float64
}

// The serving mix is the one the repository's own serving experiments ask
// (internal/harness: ServeSweep's warm phases and LoadSweep's loadMix, at
// DefaultConfig's K=50, eps=0.5, which is also imm.Defaults): the base
// shape, a smaller query (K/2, 1.4 eps), a tighter one (2K, 0.8 eps) and
// an exact repeat of the base, over two RRR pools.
var (
	baseShape    = shape{50, 0.5}
	smallerShape = shape{25, 0.7}
	tighterShape = shape{100, 0.4}
)

// queryShapes is one pool's share of the mix: base twice, as in loadMix.
func queryShapes() []shape {
	return []shape{baseShape, smallerShape, baseShape, tighterShape}
}

// pairShapes are the distinct-k pairs the mix holds: what two members of a
// LoadSweep burst that land on one pool at the same instant can be.
func pairShapes() [][2]shape {
	return [][2]shape{{smallerShape, baseShape}, {baseShape, tighterShape}, {smallerShape, tighterShape}}
}

// arrival is one open-loop send: when it is due and what it asks.
type arrival struct {
	due time.Duration
	q   efficientimm.QueryRequest
}

// arrivalSchedule lays out open-loop arrivals for the given span: seeded
// Poisson arrivals (independent users) at rate per second, each a query
// dealt from a shuffled deck of pool x queryShapes. The count is fixed at
// rate x span and the instants are uniform over the span, which is a
// Poisson process given its count: every seed offers the same load. Every
// pairEvery-th arrival is instead a pair from a shuffled deck of pool x
// pairShapes, both members due at the same instant on one pool: a
// two-client cut of LoadSweep's concurrent burst, and the traffic that is
// certain to reach the planner's gather window.
func (e *env) arrivalSchedule(graph string, rate float64, span time.Duration, pairEvery int) []arrival {
	req := func(pool int, s shape) efficientimm.QueryRequest {
		return efficientimm.QueryRequest{Graph: graph, K: s.k, Epsilon: s.eps, Seed: e.poolSeed(pool)}
	}
	var singles []efficientimm.QueryRequest
	var pairs [][2]efficientimm.QueryRequest
	for pool := 1; pool <= clientConns; pool++ {
		for _, s := range queryShapes() {
			singles = append(singles, req(pool, s))
		}
		for _, p := range pairShapes() {
			pairs = append(pairs, [2]efficientimm.QueryRequest{req(pool, p[0]), req(pool, p[1])})
		}
	}
	e.rnd.Shuffle(len(singles), func(i, j int) { singles[i], singles[j] = singles[j], singles[i] })
	e.rnd.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

	due := make([]time.Duration, max(1, int(rate*span.Seconds())))
	for i := range due {
		due[i] = time.Duration(e.rnd.Float64() * float64(span))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })

	var out []arrival
	dealtSingles, dealtPairs := 0, 0
	for i, at := range due {
		if (i+1)%pairEvery == 0 {
			p := pairs[dealtPairs%len(pairs)]
			dealtPairs++
			out = append(out, arrival{at, p[0]}, arrival{at, p[1]})
			continue
		}
		out = append(out, arrival{at, singles[dealtSingles%len(singles)]})
		dealtSingles++
	}
	return out
}

// churnRate is the share of the graph's edges one delta touches: the rung
// of harness.ChurnSweep's update-rate ladder (churnRates) nearest to the
// issue's eight-edge delta on the serving graph. As in ChurnSweep, half of
// the touched edges are added and half removed.
const churnRate = 0.0001

// churnDelta draws one delta the way harness.ChurnSweep's does: adds
// absent non-self-loop pairs between existing vertices (vertex growth
// would force a full resample, which is not the steady write path), with
// weighted-cascade-consistent probabilities, and removes distinct edges
// of g. taken remembers what earlier deltas of this run touched, so every
// delta is valid on g and on g after any of the others.
func (e *env) churnDelta(g *efficientimm.Graph, taken map[[2]int32]bool) (d deltaRequest) {
	n := max(1, int(churnRate*float64(g.M))/2) // ChurnSweep's own rounding
	for len(d.Add) < n {
		u, v := int32(e.rnd.Intn(int(g.N))), int32(e.rnd.Intn(int(g.N)))
		key := [2]int32{u, v}
		if u == v || taken[key] || g.HasEdge(u, v) {
			continue
		}
		taken[key] = true
		d.Add = append(d.Add, key)
		d.AddProb = append(d.AddProb, 1/float32(g.InDegree(v)+1))
	}
	for len(d.Remove) < n {
		// Uniform over edges: position p of the CSR belongs to the
		// vertex whose segment holds it.
		p := e.rnd.Int63n(g.M)
		u := sort.Search(int(g.N), func(i int) bool { return g.OutIndex[i+1] > p })
		key := [2]int32{int32(u), g.OutEdges[p]}
		if taken[key] {
			continue
		}
		taken[key] = true
		d.Remove = append(d.Remove, key)
	}
	return d
}

func (e *env) mkTmp() error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(e.outDir, "tmp-"+e.workload+"-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	e.tmp = tmp
	return nil
}
