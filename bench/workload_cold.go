package main

// cold-ic-dense and cold-lt-sparse: the library call, efficientimm.Run, on
// a freshly ingested graph. Same layers, opposite regimes: dense bitmap
// sets where edge traversal is the cost, and tiny list sets where per-set
// overhead and the round driver are.

import (
	"fmt"
	"reflect"
	"time"

	efficientimm "repro"
)

// coldSeeds is how many RNG seeds the ops rotate through.
const coldSeeds = 3

type coldWorkload struct {
	spec     graphSpec
	edgeList string

	g      *efficientimm.Graph
	ingest efficientimm.IngestStats

	// first answer per RNG seed: every later op with that seed must repeat it.
	ref    map[uint64]*efficientimm.Result
	wrong  int
	all    []*efficientimm.Result // every timed answer, for the imm.* medians
	ripple []time.Duration
}

func (c *coldWorkload) options(seed uint64, engine efficientimm.EngineKind) efficientimm.Options {
	o := efficientimm.Defaults() // k=50, eps=0.5, no MaxTheta: what a user gets
	o.Workers = engineWorkers
	o.Seed = seed
	o.Engine = engine
	return o
}

func (c *coldWorkload) prepare(e *env) (err error) {
	c.ref = map[uint64]*efficientimm.Result{}
	c.edgeList, err = e.writeEdgeList(c.spec)
	return err
}

func (c *coldWorkload) setup(e *env) (err error) {
	c.g, c.ingest, err = loadGraph(c.edgeList, c.spec, e.seed)
	return err
}

func (c *coldWorkload) teardown() { c.g = nil }

func (c *coldWorkload) warmup(e *env) error {
	_, err := efficientimm.Run(c.g, c.options(e.poolSeed(1), efficientimm.EngineEfficient))
	return err
}

func (c *coldWorkload) run(e *env, d time.Duration) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		seed := e.poolSeed(1 + i%coldSeeds)
		ident := fmt.Sprintf("run/%d", seed)
		var si int
		t0 := time.Now()
		if e.tr.enabled() {
			si = e.tr.open(spanRun, ident, t0)
		}
		res, err := efficientimm.Run(c.g, c.options(seed, efficientimm.EngineEfficient))
		lat := time.Since(t0)
		if e.tr.enabled() {
			e.tr.close(si, ident)
			if err == nil {
				// Sampling and selection alternate round by round; laid end
				// to end they keep their totals, which is what self time needs.
				e.tr.childAt(si, spanSample, 0, res.Breakdown.SamplingWall)
				e.tr.childAt(si, spanSelect, res.Breakdown.SamplingWall, res.Breakdown.SelectionWall)
			}
		}
		ph.attempted++
		if err != nil {
			ph.failed++
			continue
		}
		ph.answered(start, lat)
		c.all = append(c.all, res)
		if ref, ok := c.ref[seed]; !ok {
			c.ref[seed] = res
		} else if !reflect.DeepEqual(ref.Seeds, res.Seeds) || ref.Theta != res.Theta {
			c.wrong++
		}
	}
	ph.wall = time.Since(start)
	return ph, nil
}

// verify asserts the two engines agree: the Ripples baseline is the
// independent oracle for EfficientIMM's seeds. Its wall feeds
// imm.ripples_ratio.
func (c *coldWorkload) verify(e *env) (int, error) {
	wrong := c.wrong
	for seed, ref := range c.ref {
		t0 := time.Now()
		rip, err := efficientimm.Run(c.g, c.options(seed, efficientimm.EngineRipples))
		if err != nil {
			return 0, err
		}
		c.ripple = append(c.ripple, time.Since(t0))
		if !reflect.DeepEqual(rip.Seeds, ref.Seeds) || rip.Theta != ref.Theta {
			wrong++
		}
	}
	return wrong, nil
}

func (c *coldWorkload) poolBytes() int64 {
	var xs []float64
	for _, r := range c.all {
		xs = append(xs, float64(r.Pool.TotalBytes()))
	}
	return int64(median(xs))
}

func (c *coldWorkload) probes(e *env, m map[string]float64) error {
	ingestMetrics(c.ingest, m)
	var samp, sel, other, total, theta, rounds, avg, bitmaps, lists []float64
	for _, r := range c.all {
		b := r.Breakdown
		samp = append(samp, ms(b.SamplingWall))
		sel = append(sel, ms(b.SelectionWall))
		other = append(other, ms(b.OtherWall()))
		total = append(total, ms(b.TotalWall))
		theta = append(theta, float64(r.Theta))
		rounds = append(rounds, float64(r.Rounds))
		avg = append(avg, float64(r.SetStats.TotalSize)/float64(r.Theta))
		bitmaps = append(bitmaps, float64(r.SetStats.Bitmaps))
		lists = append(lists, float64(r.SetStats.Lists))
	}
	m["imm.sampling_ms"] = median(samp)
	m["imm.selection_ms"] = median(sel)
	m["imm.other_ms"] = median(other)
	m["imm.sampling_share"] = median(samp) / median(total)
	m["imm.theta"] = median(theta)
	m["imm.rounds"] = median(rounds)
	m["imm.avg_set_size"] = median(avg)
	m["imm.bitmap_sets"] = median(bitmaps)
	m["imm.list_sets"] = median(lists)

	// A few more Ripples ops than verify ran, for a steadier in-run ratio.
	for i := 0; i < 2*coldSeeds; i++ {
		t0 := time.Now()
		if _, err := efficientimm.Run(c.g, c.options(e.poolSeed(1+i%coldSeeds), efficientimm.EngineRipples)); err != nil {
			return err
		}
		c.ripple = append(c.ripple, time.Since(t0))
	}
	m["imm.ripples_ratio"] = median(durationsMS(c.ripple)) / median(total)

	probeGeneration(e, c.g, m)
	probeRNG(e, m)
	if c.spec.model == efficientimm.LT {
		probeSched(e, m)
	}
	return nil
}
