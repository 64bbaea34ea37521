package imm_test

import (
	"errors"
	"testing"

	"repro/internal/counter"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
)

// decliner is a slot generator that declines every range, so an engine
// it is attached to generates locally.
type decliner struct{}

func (decliner) GenerateSlots(int64, []int32) ([]imm.Chunk, int64, error) {
	return nil, 0, errors.New("declined")
}

// TestLifecycleRefusesNonDefaultOptions pins the warm lifecycle's one
// configuration: Freeze, ThawWarmEngine, ApplyDelta, SetRemote and a
// distributed run refuse an engine with any §IV switch off its default
// through imm.ErrWarmOptions, leaving the engine's graph, pool length and
// slot generator as they were, and accept one that differs from the
// defaults only in the query and sizing fields.
func TestLifecycleRefusesNonDefaultOptions(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(7, 5), graph.IC, 3)
	if err != nil {
		t.Fatal(err)
	}
	ng, rep, err := graph.ApplyDelta(g, graph.Delta{Add: []graph.Edge{{Src: 1, Dst: 2}, {Src: 5, Dst: 3}}, Seed: 9}, graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := imm.Defaults()
	base.K, base.Seed, base.Workers, base.MaxTheta = 5, 3, 2, 1500
	// warm builds an engine under opt that has answered one query.
	warm := func(t *testing.T, opt imm.Options) *imm.WarmEngine {
		t.Helper()
		w, err := imm.NewWarmEngine(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.AnswerBatch(opt, []imm.BatchQuery{{K: opt.K, Epsilon: opt.Epsilon}}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	frozen, err := warm(t, base).Freeze(0)
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func(w *imm.WarmEngine, opt imm.Options, st *imm.PoolState) error
	}{
		{"Freeze", func(w *imm.WarmEngine, _ imm.Options, _ *imm.PoolState) error { _, err := w.Freeze(0); return err }},
		{"ThawWarmEngine", func(_ *imm.WarmEngine, opt imm.Options, st *imm.PoolState) error {
			_, err := imm.ThawWarmEngine(g, opt, st)
			return err
		}},
		{"ApplyDelta", func(w *imm.WarmEngine, _ imm.Options, _ *imm.PoolState) error {
			_, err := w.ApplyDelta(ng, rep)
			return err
		}},
		{"SetRemote", func(w *imm.WarmEngine, _ imm.Options, _ *imm.PoolState) error { return w.SetRemote(decliner{}) }},
		{"dist.Run", func(_ *imm.WarmEngine, opt imm.Options, _ *imm.PoolState) error {
			_, err := dist.Run(g, dist.Options{Options: opt, Ranks: 2})
			return err
		}},
	}

	toggles := []struct {
		name string
		set  func(*imm.Options)
	}{
		{"fusion off", func(o *imm.Options) { o.Fusion = false }},
		{"adaptive representation off", func(o *imm.Options) { o.AdaptiveRep = false }},
		{"decrement-only update", func(o *imm.Options) { o.Update = counter.Decrement }},
		{"rebuild-only update", func(o *imm.Options) { o.Update = counter.Rebuild }},
		{"static balance", func(o *imm.Options) { o.DynamicBalance = false }},
		{"scan selection", func(o *imm.Options) { o.Selection = imm.SelectScan }},
	}
	for _, tg := range toggles {
		for _, c := range calls {
			t.Run(tg.name+"/"+c.name, func(t *testing.T) {
				opt := base
				tg.set(&opt)
				w := warm(t, opt)
				g0, n0, r0 := imm.EngineState(w)
				if err := c.call(w, opt, frozen); !errors.Is(err, imm.ErrWarmOptions) {
					t.Fatalf("got %v, want ErrWarmOptions", err)
				}
				if g1, n1, r1 := imm.EngineState(w); g1 != g0 || n1 != n0 || r1 != r0 {
					t.Fatalf("a refused call changed the engine: graph %p -> %p, %d -> %d sets, remote %v -> %v", g0, g1, n0, n1, r0, r1)
				}
			})
		}
	}

	allowed := []struct {
		name string
		set  func(*imm.Options)
	}{
		{"K", func(o *imm.Options) { o.K = 9 }},
		{"Epsilon", func(o *imm.Options) { o.Epsilon = 0.3 }},
		{"Ell", func(o *imm.Options) { o.Ell = 2 }},
		{"Workers", func(o *imm.Options) { o.Workers = 3 }},
		{"Seed", func(o *imm.Options) { o.Seed = 8 }},
		{"BatchSize", func(o *imm.Options) { o.BatchSize = 16 }},
		{"MaxTheta", func(o *imm.Options) { o.MaxTheta = 900 }},
	}
	for _, a := range allowed {
		t.Run("allowed "+a.name, func(t *testing.T) {
			opt := base
			a.set(&opt)
			st, err := warm(t, opt).Freeze(0)
			if err != nil {
				t.Fatalf("Freeze: %v", err)
			}
			for _, c := range calls {
				if err := c.call(warm(t, opt), opt, st); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
			w := warm(t, opt)
			if err := w.SetRemote(decliner{}); err != nil {
				t.Fatal(err)
			}
			if _, _, r := imm.EngineState(w); r != imm.SlotGenerator(decliner{}) {
				t.Fatalf("SetRemote attached %v", r)
			}
		})
	}
}
