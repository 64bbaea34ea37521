package imm

// Tests of the freeze/thaw seam: a thawed engine must answer
// byte-identically to both the engine that was frozen and a cold Run on
// the same graph, across selection kernels —
// and thaw must reject any binding mismatch with ErrPoolIncompatible
// rather than serve a silently-wrong pool.

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/counter"
	"repro/internal/graph"
)

func TestFreezeThawMatchesColdRun(t *testing.T) {
	for _, sel := range []SelectionKind{SelectCELF, SelectScan} {
		label := sel.String()
		g := testGraph(t, 8, graph.IC)
		opt := Defaults()
		opt.Workers = 2
		opt.Seed = 7
		opt.MaxTheta = 8000
		opt.Selection = sel

		we, err := NewWarmEngine(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		qopt := opt
		qopt.K = 8
		qopt.Epsilon = 0.5
		before := runWarm(t, g, we, qopt)

		st, err := we.Freeze(5)
		if err != nil {
			t.Fatal(err)
		}
		if st.Epoch != 5 || st.Seed != 7 || st.Count != we.PhysicalSets() {
			t.Fatalf("%s: frozen metadata %+v does not match engine", label, st)
		}

		thawed, err := ThawWarmEngine(g, opt, st)
		if err != nil {
			t.Fatalf("%s: thaw: %v", label, err)
		}
		if thawed.PhysicalSets() != we.PhysicalSets() {
			t.Fatalf("%s: thawed pool holds %d sets, frozen held %d", label, thawed.PhysicalSets(), we.PhysicalSets())
		}
		after := runWarm(t, g, thawed, qopt)
		assertWarmEqualsCold(t, label+" (thawed repeat)", after, before)

		cold, err := Run(g, qopt)
		if err != nil {
			t.Fatal(err)
		}
		assertWarmEqualsCold(t, label+" (thawed vs cold)", after, cold)

		// A larger query on the thawed engine must extend the adopted
		// pool and still match a cold run exactly.
		bigOpt := opt
		bigOpt.K = 16
		bigOpt.Epsilon = 0.4
		bigWarm := runWarm(t, g, thawed, bigOpt)
		bigCold, err := Run(g, bigOpt)
		if err != nil {
			t.Fatal(err)
		}
		assertWarmEqualsCold(t, label+" (thawed extension)", bigWarm, bigCold)
	}
}

func TestThawRejectsBindingMismatch(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Defaults()
	opt.Workers = 2
	opt.Seed = 7
	opt.MaxTheta = 8000
	we, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	qopt := opt
	qopt.K = 8
	qopt.Epsilon = 0.5
	runWarm(t, g, we, qopt)
	st, err := we.Freeze(0)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		g    *graph.Graph
		opt  Options
	}{
		{"wrong seed", g, func() Options { o := opt; o.Seed = 8; return o }()},
		{"wrong adaptive flag", g, func() Options { o := opt; o.AdaptiveRep = !o.AdaptiveRep; return o }()},
		{"different graph", testGraph(t, 7, graph.IC), opt},
		{"different model", testGraph(t, 8, graph.LT), opt},
	}
	for _, tc := range cases {
		if _, err := ThawWarmEngine(tc.g, tc.opt, st); !errors.Is(err, ErrPoolIncompatible) {
			t.Fatalf("%s: got %v, want ErrPoolIncompatible", tc.name, err)
		}
	}

	// Same graph, same options: still accepted.
	if _, err := ThawWarmEngine(g, opt, st); err != nil {
		t.Fatalf("matching thaw rejected: %v", err)
	}

	// Same shape and model but different edge content: the fingerprint
	// must catch it even though (N, M, model) can collide.
	st2 := *st
	st2.GraphSum++
	if _, err := ThawWarmEngine(g, opt, &st2); !errors.Is(err, ErrPoolIncompatible) {
		t.Fatalf("fingerprint mismatch: got %v, want ErrPoolIncompatible", err)
	}

	// Truncated list payload: structural damage surfaces as a typed
	// error, never a panic.
	st3 := *st
	if len(st3.ListData) == 0 {
		t.Fatal("fixture froze no list payload")
	}
	st3.ListData = st3.ListData[:len(st3.ListData)-1]
	if _, err := ThawWarmEngine(g, opt, &st3); !errors.Is(err, ErrPoolIncompatible) {
		t.Fatalf("truncated payload: got %v, want ErrPoolIncompatible", err)
	}
}

// TestThawBaseFromIndexMatchesMemberWalk pins the thawed occurrence
// counts: a CELF engine's, read off the adopted index offsets, equal the
// count from walking every member of every set, as do a scan engine's
// fused counter's — which thaw rebuilds by that walk — and both equal
// what the engine that was frozen held, for both models.
func TestThawBaseFromIndexMatchesMemberWalk(t *testing.T) {
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		for _, sel := range []SelectionKind{SelectCELF, SelectScan} {
			label := model.String() + "/" + sel.String()
			g := testGraph(t, 8, model)
			opt := Defaults()
			opt.Workers, opt.Seed, opt.MaxTheta = 2, 7, 6000
			opt.Selection = sel
			we, err := NewWarmEngine(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			qopt := opt
			qopt.K, qopt.Epsilon = 8, 0.5
			runWarm(t, g, we, qopt)
			st, err := we.Freeze(0)
			if err != nil {
				t.Fatal(err)
			}
			thawed, err := ThawWarmEngine(g, opt, st)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			walk := counter.New(g.N)
			rebuildBase(walk, thawed.p, opt.Workers)
			if sel == SelectCELF {
				if thawed.base != nil || we.base != nil {
					t.Fatalf("%s: a CELF engine keeps a fused counter", label)
				}
				if !slices.Equal(thawed.p.counts(), walk.Raw()) {
					t.Fatalf("%s: counts from the thawed index offsets differ from the member walk", label)
				}
				if !slices.Equal(we.p.counts(), walk.Raw()) {
					t.Fatalf("%s: member walk differs from the frozen engine's index counts", label)
				}
				if !sameIndex(&thawed.p.post, &we.p.post) {
					t.Fatalf("%s: the thawed index lays its postings out unlike the frozen engine's", label)
				}
				continue
			}
			if !slices.Equal(walk.Raw(), we.base.Raw()) {
				t.Fatalf("%s: member walk differs from the frozen engine's fused counter", label)
			}
			if !slices.Equal(thawed.base.Raw(), we.base.Raw()) {
				t.Fatalf("%s: thawed counter differs from the frozen engine's", label)
			}
		}
	}
}
