package imm

// Tests of the selection memo: an answer assembled from remembered
// selections must be the answer a cold Run gives on the current graph,
// through every event in a pool's life — repeats, θ-extension, repair,
// freeze/thaw — and the memo must stay within its bounds and out of its
// callers' reach.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// answerOne serves q through AnswerBatch and pins the answer against a
// cold Run on g, the graph the engine currently serves.
func answerOne(t *testing.T, label string, we *WarmEngine, g *graph.Graph, opt Options, q BatchQuery) BatchAnswer {
	t.Helper()
	rep, err := we.AnswerBatch(opt, []BatchQuery{q})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	o := opt
	o.K, o.Epsilon = q.K, q.Epsilon
	cold, err := Run(g, o)
	if err != nil {
		t.Fatalf("%s: cold run: %v", label, err)
	}
	a := rep.Answers[0]
	assertWarmEqualsCold(t, label, a.Res, cold)
	if a.Selections != int64(a.Res.Rounds)+1 {
		t.Fatalf("%s: %d selections for %d rounds", label, a.Selections, a.Res.Rounds)
	}
	return a
}

func assertAllHits(t *testing.T, label string, a BatchAnswer) {
	t.Helper()
	if a.MemoHits != a.Selections {
		t.Fatalf("%s: %d of %d selections hit the memo, want all", label, a.MemoHits, a.Selections)
	}
}

// assertFreshPool pins what a query meeting a pool with an empty memo
// may hit: only its final selection, when it repeats the last
// estimation round's.
func assertFreshPool(t *testing.T, label string, a BatchAnswer) {
	t.Helper()
	if a.MemoHits > 1 {
		t.Fatalf("%s: %d memo hits on a pool that remembered nothing", label, a.MemoHits)
	}
}

// TestSelectionMemoLifecycle walks one pool through its life and
// requires every answer to equal a cold Run on the current graph, with
// the memo hitting exactly when the prefix it remembers is unchanged.
func TestSelectionMemoLifecycle(t *testing.T) {
	first := BatchQuery{K: 6, Epsilon: 0.6}
	wider := BatchQuery{K: 12, Epsilon: 0.4}
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		for _, workers := range []int{1, 2, 4} {
			label := fmt.Sprintf("%v/w%d", model, workers)
			g := testGraph(t, 8, model)
			opt := Defaults()
			opt.Seed = 5
			opt.Workers = workers
			we, err := NewWarmEngine(g, opt)
			if err != nil {
				t.Fatal(err)
			}

			assertFreshPool(t, label+" cold", answerOne(t, label+" cold", we, g, opt, first))
			assertAllHits(t, label+" repeat", answerOne(t, label+" repeat", we, g, opt, first))

			// θ-extension adds sets above every remembered limit.
			if a := answerOne(t, label+" wider", we, g, opt, wider); a.GeneratedSets == 0 {
				t.Fatalf("%s: the wider query did not extend the pool", label)
			}
			assertAllHits(t, label+" after extension", answerOne(t, label+" after extension", we, g, opt, first))

			// Repair forgets exactly the prefixes that reach a replaced set.
			ng, drep, err := graph.ApplyDelta(g, randomDelta(g, 99, 6, 4, false), graph.DeltaOptions{})
			if err != nil {
				t.Fatal(err)
			}
			invalid := we.invalidSlots(drep.Dirty)
			if len(invalid) == 0 {
				t.Fatalf("%s: the delta dirtied no resident set", label)
			}
			remembered := we.p.memo.n
			if _, err := we.ApplyDelta(ng, drep); err != nil {
				t.Fatal(err)
			}
			memo := &we.p.memo
			if memo.n >= remembered {
				t.Fatalf("%s: repair of slot %d dropped none of %d remembered selections", label, invalid[0], remembered)
			}
			for _, e := range memo.slots[:memo.n] {
				if e.Limit > invalid[0] {
					t.Fatalf("%s: selection over [0,%d) survived the repair of slot %d", label, e.Limit, invalid[0])
				}
			}
			if a := answerOne(t, label+" repaired", we, ng, opt, first); a.MemoHits == a.Selections {
				t.Fatalf("%s: every selection hit across a repair", label)
			}
			assertAllHits(t, label+" repaired repeat", answerOne(t, label+" repaired repeat", we, ng, opt, first))

			// A thawed pool remembers what the frozen one had run, and
			// its remembered answers are still a cold Run's.
			st, err := we.Freeze(1)
			if err != nil {
				t.Fatal(err)
			}
			thawed, err := ThawWarmEngine(ng, opt, st)
			if err != nil {
				t.Fatal(err)
			}
			assertAllHits(t, label+" thawed", answerOne(t, label+" thawed", thawed, ng, opt, first))
			assertAllHits(t, label+" thawed repeat", answerOne(t, label+" thawed repeat", thawed, ng, opt, first))
		}
	}
}

// TestSelectionMemoNotPoisonable pins that callers own the seeds they
// are given: scribbling over a returned answer — computed or remembered —
// changes no later one.
func TestSelectionMemoNotPoisonable(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Defaults()
	opt.Seed = 5
	opt.Workers = 2
	we, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := BatchQuery{K: 6, Epsilon: 0.6}
	for _, label := range []string{"computed", "remembered", "remembered again"} {
		a := answerOne(t, label, we, g, opt, q)
		for i := range a.Res.Seeds {
			a.Res.Seeds[i] = -1
		}
	}
}

// TestThawedMemoBillsTheSelection pins what a thawed pool's memo hands
// out: the seeds and coverage of the selection it stands for, in a copy
// the caller owns, at the modeled cost that selection billed — a repeat
// on the thawed pool costs what the same repeat costs on the frozen one.
func TestThawedMemoBillsTheSelection(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	opt := Defaults()
	opt.Seed = 5
	opt.Workers = 2
	we, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	q := BatchQuery{K: 6, Epsilon: 0.6}
	answerOne(t, "cold", we, g, opt, q)
	before := we.Breakdown().SelectionModeled
	repeat := answerOne(t, "repeat", we, g, opt, q)
	billed := we.Breakdown().SelectionModeled - before
	st, err := we.Freeze(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Memo) < int(repeat.Selections) {
		t.Fatalf("froze %d memo entries, the query ran %d selections", len(st.Memo), repeat.Selections)
	}
	thawed, err := ThawWarmEngine(g, opt, st)
	if err != nil {
		t.Fatal(err)
	}
	a := answerOne(t, "thawed", thawed, g, opt, q)
	assertAllHits(t, "thawed", a)
	if got := thawed.Breakdown().SelectionModeled; billed <= 0 || math.Abs(got-billed) > 1e-9*billed {
		t.Fatalf("thawed hits billed %v modeled ops, the frozen pool's repeat %v", got, billed)
	}
	if a.Res.Coverage != repeat.Res.Coverage {
		t.Fatalf("thawed coverage %v, frozen %v", a.Res.Coverage, repeat.Res.Coverage)
	}
	for i := range a.Res.Seeds {
		a.Res.Seeds[i] = -1
	}
	assertAllHits(t, "thawed after scribbling", answerOne(t, "thawed after scribbling", thawed, g, opt, q))
}

// TestSelectionMemoBounded pins both bounds: sixteen entries, oldest
// out, and never more remembered seeds than the graph has vertices —
// the 4·n bytes OverheadBytes may grow by.
func TestSelectionMemoBounded(t *testing.T) {
	g := testGraph(t, 8, graph.IC) // n = 256 ≥ 1+2+…+17: only the ring bound binds at first
	opt := testOpts(Efficient, 2)
	const theta = 600
	we := generatePool(t, g, opt, theta)
	p := we.p
	p.selectCELF(false, 2, 1, theta) // the kernel's scratch is resident from here on
	p.memo = selMemo{}
	bare := we.OverheadBytes()
	check := func(label string) {
		t.Helper()
		if p.memo.n > selMemoSlots || p.memo.seedLen > int(g.N) {
			t.Fatalf("%s: memo holds %d entries, %d seeds (n=%d)", label, p.memo.n, p.memo.seedLen, g.N)
		}
		if grown := we.OverheadBytes() - bare; grown != p.memo.bytes() || grown > 4*int64(g.N) {
			t.Fatalf("%s: OverheadBytes grew by %d, memo reports %d, bound %d", label, grown, p.memo.bytes(), 4*g.N)
		}
	}

	// Seventeen distinct k: the first is the one evicted.
	want := make([][]int32, selMemoSlots+2)
	for k := 1; k <= selMemoSlots+1; k++ {
		want[k], _, _ = p.selectCELF(false, 2, k, theta)
		check(fmt.Sprintf("k=%d", k))
	}
	if p.memo.n != selMemoSlots || p.memo.hits != 0 {
		t.Fatalf("after %d distinct selections: %d entries, %d hits", selMemoSlots+1, p.memo.n, p.memo.hits)
	}
	if got, _, _ := p.selectCELF(false, 2, selMemoSlots+1, theta); p.memo.hits != 1 || !reflect.DeepEqual(got, want[selMemoSlots+1]) {
		t.Fatalf("the newest selection was not remembered (hits %d)", p.memo.hits)
	}
	if got, _, _ := p.selectCELF(false, 2, 1, theta); p.memo.hits != 1 || !reflect.DeepEqual(got, want[1]) {
		t.Fatalf("the evicted selection was not recomputed (hits %d), or changed: %v vs %v", p.memo.hits, got, want[1])
	}
	check("after eviction")

	// Selections of n/3 seeds: the byte bound evicts long before the
	// ring fills.
	for k := int(g.N) / 3; k < int(g.N)/3+6; k++ {
		p.selectCELF(false, 2, k, theta)
		check(fmt.Sprintf("k=%d", k))
	}
	if p.memo.n > 3 {
		t.Fatalf("%d entries of ~n/3 seeds each fit under a bound of n", p.memo.n)
	}
	// A selection of every vertex fits alone; the memo is never skipped.
	all, _, _ := p.selectCELF(false, 2, int(g.N), theta)
	check("k=n")
	if p.memo.n != 1 || p.memo.seedLen != len(all) {
		t.Fatalf("k=n: memo holds %d entries, %d seeds, want the %d-seed selection alone", p.memo.n, p.memo.seedLen, len(all))
	}
}

// BenchmarkSelectMiss times the CELF kernel itself — a selection the
// pool has not run before — on a truncated and on a whole view; repeats
// of a served query no longer reach it.
func BenchmarkSelectMiss(b *testing.B) {
	g := testGraph(b, 13, graph.IC)
	graph.AssignWC(g)
	opt := testOpts(Efficient, 2)
	const theta, k = 16000, 50
	e := generatePool(b, g, opt, theta)
	for _, limit := range []int64{theta / 2, theta} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.p.memo = selMemo{}
				if seeds, _, _ := e.p.selectCELF(false, opt.Workers, k, limit); len(seeds) != k {
					b.Fatalf("selected %d seeds, want %d", len(seeds), k)
				}
			}
		})
	}
}
