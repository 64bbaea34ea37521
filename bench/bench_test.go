package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// smoke runs one workload small and fast, in this process.
func smoke(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	out := t.TempDir()
	e := &env{
		workload: workload, seed: 1, seconds: 0.25, trace: trace,
		scaleShift: -4, outDir: out, rnd: rand.New(rand.NewSource(1)),
	}
	res, err := runWorkload(e, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", workload, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res, out
}

// TestWorkloadsSmoke asserts, for every workload at -scale-shift -4, that an
// untraced run emits exactly the end-to-end names and a traced run exactly
// the per-layer names (the manifest and the program agree both ways), that
// no operation fails, and that the trace file is well formed. It asserts
// nothing about speed.
func TestWorkloadsSmoke(t *testing.T) {
	for i, w := range workloads {
		if testing.Short() && i > 0 {
			break
		}
		t.Run(w.Name, func(t *testing.T) {
			res, _ := smoke(t, w.Name, false)
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("untraced run emitted %d metrics, manifest has %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Fatalf("untraced run lacks %s [%s] (got %+v)", m.Name, m.Unit, v)
				}
				if !(v.Value > 0) {
					t.Fatalf("%s = %v; end-to-end metrics are never 0", m.Name, v.Value)
				}
			}

			res, out := smoke(t, w.Name, true)
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced run emitted %d metrics, manifest has %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Fatalf("traced run lacks %s [%s]", m.Name, m.Unit)
				}
			}
			if res.Metrics["fail_ratio"].Value != 0 {
				t.Fatalf("fail_ratio = %v", res.Metrics["fail_ratio"].Value)
			}

			raw, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if tf.Workload != w.Name || len(tf.Spans) == 0 || len(tf.Self) == 0 {
				t.Fatalf("trace file: workload %q, %d spans, %d span names", tf.Workload, len(tf.Spans), len(tf.Self))
			}
			if err := checkSpans(tf.Spans); err != nil {
				t.Fatal(err)
			}
			roots := 0
			for _, s := range tf.Spans {
				if s.Parent == 0 && s.Name != "probe" {
					roots++
				}
			}
			if roots == 0 {
				t.Fatal("trace holds no request span")
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

// TestSelfTime pins the definition: a span's self time is its duration
// minus what its children cover.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "b", Start: 10e6, End: 70e6},
		{ID: 3, Parent: 2, Name: "c", Start: 20e6, End: 50e6},
	}
	st := selfTimes(spans)
	if st["a"].SelfP50MS != 40 || st["b"].SelfP50MS != 30 || st["c"].SelfP50MS != 30 {
		t.Fatalf("self times a=%v b=%v c=%v, want 40 30 30", st["a"].SelfP50MS, st["b"].SelfP50MS, st["c"].SelfP50MS)
	}
	spans[2].End = 90e6 // now outside its parent
	spans[2].Req = ""
	if err := checkSpans(spans); err == nil {
		t.Fatal("checkSpans accepted a child outside its parent")
	}
}
