package imm

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/rrr"
)

// runPinFile holds, one line per (graph, engine setting, workers), the
// fields of a cold Run's Result that are a pure function of its inputs:
// seeds, θ, rounds, LB, coverage, SetStats, Pool and both modeled
// breakdowns. Floats print in Go's shortest round-trip form, so a line
// matches only if every bit does. The values were captured before the
// Efficient engine's cold and warm types were merged into one, so the
// merge is checked against the engine it replaced.
const runPinFile = "testdata/run_pin.golden"

// plainStats is rrr.Stats without its String method, so %+v prints every
// field at full precision.
type plainStats rrr.Stats

// runPinSettings are the engine settings TestRunPinned covers: the
// Efficient engine under both selection kernels with and without kernel
// fusion, and the Ripples baseline.
var runPinSettings = []struct {
	name      string
	engine    EngineKind
	selection SelectionKind
	fusion    bool
}{
	{"celf/fusion", Efficient, SelectCELF, true},
	{"celf/nofusion", Efficient, SelectCELF, false},
	{"scan/fusion", Efficient, SelectScan, true},
	{"scan/nofusion", Efficient, SelectScan, false},
	{"ripples", Ripples, SelectCELF, true},
}

// TestRunPinned pins cold Run results bit-for-bit across runPinSettings
// on the goldenGraph fixtures at one and three workers.
func TestRunPinned(t *testing.T) {
	raw, err := os.ReadFile(runPinFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var got []string
	for _, name := range []string{"dense-ic", "wc-ic", "lt"} {
		g := goldenGraph(t, name)
		for _, s := range runPinSettings {
			for _, workers := range []int{1, 3} {
				opt := Defaults()
				opt.K = 8
				opt.MaxTheta = 3000
				opt.Seed = 7
				opt.Workers = workers
				opt.Engine, opt.Selection, opt.Fusion = s.engine, s.selection, s.fusion
				res, err := Run(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, fmt.Sprintf("%s %s w=%d seeds=%v theta=%d rounds=%d lb=%v cov=%v stats=%+v pool=%+v sampling=%v selection=%v",
					name, s.name, workers, res.Seeds, res.Theta, res.Rounds, res.LB, res.Coverage,
					plainStats(res.SetStats), res.Pool, res.Breakdown.SamplingModeled, res.Breakdown.SelectionModeled))
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d pinned runs, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d diverged:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
