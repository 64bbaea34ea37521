package main

// The whole suite: every workload in a process of its own (this binary
// re-executed with -workload), so heap, GC pacing and VmHWM of one
// workload never leak into the next. Also -aa: the untraced suite twice,
// back to back, each cell compared against its bound. That is the first
// thing to run on a new machine: a bound the box cannot hold means its
// numbers resolve nothing.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type suite struct {
	seed       uint64
	seconds    float64
	outDir     string
	scaleShift int
}

// resultsFile is what a suite run writes to <out>/results.json, and what
// results/baseline.json is a copy of.
type resultsFile struct {
	Machine  machine                     `json:"machine"`
	Date     string                      `json:"date"`
	Seed     uint64                      `json:"seed"`
	Seconds  float64                     `json:"seconds"`
	EndToEnd map[string]map[string]value `json:"end_to_end"`
	PerLayer map[string]map[string]value `json:"per_layer,omitempty"`
	Ops      map[string]int              `json:"timed_ops"`
}

// child runs one workload in a fresh process and decodes its last line.
func (s suite) child(workload string, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatUint(s.seed, 10),
		"-seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64),
		"-trace", tr,
		"-out", s.outDir,
		"-scale-shift", strconv.Itoa(s.scaleShift))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	os.Stdout.WriteString(strings.Join(lines[:len(lines)-1], "\n") + "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s: %d of %d operations failed", workload, res.Failed, res.Attempted)
	}
	return &res, nil
}

// pass runs every workload once and collects the metrics by workload.
func (s suite) pass(traced bool) (map[string]map[string]value, map[string]int, error) {
	cells := map[string]map[string]value{}
	ops := map[string]int{}
	for _, w := range workloads {
		res, err := s.child(w.Name, traced)
		if err != nil {
			return nil, nil, err
		}
		cells[w.Name] = res.Metrics
		ops[w.Name] = res.Attempted
	}
	return cells, ops, nil
}

func (s suite) run(traced bool) error {
	rf := resultsFile{
		Machine: describeMachine(), Date: time.Now().UTC().Format(time.RFC3339),
		Seed: s.seed, Seconds: s.seconds,
	}
	var err error
	if rf.EndToEnd, rf.Ops, err = s.pass(false); err != nil {
		return err
	}
	if traced {
		if rf.PerLayer, _, err = s.pass(true); err != nil {
			return err
		}
	}
	fmt.Printf("\n%-16s", "end to end")
	for _, m := range endToEnd {
		fmt.Printf(" %18s", m.Name+" ["+m.Unit+"]")
	}
	fmt.Println()
	for _, w := range workloads {
		fmt.Printf("%-16s", w.Name)
		for _, m := range endToEnd {
			fmt.Printf(" %18.3f", rf.EndToEnd[w.Name][m.Name].Value)
		}
		fmt.Printf("   (%d ops)\n", rf.Ops[w.Name])
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(s.outDir, "results.json")
	fmt.Println("results:", path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// disagreement is how far apart two medians of the same cell are, as a
// share of the smaller: symmetric, so a slow first pass (a cold page
// cache, a warm-up effect) counts the same as a slow second one.
func disagreement(a, b float64) float64 {
	return math.Abs(a-b) / math.Min(a, b)
}

// runAA runs the untraced suite twice and fails when the two passes
// disagree on any end-to-end cell by more than the cell's bound.
func (s suite) runAA() error {
	first, _, err := s.pass(false)
	if err != nil {
		return err
	}
	second, _, err := s.pass(false)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-16s %-18s %12s %12s %8s %7s\n", "workload", "metric", "first", "second", "apart", "bound")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := first[w.Name][m.Name].Value, second[w.Name][m.Name].Value
			apart := disagreement(a, b)
			mark := ""
			if apart > m.Bound {
				mark = "  <-- beyond bound"
				bad++
			}
			fmt.Printf("%-16s %-18s %12.4f %12.4f %7.1f%% %6.0f%%%s\n", w.Name, m.Name, a, b, 100*apart, 100*m.Bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d cells disagree beyond their bound", bad)
	}
	fmt.Println("A/A: every cell within its bound")
	return nil
}
