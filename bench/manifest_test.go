package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// TestManifestLimits holds the tables to the BENCHMARK.json contract: name
// alphabet, counts of at most 8 / 16 / 128, bounds, the setup_s metric.
func TestManifestLimits(t *testing.T) {
	if err := checkManifest(); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONIsGenerated fails when the committed BENCHMARK.json and
// the tables drift apart: the tables are the single source of names.
// Regenerate with `go run . -print-manifest > ../BENCHMARK.json`.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestBytes()) {
		t.Fatal("BENCHMARK.json differs from the tables in manifest.go; regenerate it with -print-manifest")
	}
}

// TestBenchmarkJSONShape checks the file a driver would parse: exactly the
// six top-level keys, and exactly the allowed keys on every row.
func TestBenchmarkJSONShape(t *testing.T) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(manifestBytes(), &top); err != nil {
		t.Fatal(err)
	}
	wantKeys(t, "top level", top, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	rows := func(key string, want ...string) {
		var list []map[string]json.RawMessage
		if err := json.Unmarshal(top[key], &list); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		for _, row := range list {
			wantKeys(t, key, row, want...)
		}
	}
	rows("workloads", "name", "why")
	rows("end_to_end", "name", "unit", "better", "bound")
	rows("per_layer", "name", "unit", "better")
}

func wantKeys(t *testing.T, where string, got map[string]json.RawMessage, want ...string) {
	t.Helper()
	var have []string
	for k := range got {
		have = append(have, k)
	}
	sort.Strings(have)
	sort.Strings(want)
	if len(have) != len(want) {
		t.Fatalf("%s: keys %v, want %v", where, have, want)
	}
	for i := range have {
		if have[i] != want[i] {
			t.Fatalf("%s: keys %v, want %v", where, have, want)
		}
	}
}

// TestDisagreementIsSymmetric: -aa must flag a slow first pass as it flags
// a slow second one.
func TestDisagreementIsSymmetric(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{
		{100, 100, 0},
		{100, 140, 0.4},
		{140, 100, 0.4},
		{50, 40, 0.25},
	} {
		if got := disagreement(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("disagreement(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if disagreement(c.a, c.b) != disagreement(c.b, c.a) {
			t.Errorf("disagreement(%v, %v) depends on the order", c.a, c.b)
		}
	}
}

// TestReadmeBounds holds the README's end-to-end table to the manifest:
// every metric has a row, and the row's last cell is the metric's bound.
func TestReadmeBounds(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		row := regexp.MustCompile("(?m)^\\| `" + regexp.QuoteMeta(m.Name) + "` \\| " + regexp.QuoteMeta(m.Unit) + " \\|.*\\| ([0-9.]+)% \\|$").FindSubmatch(readme)
		if row == nil {
			t.Errorf("README.md has no end-to-end row for %s [%s]", m.Name, m.Unit)
			continue
		}
		if got, want := string(row[1]), strconv.FormatFloat(100*m.Bound, 'g', -1, 64); got != want {
			t.Errorf("README.md gives %s a bound of %s%%, the manifest %s%%", m.Name, got, want)
		}
	}
}
