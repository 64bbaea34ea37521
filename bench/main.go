// Command imbench is the repository's stopwatch: seven named workloads,
// end-to-end metrics from an untraced run, per-layer metrics and spans from
// a traced one, every answer checked against the byte-identical-seeds
// oracle. BENCHMARK.json at the repository root is its contract; README.md
// in this directory is the manual.
//
//	bash bench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
//	cd bench && go run . -workload serve-warm    one workload
//	cd bench && go run .                         all seven, a process each
//	cd bench && go run . -trace 1                ... then all seven traced
//	cd bench && go run . -aa                     the suite twice, compared
//
// With -workload the last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
)

func main() {
	var (
		workload   = flag.String("workload", "", "run this one workload in-process (default: the whole suite, one process per workload)")
		seed       = flag.Uint64("seed", 1, "drives every generated input; 2 is the documented hold-out seed")
		seconds    = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace      = flag.Int("trace", 0, "1: record spans and per-layer probes, emit per-layer metrics; 0: end-to-end metrics")
		aa         = flag.Bool("aa", false, "run the untraced suite twice and compare the two against the bounds")
		outDir     = flag.String("out", "out", "directory for traces, results and scratch files")
		scaleShift = flag.Int("scale-shift", 0, "added to every graph scale (tests use -4); regime assertions apply only at 0")
		printMan   = flag.Bool("print-manifest", false, "print BENCHMARK.json as generated from the tables and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *printMan {
		os.Stdout.Write(manifestBytes())
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	runtime.GOMAXPROCS(procs)

	if *workload == "" {
		s := suite{seed: *seed, seconds: *seconds, outDir: *outDir, scaleShift: *scaleShift}
		var err error
		if *aa {
			err = s.runAA()
		} else {
			err = s.run(*trace == 1)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	e := &env{
		workload:   *workload,
		seed:       *seed,
		seconds:    *seconds,
		trace:      *trace == 1,
		scaleShift: *scaleShift,
		outDir:     *outDir,
		rnd:        rand.New(rand.NewSource(int64(*seed))),
	}
	res, err := runWorkload(e, os.Stdout)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imbench:", err)
	os.Exit(1)
}
