// Command efficientimm runs influence maximization on a generated or
// loaded graph with either engine and emits a JSON log in the format the
// paper's artifact scripts consume.
//
// Usage:
//
//	efficientimm -dataset web-Google -model IC -k 50 -eps 0.5 -workers 8
//	efficientimm -graph edges.txt -undirected -model LT -engine ripples
//	efficientimm -graph edges.txt -ingest-workers 8 -save-snapshot g.imsnap
//	efficientimm -graph g.imsnap              # reload in milliseconds
//	efficientimm -graph g.imsnap -delta d.imdelta
//	                                          # apply an edge-delta batch
//	                                          # after loading
//	efficientimm -dataset com-DBLP -ranks 4   # simulated distributed run
//	efficientimm -graph g.imsnap -ranks 3 -peers root:0,h1:9401,h2:9402
//	                                          # networked run against
//	                                          # immserver -rank workers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	efficientimm "repro"
	"repro/internal/profiling"
)

func main() {
	var (
		dataset    = flag.String("dataset", "", "SNAP-clone profile name (see -list)")
		graphFile  = flag.String("graph", "", "graph file to load instead of a profile (edge list or .imsnap snapshot)")
		format     = flag.String("format", "auto", "graph file format: auto | edgelist | snapshot (auto keys on the .imsnap extension)")
		ingWorkers = flag.Int("ingest-workers", runtime.NumCPU(), "parallel workers for edge-list ingestion")
		saveSnap   = flag.String("save-snapshot", "", "after loading, save the graph as a .imsnap snapshot to this path")
		undirected = flag.Bool("undirected", false, "treat the edge list as undirected")
		modelName  = flag.String("model", "IC", "diffusion model: IC or LT")
		engineName = flag.String("engine", "efficientimm", "engine: efficientimm or ripples")
		selName    = flag.String("selection", "celf", "selection kernel: celf or scan (scan is the shared-memory kernel Figure 5 and the ablations price; -ranks refuses it)")
		k          = flag.Int("k", 50, "seed set size")
		eps        = flag.Float64("eps", 0.5, "approximation parameter epsilon")
		workers    = flag.Int("workers", runtime.NumCPU(), "parallel workers")
		ranks      = flag.Int("ranks", 0, "simulated message-passing ranks (0 = shared-memory run)")
		peers      = flag.String("peers", "", "comma-separated wire addresses for a networked distributed run: entry 0 names the root, entries 1..N-1 must host `immserver -rank` workers; requires -ranks to match the list length")
		seed       = flag.Uint64("seed", 1, "RNG seed")
		maxTheta   = flag.Int64("max-theta", 0, "cap on RRR sets (0 = per-theory)")
		scale      = flag.Int("scale", 0, "clamp profile scale (log2 vertices, 0 = profile default)")
		spreadRuns = flag.Int("spread-runs", 0, "forward Monte-Carlo runs to estimate seed spread (0 = skip)")
		outPath    = flag.String("out", "", "write the JSON result to this file instead of stdout")
		list       = flag.Bool("list", false, "list available dataset profiles and exit")

		deltaFiles  multiFlag
		deltaStrict = flag.Bool("delta-strict", false, "fail if a delta contains self-loops, duplicates, or removals of absent edges")
	)
	flag.Var(&deltaFiles, "delta", ".imdelta edge-delta batch to apply after loading the graph (repeatable, applied in order)")
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, p := range efficientimm.Profiles() {
			fmt.Printf("%-12s kind=%-9s clone=2^%d nodes (paper: %d nodes, %d edges)\n",
				p.Name, p.Kind, p.Scale, p.PaperNodes, p.PaperEdges)
		}
		return
	}

	model, err := efficientimm.ParseModel(*modelName)
	fatalIf(err)
	engine, err := efficientimm.ParseEngine(*engineName)
	fatalIf(err)
	selection, err := efficientimm.ParseSelection(*selName)
	fatalIf(err)

	stopProf, err := prof.Start()
	fatalIf(err)
	defer stopProf()

	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	modelFlagSet := setFlags["model"]

	fmtName := ""
	if *graphFile != "" {
		var ferr error
		if fmtName, ferr = resolveFormat(*graphFile, *format); ferr != nil {
			fatalIf(ferr)
		}
	}
	peerList := parsePeers(*peers)
	fatalIf(validateFlags(cliFlags{
		dataset:   *dataset,
		graphFile: *graphFile,
		format:    fmtName,
		saveSnap:  *saveSnap,
		ranks:     *ranks,
		peers:     peerList,
		set:       setFlags,
	}))

	var g *efficientimm.Graph
	var ingStats *efficientimm.IngestStats
	// weightSeed is what -save-snapshot records as weight provenance: the
	// -seed flag normally, but the original seed when the weights were
	// adopted from a snapshot (so re-snapshotting stays canonical).
	weightSeed := *seed
	switch {
	case *graphFile != "":
		switch fmtName {
		case "edgelist":
			var st efficientimm.IngestStats
			g, st, err = efficientimm.IngestFile(*graphFile, efficientimm.IngestOptions{
				Workers: *ingWorkers, Undirected: *undirected, Model: model, Seed: *seed,
			})
			fatalIf(err)
			ingStats = &st
		case "snapshot":
			var info efficientimm.SnapshotInfo
			g, info, err = efficientimm.ReadSnapshotFile(*graphFile)
			fatalIf(err)
			// The snapshot carries its model and weights; an explicit
			// conflicting -model is a mistake, not a request.
			if modelFlagSet && info.Model != model {
				fatalIf(fmt.Errorf("snapshot %s holds a %v graph but -model=%v was requested", *graphFile, info.Model, model))
			}
			model = info.Model
			weightSeed = info.Seed
		}
	case *dataset != "":
		profiles := efficientimm.Profiles()
		found := false
		for _, p := range profiles {
			if p.Name == *dataset {
				if *scale > 0 && p.Scale > *scale {
					p.Scale = *scale
				}
				g, err = p.Generate(model, *seed)
				fatalIf(err)
				found = true
				break
			}
		}
		if !found {
			fatalIf(fmt.Errorf("unknown dataset %q (use -list)", *dataset))
		}
	default:
		fatalIf(fmt.Errorf("one of -dataset or -graph is required"))
	}

	// Deltas apply after load, in flag order; each produces a new CSR
	// epoch, so the run (and any -save-snapshot) answers for the final
	// post-delta graph — the cold reference that repaired warm pools
	// (immserver's delta endpoint) must reproduce byte-for-byte.
	var deltaAdded, deltaRemoved int64
	deltaDirty := 0
	for _, path := range deltaFiles {
		d, _, derr := efficientimm.ReadDeltaFile(path)
		fatalIf(derr)
		ng, rep, derr := efficientimm.ApplyDelta(g, d, efficientimm.DeltaApplyOptions{Strict: *deltaStrict})
		fatalIf(derr)
		g = ng
		deltaAdded += rep.Added
		deltaRemoved += rep.Removed
		deltaDirty += len(rep.Dirty)
	}

	if *saveSnap != "" {
		fatalIf(efficientimm.WriteSnapshotFile(*saveSnap, g, weightSeed))
		fmt.Fprintf(os.Stderr, "efficientimm: snapshot saved to %s\n", *saveSnap)
	}

	opt := efficientimm.Defaults()
	opt.Engine = engine
	opt.Selection = selection
	opt.K = *k
	opt.Epsilon = *eps
	opt.Workers = *workers
	opt.Seed = *seed
	opt.MaxTheta = *maxTheta

	start := time.Now()
	var res *efficientimm.Result
	var comm *efficientimm.DistResult
	if *ranks > 0 {
		dopt := efficientimm.DefaultDistOptions()
		dopt.Options = opt
		dopt.Ranks = *ranks
		var dres *efficientimm.DistResult
		var derr error
		if len(peerList) > 0 {
			cl, cerr := efficientimm.ConnectCluster(efficientimm.ClusterConfig{Rank: 0, Peers: peerList}, efficientimm.DefaultClusterOptions())
			fatalIf(cerr)
			dres, derr = efficientimm.RunClusterDistributed(g, dopt, cl)
			cl.Close()
		} else {
			dres, derr = efficientimm.RunDistributed(g, dopt)
		}
		fatalIf(derr)
		res, comm = &dres.Result, dres
	} else {
		res, err = efficientimm.Run(g, opt)
		fatalIf(err)
	}
	elapsed := time.Since(start)

	out := map[string]any{
		"dataset":           *dataset,
		"graph_file":        *graphFile,
		"engine":            res.Engine.String(),
		"model":             model.String(),
		"nodes":             g.N,
		"edges":             g.M,
		"k":                 *k,
		"epsilon":           *eps,
		"workers":           *workers,
		"theta":             res.Theta,
		"coverage":          res.Coverage,
		"seeds":             res.Seeds,
		"wall_ms":           float64(elapsed) / float64(time.Millisecond),
		"sampling_wall_ms":  float64(res.Breakdown.SamplingWall) / float64(time.Millisecond),
		"selection_wall_ms": float64(res.Breakdown.SelectionWall) / float64(time.Millisecond),
		"sampling_modeled":  res.Breakdown.SamplingModeled,
		"selection_modeled": res.Breakdown.SelectionModeled,
		"rrr_bytes":         res.SetStats.TotalBytes,
		"rrr_bitmaps":       res.SetStats.Bitmaps,
		"rrr_lists":         res.SetStats.Lists,
		"selection":         selection.String(),
		// Peak pool footprint: resident set bytes, the inverted-index
		// bytes CELF selection adds, and the raw []int32-slice cost the
		// compression ratio is measured against.
		"pool_set_bytes":         res.Pool.SetBytes,
		"pool_index_bytes":       res.Pool.IndexBytes,
		"pool_raw_bytes":         res.Pool.RawBytes,
		"pool_total_bytes":       res.Pool.TotalBytes(),
		"pool_compression_ratio": res.Pool.CompressionRatio(),
	}
	if len(deltaFiles) > 0 {
		out["deltas_applied"] = len(deltaFiles)
		out["delta_edges_added"] = deltaAdded
		out["delta_edges_removed"] = deltaRemoved
		out["delta_dirty_vertices"] = deltaDirty
	}
	if ingStats != nil {
		out["ingest_workers"] = ingStats.Workers
		out["ingest_ms"] = float64(ingStats.TotalWall) / float64(time.Millisecond)
		out["ingest_mb_per_s"] = ingStats.MBPerSec()
		out["ingest_self_loops"] = ingStats.SelfLoops
		out["ingest_duplicates"] = ingStats.Duplicates
	}
	if comm != nil {
		out["ranks"] = comm.Ranks
		out["comm_bytes_sent"] = comm.Comm.BytesSent
		out["comm_bytes_received"] = comm.Comm.BytesReceived
		out["comm_messages"] = comm.Comm.Messages
		out["comm_set_gather_bytes"] = comm.Comm.SetGather.BytesSent
		out["comm_counter_reduce_bytes"] = comm.Comm.CounterReduce.BytesSent
		// Measured bytes-on-the-wire: zero for simulated (-ranks only)
		// runs, the framed-TCP transport totals for -peers runs.
		out["comm_measured_bytes_sent"] = comm.Comm.MeasuredBytesSent
		out["comm_measured_bytes_received"] = comm.Comm.MeasuredBytesReceived
		out["comm_measured_messages"] = comm.Comm.MeasuredMessages
		out["comm_failovers"] = comm.Comm.Failovers
	}
	if *spreadRuns > 0 {
		out["estimated_spread"] = efficientimm.EstimateSpread(g, res.Seeds, *spreadRuns, *workers, *seed)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	fatalIf(err)
	if *outPath != "" {
		fatalIf(os.WriteFile(*outPath, data, 0o644))
		return
	}
	fmt.Println(string(data))
}

// multiFlag collects a repeatable string flag in order.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "efficientimm:", err)
		os.Exit(1)
	}
}
