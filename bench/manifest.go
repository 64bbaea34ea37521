package main

// The manifest: the one table of workload and metric names. BENCHMARK.json
// at the repository root is generated from it (`-print-manifest`), and
// manifest_test.go fails when the committed file, these tables, and what a
// run emits disagree. Later issues cite the names verbatim, so a rename is
// a breaking change to every recorded trajectory.

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// runSeconds is how long one run's timed phase measures. The driver makes
// 4 + 22 x 7 runs inside 3420 s, so a whole run (build check, input
// generation, the set-ups, the timed phase and the oracle) has about 20 s;
// twelve of them are the timed phase.
const runSeconds = 12

// workloadSpec names one workload. Loop is documentation for readers and
// the README table; BENCHMARK.json carries only name and why.
type workloadSpec struct {
	Name string
	Loop string
	Why  string
}

var workloads = []workloadSpec{
	{"cold-ic-dense", "closed, 1 caller",
		"library Run on uniform-IC R-MAT: dense bitmap sets, wall is edge traversal in generation; serve/route/wire idle"},
	{"cold-lt-sparse", "closed, 1 caller",
		"library Run on LT R-MAT: 1.5-member sets, wall is per-set overhead and the round driver; a dense-path change must not move it"},
	{"serve-warm", "closed, 2 clients",
		"router->node HTTP queries, the harness's serving mix on pre-warmed pools: generation idle, warm selection plus planner, JSON and the router hop"},
	{"serve-open", "open, seeded Poisson arrivals with same-instant pairs",
		"same state as serve-warm at a fixed arrival rate: pairs reach the gather window and admission queue, queueing amplifies service time"},
	{"tier-rotate", "closed, 1 client with think time",
		"stress case: four tenants under a 2.5-pool budget, round-robin, so every query promotes one pool and demotes another through the .impool codec"},
	{"delta-churn", "closed, 1 client",
		"small edge delta (ChurnSweep's 1e-4 rung) then query: graph.ApplyDelta, in-place pool repair and the disk-snapshot drop beside the read path"},
	{"cluster-cold", "closed, 1 client",
		"stress case: router->node->2 wire ranks, every query builds a new pool, so wire framing, set codec and dist chunking are on the critical path"},
}

// e2eSpec is one end-to-end metric. Every workload emits every one of them
// on an untraced run.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var endToEnd = []e2eSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
}

// layerSpec is one per-layer metric. On is the workloads whose traced run
// measures it (every other workload reports 0: the layer did no work there
// or was not probed); Moves is the end-to-end cell it is predicted to move.
type layerSpec struct {
	Name   string
	Unit   string
	Better string
	On     string
	Moves  string
}

const (
	onAll   = "all"
	onCold  = "cold-ic-dense cold-lt-sparse"
	onServe = "serve-warm serve-open tier-rotate delta-churn cluster-cold"
)

var perLayer = []layerSpec{
	// ingest
	{"ingest.edgelist_mb_s", "MB/s", "higher", onAll, "setup_s @ all"},
	{"ingest.parse_ms", "ms", "lower", onAll, "setup_s @ all"},
	{"ingest.build_ms", "ms", "lower", onAll, "setup_s @ all"},
	{"ingest.assign_ms", "ms", "lower", onAll, "setup_s @ all"},
	{"ingest.imsnap_write_mb_s", "MB/s", "higher", onServe, "setup_s @ serve workloads"},
	{"ingest.imsnap_read_mb_s", "MB/s", "higher", onServe, "setup_s @ serve workloads"},
	{"ingest.impool_write_mb_s", "MB/s", "higher", "tier-rotate", "latency_p50_ms @ tier-rotate"},
	{"ingest.impool_read_mb_s", "MB/s", "higher", "tier-rotate", "latency_p50_ms, serve.restart_ms @ tier-rotate"},
	{"ingest.imdelta_roundtrip_us", "us", "lower", "delta-churn", "nothing end to end (inline deltas); codec regression guard"},
	// graph
	{"graph.apply_delta_ms", "ms", "lower", "delta-churn", "latency_p50_ms @ delta-churn"},
	{"graph.dirty_vertices", "count", "lower", "delta-churn", "latency_p50_ms @ delta-churn"},
	// imm: generation
	{"imm.gen_fused_ns_edge", "ns", "lower", onCold, "latency_p50_ms, throughput_ops_s @ cold-ic-dense"},
	{"imm.gen_fused_sets_s", "1/s", "higher", onCold, "latency_p50_ms @ cold-lt-sparse, cluster-cold"},
	{"imm.gen_fused_allocs_set", "count", "lower", onCold, "latency_p50_ms @ cold-lt-sparse"},
	{"imm.gen_fused_vs_materialized", "ratio", "higher", onCold, "latency_p50_ms @ cold-*"},
	{"imm.sampling_ms", "ms", "lower", onCold, "latency_p50_ms @ cold-*"},
	{"imm.selection_ms", "ms", "lower", onCold, "latency_p50_ms @ cold-*"},
	{"imm.other_ms", "ms", "lower", onCold, "latency_p50_ms @ cold-lt-sparse"},
	{"imm.sampling_share", "ratio", "lower", onCold, "explains which kernel owns latency_p50_ms @ cold-*"},
	{"imm.theta", "count", "lower", onCold, "latency_p50_ms, pool_mb @ cold-*"},
	{"imm.rounds", "count", "lower", onCold, "latency_p50_ms @ cold-lt-sparse"},
	{"imm.avg_set_size", "count", "lower", onCold, "pool_mb @ cold-*"},
	{"imm.bitmap_sets", "count", "higher", onCold, "pool_mb @ cold-ic-dense"},
	{"imm.list_sets", "count", "higher", onCold, "pool_mb @ cold-lt-sparse"},
	{"imm.ripples_ratio", "ratio", "higher", onCold, "the paper's headline: Ripples p50 / EfficientIMM p50 @ cold-*"},
	// imm: warm, persist, repair
	{"imm.warm_answer_ms", "ms", "lower", "serve-warm", "latency_p50_ms, throughput_ops_s @ serve-warm; latency_p90_ms @ serve-open"},
	{"imm.warm_answer_allocs", "count", "lower", "serve-warm", "latency_p50_ms @ serve-warm"},
	{"imm.select_us_seed", "us", "lower", "serve-warm", "latency_p50_ms @ serve-warm"},
	{"imm.batch_answer_ms", "ms", "lower", "serve-warm", "latency_p90_ms @ serve-open"},
	{"imm.freeze_ms", "ms", "lower", "tier-rotate", "latency_p50_ms @ tier-rotate"},
	{"imm.thaw_ms", "ms", "lower", "tier-rotate", "latency_p50_ms, serve.restart_ms @ tier-rotate"},
	{"imm.graph_checksum_ms", "ms", "lower", "tier-rotate", "latency_p50_ms @ tier-rotate"},
	{"imm.repair_ms", "ms", "lower", "delta-churn", "latency_p50_ms @ delta-churn"},
	{"imm.repair_sets", "count", "lower", "delta-churn", "latency_p50_ms @ delta-churn"},
	// sched, rng, compress
	{"sched.static_forkjoin_us", "us", "lower", "cold-lt-sparse serve-warm", "latency_p50_ms @ serve-warm, cold-lt-sparse"},
	{"sched.static_allocs", "count", "lower", "cold-lt-sparse serve-warm", "latency_p50_ms @ serve-warm"},
	{"sched.dynamic_chunk_ns", "ns", "lower", "cold-lt-sparse serve-warm", "latency_p50_ms @ cold-lt-sparse"},
	{"rng.float64_ns", "ns", "lower", onCold, "latency_p50_ms @ cold-ic-dense (per edge)"},
	{"rng.seedstream_ns", "ns", "lower", onCold, "latency_p50_ms @ cold-lt-sparse (per set)"},
	{"compress.plain_encode_mb_s", "MB/s", "higher", "cluster-cold", "latency_p50_ms @ cluster-cold"},
	{"compress.plain_decode_mb_s", "MB/s", "higher", "cluster-cold", "latency_p50_ms @ cluster-cold"},
	// wire
	{"wire.frame_write_gb_s", "GB/s", "higher", "cluster-cold", "latency_p50_ms @ cluster-cold"},
	{"wire.frame_read_gb_s", "GB/s", "higher", "cluster-cold", "latency_p50_ms @ cluster-cold"},
	{"wire.roundreply_encode_mb_s", "MB/s", "higher", "cluster-cold", "latency_p50_ms @ cluster-cold"},
	{"wire.roundreply_decode_mb_s", "MB/s", "higher", "cluster-cold", "latency_p50_ms @ cluster-cold"},
	{"wire.bytes_per_set", "B", "lower", "cluster-cold", "latency_p50_ms @ cluster-cold"},
	{"wire.messages", "count", "lower", "cluster-cold", "latency_p50_ms @ cluster-cold"},
	// dist
	{"dist.round_ms", "ms", "lower", "cluster-cold", "latency_p50_ms @ cluster-cold"},
	{"dist.share_graph_ms", "ms", "lower", "cluster-cold", "setup_s @ cluster-cold"},
	{"dist.failovers", "count", "lower", "cluster-cold", "latency_p50_ms @ cluster-cold (must stay 0)"},
	{"dist.sim_run_ms", "ms", "lower", "cluster-cold", "nothing end to end; the simulated runtime the networked one must match"},
	{"dist.cluster_run_ms", "ms", "lower", "cluster-cold", "latency_p50_ms @ cluster-cold"},
	// serve
	{"serve.query_inproc_ms", "ms", "lower", "serve-warm", "latency_p50_ms @ serve-warm, serve-open"},
	{"serve.planner_overhead_ms", "ms", "lower", "serve-warm", "latency_p50_ms @ serve-warm, serve-open"},
	{"serve.http_overhead_ms", "ms", "lower", onServe, "latency_p50_ms @ serve workloads"},
	{"serve.rotate_overhead_ms", "ms", "lower", "tier-rotate", "latency_p50_ms @ tier-rotate"},
	{"serve.delta_apply_ms", "ms", "lower", "delta-churn", "latency_p50_ms @ delta-churn"},
	{"serve.savepools_ms", "ms", "lower", "tier-rotate", "serve.restart_ms @ tier-rotate"},
	{"serve.loadpools_ms", "ms", "lower", "tier-rotate", "serve.restart_ms @ tier-rotate"},
	{"serve.restart_ms", "ms", "lower", "tier-rotate", "what an operator waits for after a restart: new Server + AddSnapshot + LoadPools -> first warm answer"},
	{"serve.warm_hit_ratio", "ratio", "higher", onServe, "latency_p50_ms @ serve workloads (useful over attempted)"},
	{"serve.generated_sets", "count", "lower", onServe, "must be 0 in the timed phase @ serve-warm, serve-open, tier-rotate"},
	{"serve.batches", "count", "lower", onServe, "latency_p90_ms @ serve-open"},
	{"serve.max_batch_size", "count", "higher", onServe, "latency_p90_ms @ serve-open"},
	{"serve.batched_queries", "count", "higher", onServe, "latency_p90_ms @ serve-open"},
	{"serve.shared_extensions", "count", "higher", onServe, "latency_p90_ms @ serve-open"},
	{"serve.coalesced", "count", "higher", onServe, "latency_p90_ms @ serve-open"},
	{"serve.rejected", "count", "lower", onServe, "failed ops @ serve-open"},
	{"serve.evictions", "count", "lower", onServe, "latency_p50_ms @ cluster-cold"},
	{"serve.promotions", "count", "lower", onServe, "latency_p50_ms @ tier-rotate"},
	{"serve.demotions", "count", "lower", onServe, "latency_p50_ms @ tier-rotate"},
	{"serve.promote_failures", "count", "lower", onServe, "latency_p50_ms @ tier-rotate (must stay 0)"},
	{"serve.repaired_sets", "count", "lower", onServe, "latency_p50_ms @ delta-churn"},
	{"serve.full_resamples", "count", "lower", onServe, "latency_p50_ms @ delta-churn (must stay 0)"},
	{"serve.disk_mb", "MB", "lower", onServe, "pool_mb @ tier-rotate"},
	// route
	{"route.hop_ms", "ms", "lower", onServe, "latency_p50_ms @ every serve workload, equally"},
	{"route.owner_ns", "ns", "lower", onServe, "latency_p50_ms @ serve workloads"},
	// load generator, process, trace
	{"loadgen.late_ms", "ms", "lower", "serve-open", "validity of latency_* @ serve-open: how late the generator sent"},
	{"latency_p90_ms", "ms", "lower", onAll, "the tail a caller sees, whole phase; not gated: on the reference box it spreads 5-30% between runs of one build"},
	{"pool_mb", "MB", "lower", onAll, "what the system holds to answer; not gated: a fresh pool's accounted bytes include arena slack and differ by a quarter between runs of one seed"},
	{"loadgen.calm_p50_ms", "ms", "lower", onAll, "lowest p50 of five windows of the phase: latency_p50_ms with the box's interference taken out"},
	{"loadgen.calm_p90_ms", "ms", "lower", onAll, "lowest window p90, beside latency_p90_ms"},
	{"fail_ratio", "ratio", "lower", onAll, "failed over attempted ops, oracle mismatches included; must stay 0"},
	{"process.peak_rss_mb", "MB", "lower", onAll, "context for pool_mb"},
	{"process.cpu_s_per_op", "s", "lower", onAll, "cross-check for latency_p50_ms when wall is noisy"},
	{"process.allocs_per_op", "count", "lower", onAll, "latency_p50_ms via GC"},
	{"process.gc_cpu_share", "ratio", "lower", onAll, "latency_p90_ms via GC"},
	{"trace.overhead_pct", "%", "lower", onAll, "validity of the traced numbers (target < 5)"},
	{"trace.accounted_pct", "%", "higher", onAll, "share of the client-seen p50 the layer spans explain"},
}

// benchmarkJSON mirrors the BENCHMARK.json contract exactly: these six keys
// and no others.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadRow `json:"workloads"`
	EndToEnd   []e2eSpec     `json:"end_to_end"`
	PerLayer   []layerRow    `json:"per_layer"`
}

type workloadRow struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type layerRow struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func manifest() benchmarkJSON {
	m := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadRow{w.Name, w.Why})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, layerRow{l.Name, l.Unit, l.Better})
	}
	return m
}

func manifestBytes() []byte {
	b, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and numbers
	}
	return append(b, '\n')
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkManifest enforces the contract's limits on the tables, so a bad
// edit fails in `go test` and not in the driver.
func checkManifest() error {
	if n := len(workloads); n < 2 || n > 8 {
		return fmt.Errorf("manifest: %d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		return fmt.Errorf("manifest: %d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		return fmt.Errorf("manifest: %d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) error {
		if !nameRE.MatchString(s) {
			return fmt.Errorf("manifest: name %q is outside [A-Za-z0-9_.-]{1,64}", s)
		}
		if seen[s] {
			return fmt.Errorf("manifest: name %q is used twice", s)
		}
		seen[s] = true
		return nil
	}
	dir := func(n, better string) error {
		if better != "lower" && better != "higher" {
			return fmt.Errorf("manifest: %s: better=%q", n, better)
		}
		return nil
	}
	for _, w := range workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("manifest: workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		if err := name(m.Name); err != nil {
			return err
		}
		if err := dir(m.Name, m.Better); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("manifest: %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("manifest: %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("manifest: no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		if err := name(m.Name); err != nil {
			return err
		}
		if err := dir(m.Name, m.Better); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("manifest: %s: unit %q", m.Name, m.Unit)
		}
	}
	if n := len(manifestBytes()); n > 64<<10 {
		return fmt.Errorf("manifest: BENCHMARK.json would be %d bytes, max 64 KiB", n)
	}
	return nil
}
