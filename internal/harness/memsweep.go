package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/ingest"
)

// ---------------------------------------------------------------------
// Memory/selection sweep — the adaptive-representation and CELF
// trade-offs.
// ---------------------------------------------------------------------

// MemoryRow measures one (dataset, model, pool variant) cell: resident
// pool bytes under that representation plus the modeled selection cost
// of both kernels over it. SeedsMatch confirms the variant selected the
// same seeds as the list-only baseline (representation and kernel are
// semantics-preserving).
type MemoryRow struct {
	Dataset string
	Model   string
	Variant string // slice-list | slice-adaptive
	Theta   int64

	SetBytes         int64
	IndexBytes       int64
	RawBytes         int64
	CompressionRatio float64 // raw []int32-slice bytes / SetBytes

	SelectionCELF float64 // modeled ops, lazy-greedy kernel
	SelectionScan float64 // modeled ops, eager kernel
	SeedsMatch    bool
}

// memoryVariants are the two pool configurations the sweep compares:
// every set a sorted list, and the adaptive list/bitmap pool.
var memoryVariants = []struct {
	name   string
	mutate func(*imm.Options)
}{
	{"slice-list", func(o *imm.Options) { o.AdaptiveRep = false }},
	{"slice-adaptive", func(*imm.Options) {}},
}

// MemorySweep runs the Efficient engine across the pool variants on the
// given datasets (default: the two canonical clones), recording resident
// footprint and the CELF-versus-scan selection cost. Results land in
// memory_selection_sweep.csv.
func MemorySweep(cfg Config, datasets []string) ([]MemoryRow, error) {
	if datasets == nil {
		datasets = []string{"web-Google", "com-Amazon"}
	}
	workers := cfg.Workers[len(cfg.Workers)-1]
	var rows []MemoryRow
	for _, name := range datasets {
		p, err := gen.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		if cfg.MaxScale > 0 && p.Scale > cfg.MaxScale {
			p.Scale = cfg.MaxScale
		}
		for _, model := range []graph.Model{graph.IC, graph.LT} {
			g, err := p.Generate(model, cfg.Seed)
			if err != nil {
				return nil, err
			}
			var baseline []int32
			for _, v := range memoryVariants {
				celf := cfg.options(imm.Efficient, model, workers)
				v.mutate(&celf)
				celf.Selection = imm.SelectCELF
				resCELF, err := imm.Run(g, celf)
				if err != nil {
					return nil, fmt.Errorf("harness: memory sweep %s/%v/%s: %w", name, model, v.name, err)
				}
				scan := celf
				scan.Selection = imm.SelectScan
				resScan, err := imm.Run(g, scan)
				if err != nil {
					return nil, err
				}
				if baseline == nil {
					baseline = resCELF.Seeds
				}
				rows = append(rows, MemoryRow{
					Dataset: name, Model: model.String(), Variant: v.name,
					Theta:            resCELF.Theta,
					SetBytes:         resCELF.Pool.SetBytes,
					IndexBytes:       resCELF.Pool.IndexBytes,
					RawBytes:         resCELF.Pool.RawBytes,
					CompressionRatio: resCELF.Pool.CompressionRatio(),
					SelectionCELF:    resCELF.Breakdown.SelectionModeled,
					SelectionScan:    resScan.Breakdown.SelectionModeled,
					SeedsMatch:       sameSeeds(baseline, resCELF.Seeds) && sameSeeds(baseline, resScan.Seeds),
				})
			}
		}
	}
	csv := [][]string{{"dataset", "model", "variant", "theta", "set_bytes", "index_bytes", "raw_bytes", "compression_ratio", "selection_celf_modeled", "selection_scan_modeled", "seeds_match"}}
	for _, r := range rows {
		csv = append(csv, []string{
			r.Dataset, r.Model, r.Variant, i64(r.Theta),
			i64(r.SetBytes), i64(r.IndexBytes), i64(r.RawBytes), f2(r.CompressionRatio),
			f2(r.SelectionCELF), f2(r.SelectionScan), fmt.Sprintf("%v", r.SeedsMatch),
		})
	}
	return rows, cfg.writeCSV("memory_selection_sweep.csv", csv)
}

func sameSeeds(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// CI bench digest — the regression gate's fixed measurement.
// ---------------------------------------------------------------------

// CIMetric is one gated configuration. Every field is deterministic for
// a given source tree: modeled ops are integer work counts, pool bytes
// are exact, and Seeds fingerprints the selection output — so the CI
// comparison needs no statistical smoothing, only a drift tolerance for
// intentional cost-model tweaks.
type CIMetric struct {
	Key              string  `json:"key"` // dataset/model/engine/slices
	Theta            int64   `json:"theta"`
	SamplingModeled  float64 `json:"sampling_modeled"`
	SelectionModeled float64 `json:"selection_modeled"`
	PoolSetBytes     int64   `json:"pool_set_bytes"`
	PoolIndexBytes   int64   `json:"pool_index_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`
	Seeds            string  `json:"seeds"`
}

// CIIngest is the ingestion leg of the digest: the pinned graph is
// written as text, re-ingested through the parallel pipeline, and
// snapshotted. Every field is deterministic and gated; ingest
// throughput is wall clock and therefore imbench's
// (ingest.edgelist_mb_s), not the digest's.
type CIIngest struct {
	Nodes         int32  `json:"nodes"`
	Edges         int64  `json:"edges"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
	Theta         int64  `json:"theta"`
	Seeds         string `json:"seeds"`
}

// CIDigest is the BENCH_ci.json payload: a self-describing config tag
// plus the gated metrics.
type CIDigest struct {
	Config  string     `json:"config"`
	Metrics []CIMetric `json:"metrics"`
	Ingest  *CIIngest  `json:"ingest,omitempty"`
}

// ciConfigTag names the pinned measurement configuration; bump it when
// the CIBench setup changes so stale baselines fail loudly instead of
// comparing apples to oranges.
const ciConfigTag = "web-Google@9 k=25 w=4 seed=1 thetaIC=4000 thetaLT=8000 v4+ingest"

// CIBench runs the fixed small configuration the bench-regression CI
// job gates on: the web-Google clone at scale 9, both models, the
// Ripples baseline and the Efficient engine. Roughly two seconds of
// work, fully deterministic. Keys end in "/slices", the pool segment
// they carried when there were two pool kinds, so baselines compare
// across that change.
func CIBench() (CIDigest, error) {
	digest := CIDigest{Config: ciConfigTag}
	prof, err := gen.ProfileByName("web-Google")
	if err != nil {
		return digest, err
	}
	prof.Scale = 9
	for _, model := range []graph.Model{graph.IC, graph.LT} {
		g, err := prof.Generate(model, 1)
		if err != nil {
			return digest, err
		}
		for _, engine := range []imm.EngineKind{imm.Ripples, imm.Efficient} {
			opt := imm.Defaults()
			opt.Engine = engine
			opt.Workers = 4
			opt.K = 25
			opt.Seed = 1
			if model == graph.LT {
				opt.MaxTheta = 8000
			} else {
				opt.MaxTheta = 4000
			}
			res, err := imm.Run(g, opt)
			if err != nil {
				return digest, err
			}
			digest.Metrics = append(digest.Metrics, CIMetric{
				Key:              fmt.Sprintf("web-Google/%s/%s/slices", model, engine),
				Theta:            res.Theta,
				SamplingModeled:  res.Breakdown.SamplingModeled,
				SelectionModeled: res.Breakdown.SelectionModeled,
				PoolSetBytes:     res.Pool.SetBytes,
				PoolIndexBytes:   res.Pool.IndexBytes,
				CompressionRatio: res.Pool.CompressionRatio(),
				Seeds:            fmt.Sprint(res.Seeds),
			})
		}
	}

	// Ingestion leg: text → parallel ingest → snapshot → Run. The
	// snapshot size and the seeds through the ingested graph guard the
	// loader and the codec the same way the metrics above guard the
	// engines.
	gIC, err := prof.Generate(graph.IC, 1)
	if err != nil {
		return digest, err
	}
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, gIC); err != nil {
		return digest, err
	}
	ing, st, err := ingest.Reader(&text, ingest.Options{Workers: 4, Model: graph.IC, Seed: 1})
	if err != nil {
		return digest, err
	}
	var snap bytes.Buffer
	if err := ingest.WriteSnapshot(&snap, ing, 1); err != nil {
		return digest, err
	}
	snapBytes := int64(snap.Len())
	reloaded, _, err := ingest.ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return digest, err
	}
	if !graph.Equal(ing, reloaded) {
		return digest, fmt.Errorf("harness: snapshot round trip changed the CI graph")
	}
	opt := imm.Defaults()
	opt.Workers = 4
	opt.K = 25
	opt.Seed = 1
	opt.MaxTheta = 4000
	res, err := imm.Run(reloaded, opt)
	if err != nil {
		return digest, err
	}
	digest.Ingest = &CIIngest{
		Nodes:         st.Nodes,
		Edges:         st.Edges,
		SnapshotBytes: snapBytes,
		Theta:         res.Theta,
		Seeds:         fmt.Sprint(res.Seeds),
	}
	return digest, nil
}

// WriteCIDigest writes the digest as indented JSON.
func WriteCIDigest(path string, d CIDigest) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCIDigest reads a digest written by WriteCIDigest.
func LoadCIDigest(path string) (CIDigest, error) {
	var d CIDigest
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(data, &d)
}

// CompareCI checks cur against base and returns one message per
// regression; empty means the gate passes. Cost metrics (modeled ops,
// pool bytes) may grow at most tol (e.g. 0.10 for 10%); the compression
// ratio may shrink at most tol; θ and seeds must match exactly — those
// change only when the algorithm changes, which is precisely when the
// baseline must be regenerated deliberately.
func CompareCI(base, cur CIDigest, tol float64) []string {
	var regressions []string
	if base.Config != cur.Config {
		regressions = append(regressions, fmt.Sprintf("config mismatch: baseline %q vs current %q (regenerate BENCH_baseline.json)", base.Config, cur.Config))
		return regressions
	}
	curByKey := map[string]CIMetric{}
	for _, m := range cur.Metrics {
		curByKey[m.Key] = m
	}
	grew := func(now, was float64) bool { return was > 0 && now > was*(1+tol) }
	for _, b := range base.Metrics {
		c, ok := curByKey[b.Key]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: metric missing from current run", b.Key))
			continue
		}
		delete(curByKey, b.Key)
		if c.Theta != b.Theta {
			regressions = append(regressions, fmt.Sprintf("%s: theta %d != baseline %d", b.Key, c.Theta, b.Theta))
		}
		if c.Seeds != b.Seeds {
			regressions = append(regressions, fmt.Sprintf("%s: seeds diverged from baseline", b.Key))
		}
		if grew(c.SamplingModeled, b.SamplingModeled) {
			regressions = append(regressions, fmt.Sprintf("%s: sampling modeled %+.1f%% (%.0f -> %.0f)",
				b.Key, 100*(c.SamplingModeled/b.SamplingModeled-1), b.SamplingModeled, c.SamplingModeled))
		}
		if grew(c.SelectionModeled, b.SelectionModeled) {
			regressions = append(regressions, fmt.Sprintf("%s: selection modeled %+.1f%% (%.0f -> %.0f)",
				b.Key, 100*(c.SelectionModeled/b.SelectionModeled-1), b.SelectionModeled, c.SelectionModeled))
		}
		if grew(float64(c.PoolSetBytes), float64(b.PoolSetBytes)) {
			regressions = append(regressions, fmt.Sprintf("%s: pool set bytes %+.1f%% (%d -> %d)",
				b.Key, 100*(float64(c.PoolSetBytes)/float64(b.PoolSetBytes)-1), b.PoolSetBytes, c.PoolSetBytes))
		}
		if grew(float64(c.PoolIndexBytes), float64(b.PoolIndexBytes)) {
			regressions = append(regressions, fmt.Sprintf("%s: pool index bytes %+.1f%% (%d -> %d)",
				b.Key, 100*(float64(c.PoolIndexBytes)/float64(b.PoolIndexBytes)-1), b.PoolIndexBytes, c.PoolIndexBytes))
		}
		if b.CompressionRatio > 0 && c.CompressionRatio < b.CompressionRatio*(1-tol) {
			regressions = append(regressions, fmt.Sprintf("%s: compression ratio %.2f below baseline %.2f",
				b.Key, c.CompressionRatio, b.CompressionRatio))
		}
	}
	// What is left has no baseline cell and would ship ungated.
	for _, m := range cur.Metrics {
		if _, left := curByKey[m.Key]; left {
			regressions = append(regressions, fmt.Sprintf("%s: not in baseline (regenerate BENCH_baseline.json)", m.Key))
		}
	}
	// Ingestion gate: shape, θ and seeds are deterministic and must
	// match exactly; the snapshot may grow at most tol.
	switch b, c := base.Ingest, cur.Ingest; {
	case b == nil && c != nil:
		regressions = append(regressions, "ingest: leg not in baseline (regenerate BENCH_baseline.json)")
	case b != nil && c == nil:
		regressions = append(regressions, "ingest: leg missing from current run")
	case b != nil:
		if c.Nodes != b.Nodes || c.Edges != b.Edges {
			regressions = append(regressions, fmt.Sprintf("ingest: shape %d/%d != baseline %d/%d", c.Nodes, c.Edges, b.Nodes, b.Edges))
		}
		if c.Theta != b.Theta {
			regressions = append(regressions, fmt.Sprintf("ingest: theta %d != baseline %d", c.Theta, b.Theta))
		}
		if c.Seeds != b.Seeds {
			regressions = append(regressions, "ingest: seeds through the ingested graph diverged from baseline")
		}
		if grew(float64(c.SnapshotBytes), float64(b.SnapshotBytes)) {
			regressions = append(regressions, fmt.Sprintf("ingest: snapshot bytes %+.1f%% (%d -> %d)",
				100*(float64(c.SnapshotBytes)/float64(b.SnapshotBytes)-1), b.SnapshotBytes, c.SnapshotBytes))
		}
	}
	return regressions
}
