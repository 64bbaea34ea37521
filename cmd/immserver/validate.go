package main

import (
	"fmt"
	"strings"

	efficientimm "repro"
)

// clusterFlags captures the -rank/-peers placement flags plus which
// other flags the user set explicitly (flag.Visit): a worker rank runs
// no HTTP front-end and loads no graphs, so explicitly-set serving
// flags on a worker are contradictions to reject, not noise to
// silently ignore.
type clusterFlags struct {
	rank  int
	peers []string
	loads int // number of -load specs given

	// explicitly set flags, by name
	set map[string]bool
}

// servingFlags configure the HTTP warm-pool service and are meaningless
// on a worker rank, which serves generation rounds over the wire and
// receives its graphs by broadcast from the root.
var servingFlags = []string{
	"listen", "model", "workers", "max-theta",
	"pool-budget-mb", "ingest-seed", "query-workers", "queue-depth",
	"gather-window", "drain-timeout",
}

// validateClusterFlags rejects inconsistent -rank/-peers combinations
// with actionable errors. Root mode (rank 0, with or without peers)
// may boot with zero -load specs — since the graph-lifecycle API,
// graphs register at runtime via POST /v1/graphs; worker mode requires
// -peers and forbids every serving flag.
func validateClusterFlags(v clusterFlags) error {
	if v.set["rank"] && len(v.peers) == 0 {
		return fmt.Errorf("-rank requires -peers: the peer list tells rank %d where to listen", v.rank)
	}
	if len(v.peers) > 0 {
		cfg := efficientimm.ClusterConfig{Rank: v.rank, Peers: v.peers}
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	if v.rank > 0 {
		if v.loads > 0 {
			return fmt.Errorf("-load only applies to the root: rank %d receives its graphs by broadcast from rank 0", v.rank)
		}
		for _, f := range servingFlags {
			if v.set[f] {
				return fmt.Errorf("-%s only applies to the root: rank %d serves generation rounds over the wire, not HTTP queries", f, v.rank)
			}
		}
		return nil
	}
	return nil
}

// parsePeers splits a comma-separated -peers value into trimmed,
// non-empty wire addresses; ClusterConfig.Validate catches duplicates
// and empties.
func parsePeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
