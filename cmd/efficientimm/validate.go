package main

import (
	"fmt"
	"strings"

	efficientimm "repro"
)

// cliFlags captures the flag values whose combinations need cross
// validation, plus which of them the user set explicitly (flag.Visit):
// several combinations are only contradictory when both sides were
// actually requested rather than defaulted.
type cliFlags struct {
	dataset   string
	graphFile string
	format    string // resolved: "edgelist" or "snapshot" (never "auto")
	saveSnap  string
	ranks     int
	peers     []string

	// explicitly set flags, by name
	set map[string]bool
}

// resolveFormat maps the -format flag to a concrete input format, keying
// "auto" on the .imsnap extension exactly like the loader does.
func resolveFormat(graphFile, format string) (string, error) {
	if format == "auto" {
		if strings.HasSuffix(graphFile, efficientimm.SnapshotExt) {
			return "snapshot", nil
		}
		return "edgelist", nil
	}
	if format != "edgelist" && format != "snapshot" {
		return "", fmt.Errorf("unknown -format %q (want auto, edgelist or snapshot)", format)
	}
	return format, nil
}

// validateFlags rejects mutually inconsistent flag combinations with
// actionable errors instead of silently ignoring one side. It runs
// after format resolution, so "-format auto" contradictions are caught
// on the resolved format.
func validateFlags(v cliFlags) error {
	switch {
	case v.dataset == "" && v.graphFile == "":
		return fmt.Errorf("one of -dataset or -graph is required")
	case v.dataset != "" && v.graphFile != "":
		return fmt.Errorf("-dataset %q and -graph %q are mutually exclusive: profiles are generated, not loaded", v.dataset, v.graphFile)
	}

	if v.dataset != "" {
		// Loader-only flags are contradictions against a generated profile.
		for _, f := range []string{"format", "undirected", "ingest-workers"} {
			if v.set[f] {
				return fmt.Errorf("-%s only applies to -graph input; -dataset %q is generated, not loaded", f, v.dataset)
			}
		}
	} else {
		if v.set["scale"] {
			return fmt.Errorf("-scale only applies to -dataset profiles; the size of -graph %q is fixed by its contents", v.graphFile)
		}
		if v.format == "snapshot" {
			if v.saveSnap != "" {
				return fmt.Errorf("-save-snapshot is redundant with snapshot input %q: the input already is the snapshot (load an edge list to create one)", v.graphFile)
			}
			for _, f := range []string{"undirected", "ingest-workers"} {
				if v.set[f] {
					return fmt.Errorf("-%s only applies to edge-list ingestion; snapshot %q already encodes the final graph", f, v.graphFile)
				}
			}
		}
	}

	if v.ranks < 0 {
		return fmt.Errorf("-ranks must be >= 0, got %d", v.ranks)
	}
	if v.set["peers"] {
		if v.ranks == 0 {
			return fmt.Errorf("-peers requires -ranks: the peer list describes a networked cluster, and -ranks names its size")
		}
		if len(v.peers) != v.ranks {
			return fmt.Errorf("-peers lists %d addresses but -ranks is %d; entry 0 is this root process, entries 1..N-1 are immserver -rank workers", len(v.peers), v.ranks)
		}
	}
	return nil
}

// parsePeers splits a comma-separated -peers value into trimmed,
// non-empty wire addresses; ClusterConfig.Validate catches duplicates
// and empties at connect time.
func parsePeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
