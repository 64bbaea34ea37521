package main

import (
	"strings"
	"testing"
)

func TestResolveFormat(t *testing.T) {
	cases := []struct {
		file, format string
		want         string
		wantErr      bool
	}{
		{"g.txt", "auto", "edgelist", false},
		{"g.imsnap", "auto", "snapshot", false},
		{"g.imsnap", "edgelist", "edgelist", false}, // explicit beats extension
		{"g.txt", "snapshot", "snapshot", false},
		{"g.txt", "imsnap", "", true},
	}
	for _, c := range cases {
		got, err := resolveFormat(c.file, c.format)
		if (err != nil) != c.wantErr || got != c.want {
			t.Fatalf("resolveFormat(%q, %q) = %q, %v; want %q, err=%v", c.file, c.format, got, err, c.want, c.wantErr)
		}
	}
}

func TestParsePeers(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"root:0", []string{"root:0"}},
		{"root:0, h1:9401 ,h2:9402", []string{"root:0", "h1:9401", "h2:9402"}},
		{",root:0,,h1:9401,", []string{"root:0", "h1:9401"}},
	}
	for _, c := range cases {
		got := parsePeers(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("parsePeers(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("parsePeers(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestValidateFlags(t *testing.T) {
	setOf := func(names ...string) map[string]bool {
		m := make(map[string]bool)
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name    string
		v       cliFlags
		wantErr string // substring; empty = valid
	}{
		{
			name:    "no input",
			v:       cliFlags{set: setOf()},
			wantErr: "one of -dataset or -graph",
		},
		{
			name:    "dataset and graph together",
			v:       cliFlags{dataset: "web-Google", graphFile: "g.txt", format: "edgelist", set: setOf("dataset", "graph")},
			wantErr: "mutually exclusive",
		},
		{
			name:    "save-snapshot of snapshot input",
			v:       cliFlags{graphFile: "g.imsnap", format: "snapshot", saveSnap: "out.imsnap", set: setOf("graph", "save-snapshot")},
			wantErr: "already is the snapshot",
		},
		{
			name: "save-snapshot of edge list is the point",
			v:    cliFlags{graphFile: "g.txt", format: "edgelist", saveSnap: "out.imsnap", set: setOf("graph", "save-snapshot")},
		},
		{
			name:    "undirected with snapshot input",
			v:       cliFlags{graphFile: "g.imsnap", format: "snapshot", set: setOf("graph", "undirected")},
			wantErr: "edge-list ingestion",
		},
		{
			name:    "ingest-workers with snapshot input",
			v:       cliFlags{graphFile: "g.imsnap", format: "snapshot", set: setOf("graph", "ingest-workers")},
			wantErr: "edge-list ingestion",
		},
		{
			name: "ingest-workers with edge list",
			v:    cliFlags{graphFile: "g.txt", format: "edgelist", set: setOf("graph", "ingest-workers")},
		},
		{
			name:    "format with dataset",
			v:       cliFlags{dataset: "web-Google", set: setOf("dataset", "format")},
			wantErr: "only applies to -graph",
		},
		{
			name:    "undirected with dataset",
			v:       cliFlags{dataset: "web-Google", set: setOf("dataset", "undirected")},
			wantErr: "only applies to -graph",
		},
		{
			name:    "scale with graph",
			v:       cliFlags{graphFile: "g.txt", format: "edgelist", set: setOf("graph", "scale")},
			wantErr: "only applies to -dataset",
		},
		{
			name: "scale with dataset",
			v:    cliFlags{dataset: "web-Google", set: setOf("dataset", "scale")},
		},
		{
			name: "explicit scan selection with ranks",
			v:    cliFlags{dataset: "web-Google", ranks: 4, set: setOf("dataset", "ranks", "selection")},
		},
		{
			name: "default selection with ranks",
			v:    cliFlags{dataset: "web-Google", ranks: 4, set: setOf("dataset", "ranks")},
		},
		{
			name: "explicit celf selection with ranks",
			v:    cliFlags{dataset: "web-Google", ranks: 4, set: setOf("dataset", "ranks", "selection")},
		},
		{
			name: "scan selection without ranks",
			v:    cliFlags{dataset: "web-Google", set: setOf("dataset", "selection")},
		},
		{
			name:    "negative ranks",
			v:       cliFlags{dataset: "web-Google", ranks: -1, set: setOf("dataset", "ranks")},
			wantErr: ">= 0",
		},
		{
			name:    "peers without ranks",
			v:       cliFlags{dataset: "web-Google", peers: []string{"root:0", "h1:9401"}, set: setOf("dataset", "peers")},
			wantErr: "-peers requires -ranks",
		},
		{
			name:    "peers shorter than ranks",
			v:       cliFlags{dataset: "web-Google", ranks: 3, peers: []string{"root:0", "h1:9401"}, set: setOf("dataset", "ranks", "peers")},
			wantErr: "lists 2 addresses but -ranks is 3",
		},
		{
			name: "peers matching ranks",
			v:    cliFlags{dataset: "web-Google", ranks: 3, peers: []string{"root:0", "h1:9401", "h2:9402"}, set: setOf("dataset", "ranks", "peers")},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.v)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %v does not contain %q", err, c.wantErr)
			}
		})
	}
}
