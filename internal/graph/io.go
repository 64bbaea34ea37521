package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// MaxLineLen is the longest accepted edge-list line: 1 MiB. A line's
// length counts every byte before its '\n', or before the end of the
// input — the '\r' of a CRLF ending included, since the parser reads it
// as trailing whitespace. This loader and the parallel pipeline in
// internal/ingest count and cap it the same way, so both agree on which
// inputs are valid.
const MaxLineLen = 1 << 20

// errLongLine is the verdict on a line longer than MaxLineLen.
var errLongLine = fmt.Errorf("line exceeds %d bytes", MaxLineLen)

// scanEdgeLines is bufio.ScanLines with the '\r' of a CRLF kept (the
// parser skips it) and MaxLineLen enforced on the line itself, so the
// cap does not depend on the scanner's buffer or on how the reader
// splits its reads.
func scanEdgeLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 && i <= MaxLineLen {
		return i + 1, data[:i], nil
	}
	if len(data) > MaxLineLen {
		return 0, nil, errLongLine
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Edge-list policy (shared by this sequential loader and the parallel
// pipeline in internal/ingest, which calls ParseEdgeLine):
//
//   - '#' and '%' lines are comments; blank lines are skipped. The '%'
//     form covers MatrixMarket-style "%%MatrixMarket" banners.
//   - A data line must hold EXACTLY two non-negative integers (a
//     leading '+' is accepted; see parseID). Lines with three or more
//     fields are rejected rather than misparsed — in particular the
//     "rows cols nnz" size line that follows a MatrixMarket banner is
//     an error, not the edge (rows, cols).
//   - Vertex ids are arbitrary non-negative int64s, densified to
//     [0, N) by ascending raw id. The ranking
//     depends only on the set of ids, never on the order lines are
//     read, which is what keeps parallel ingestion worker-count
//     invariant.
//   - Self-loops and duplicate edges are accepted in the input and
//     silently dropped during CSR construction, matching Builder (the
//     preprocessing applied to the paper's SNAP datasets). Callers who
//     need to detect them instead of dropping them use
//     ingest.Options.Dedupe = ingest.DedupeStrict.

// ParseEdgeLine parses one edge-list line under the policy above.
// skip reports comment/blank lines; src/dst are only meaningful when
// skip is false and err is nil. The returned error describes the first
// offending field but carries no line number — callers prepend their
// own position information.
func ParseEdgeLine(line []byte) (src, dst int64, skip bool, err error) {
	i := 0
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	if i == len(line) || line[i] == '#' || line[i] == '%' {
		return 0, 0, true, nil
	}
	src, i, err = parseID(line, i, "source")
	if err != nil {
		return 0, 0, false, err
	}
	if i == len(line) || !isSpace(line[i]) {
		return 0, 0, false, fmt.Errorf("want exactly 2 fields, got %q", string(line))
	}
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	dst, i, err = parseID(line, i, "target")
	if err != nil {
		return 0, 0, false, err
	}
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	if i != len(line) {
		return 0, 0, false, fmt.Errorf("want exactly 2 fields, got %q (MatrixMarket size headers are not edges)", string(line))
	}
	if src < 0 || dst < 0 {
		return 0, 0, false, fmt.Errorf("negative vertex id in %q", string(line))
	}
	return src, dst, false, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' }

// parseID parses a decimal field starting at line[i]. One leading sign
// is accepted: '+' is dropped, so "+7" is vertex id 7 in both loaders,
// and '-' is parsed so the caller can report "negative vertex id"
// rather than a generic syntax error. Any other non-digit fails.
func parseID(line []byte, i int, role string) (int64, int, error) {
	if i >= len(line) {
		return 0, i, fmt.Errorf("want exactly 2 fields, got %q", string(line))
	}
	neg := false
	if line[i] == '-' || line[i] == '+' {
		neg = line[i] == '-'
		i++
	}
	start := i
	var v int64
	for ; i < len(line) && line[i]-'0' <= 9; i++ {
		d := int64(line[i] - '0')
		// Eighteen digits cannot overflow; only a longer field pays for the check.
		if i-start >= 18 && v > (1<<63-1-d)/10 {
			return 0, i, fmt.Errorf("bad %s id: %q overflows int64", role, string(line))
		}
		v = v*10 + d
	}
	if i == start || (i < len(line) && !isSpace(line[i])) {
		return 0, i, fmt.Errorf("bad %s id in %q", role, string(line))
	}
	if neg {
		v = -v
	}
	return v, i, nil
}

// DensifyIDs ranks the raw ids appearing in edges: the returned slice
// is sorted and duplicate-free, so an id's dense vertex number is its
// RankID index. Ranking by ascending raw id makes the mapping a pure
// function of the id set — the property that lets the parallel pipeline
// in internal/ingest rank chunks independently and still produce
// identical graphs at every worker count.
func DensifyIDs(ids []int64) []int64 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// RankID returns id's dense vertex number under a DensifyIDs ranking.
// Together they define the densification mapping; the pipeline in
// internal/ingest computes the same ranks by radix sort and merge, and
// is pinned byte-identical to this definition by its tests.
func RankID(ids []int64, id int64) int32 {
	r, _ := slices.BinarySearch(ids, id)
	return int32(r)
}

// LoadEdgeList reads a SNAP-style whitespace-separated edge list from r:
// one "src dst" pair per line under the policy documented above. When
// undirected is set every edge is added in both directions, matching how
// the paper handles the undirected com-* SNAP graphs.
//
// This is the sequential reference loader. internal/ingest implements
// the same semantics as a chunked parallel pipeline and is pinned
// byte-identical to this function at every worker count; the public
// efficientimm.LoadEdgeList delegates there. Lines longer than
// MaxLineLen fail.
func LoadEdgeList(r io.Reader, undirected bool, model Model, seed uint64) (*Graph, error) {
	type rawEdge struct{ src, dst int64 }
	var raw []rawEdge
	sc := bufio.NewScanner(r)
	// One byte past the cap: a line of MaxLineLen bytes and its '\n' fit.
	sc.Buffer(make([]byte, 64<<10), MaxLineLen+1)
	sc.Split(scanEdgeLines)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		src, dst, skip, err := ParseEdgeLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if skip {
			continue
		}
		raw = append(raw, rawEdge{src, dst})
	}
	if err := sc.Err(); errors.Is(err, errLongLine) {
		return nil, fmt.Errorf("graph: line %d: %v", lineNo+1, err)
	} else if err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}

	// Densify ids by ascending raw id: SNAP files frequently have sparse
	// id spaces, and rank densification keeps the mapping independent of
	// line order (see DensifyIDs).
	ids := make([]int64, 0, 2*len(raw))
	for _, e := range raw {
		ids = append(ids, e.src, e.dst)
	}
	ids = DensifyIDs(ids)
	if int64(len(ids)) > int64(1)<<31-1 {
		return nil, fmt.Errorf("graph: %d distinct vertex ids exceed int32 range", len(ids))
	}
	b := NewBuilder(int32(len(ids)))
	for _, e := range raw {
		s, d := RankID(ids, e.src), RankID(ids, e.dst)
		if undirected {
			b.AddUndirected(s, d)
		} else {
			b.AddEdge(s, d)
		}
	}
	g, err := b.Build(model, seed)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// LoadEdgeListFile opens path and delegates to LoadEdgeList.
func LoadEdgeListFile(path string, undirected bool, model Model, seed uint64) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEdgeList(f, undirected, model, seed)
}

// WriteEdgeList writes the forward edges of g as a SNAP-style edge list
// with a descriptive header comment.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# Directed graph: %d nodes, %d edges\n# src\tdst\n", g.N, g.M); err != nil {
		return err
	}
	for u := int32(0); u < g.N; u++ {
		for _, v := range g.OutNeighbors(u) {
			if _, err := fmt.Fprintf(bw, "%d\t%d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteEdgeListFile creates path and delegates to WriteEdgeList.
func WriteEdgeListFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
