// Package ingest is the parallel graph-ingestion subsystem: a chunked,
// worker-parallel edge-list pipeline plus a versioned binary snapshot
// codec (snapshot.go), so a billion-edge SNAP file is parsed once and
// reloaded in milliseconds thereafter.
//
// The pipeline splits the input into byte ranges aligned to line
// boundaries and parses the chunks concurrently; ranks every raw id
// among all ids (vertex ids are densified by ascending raw id, a pure
// function of the id set) with a per-chunk byte-radix sort and one heap
// merge; and hands the dense edges to graph.BuildTopology, which lays
// out both CSR directions by counting-sort scatters. No stage runs a
// comparison sort over edges or a search per edge, and none keeps a
// per-worker table of length n. The resulting *graph.Graph — CSR arrays
// and diffusion weights alike — is byte-identical at every worker count
// and to the sequential graph.LoadEdgeList reference loader, whose
// graph.DensifyIDs/RankID are the ranking's definition. The tests pin
// exactly that.
package ingest

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/sched"
)

// Dedupe selects the self-loop/duplicate-edge policy.
type Dedupe int

const (
	// DedupeSilent drops self-loops and duplicate directed edges during
	// CSR construction — the Builder semantics every loader in this
	// repository has always applied. The drop counts are reported in
	// Stats.
	DedupeSilent Dedupe = iota
	// DedupeStrict fails ingestion when the input contains any self-loop
	// or duplicate directed edge, for pipelines that treat them as data
	// corruption rather than preprocessing noise.
	DedupeStrict
)

// Options configures one ingestion run. The zero value ingests a
// directed IC graph with seed 0 on all CPUs under the silent dedupe
// policy.
type Options struct {
	// Workers is the parse/scatter parallelism. <= 0 means
	// runtime.NumCPU(). Workers = 1 is the fully sequential path; every
	// worker count produces a byte-identical graph.
	Workers int
	// Undirected adds both directions of every edge, matching the
	// undirected com-* SNAP graphs.
	Undirected bool
	// Model and Seed select the diffusion parameter assignment
	// (graph.AssignIC / graph.AssignLT), exactly as in Builder.Build.
	Model graph.Model
	Seed  uint64
	// Dedupe is the self-loop/duplicate policy; see the Dedupe constants.
	Dedupe Dedupe
}

// Stats reports what one ingestion run did.
type Stats struct {
	Bytes      int64 // input size
	RawEdges   int64 // directed edges parsed (after undirected doubling)
	Edges      int64 // final M after dedupe
	Nodes      int32
	SelfLoops  int64 // directed self-loop records dropped (or found, under strict)
	Duplicates int64 // directed duplicate records dropped (or found, under strict)
	Workers    int

	ParseWall  time.Duration // chunked parse and id ranking
	BuildWall  time.Duration // remap to dense ids, CSR construction, validation
	AssignWall time.Duration // diffusion-parameter assignment
	TotalWall  time.Duration
}

// MBPerSec is the end-to-end ingest throughput in MiB/s.
func (s Stats) MBPerSec() float64 {
	if s.TotalWall <= 0 {
		return 0
	}
	return float64(s.Bytes) / (1 << 20) / s.TotalWall.Seconds()
}

// EdgesPerSec is the end-to-end ingest throughput in parsed edges/s.
func (s Stats) EdgesPerSec() float64 {
	if s.TotalWall <= 0 {
		return 0
	}
	return float64(s.RawEdges) / s.TotalWall.Seconds()
}

// File ingests an edge-list file. Regular files are read into memory
// by all workers in parallel (disjoint ReadAt ranges), then handed to
// Bytes; non-regular inputs (FIFOs, /dev/stdin) have no meaningful
// size or ReadAt and fall back to the streaming Reader path.
func File(path string, opt Options) (*graph.Graph, Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Stats{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, Stats{}, err
	}
	if !fi.Mode().IsRegular() {
		return Reader(f, opt)
	}
	size := fi.Size()
	data := make([]byte, size)
	workers := clampWorkers(opt.Workers, size)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo, hi := size*int64(w)/int64(workers), size*int64(w+1)/int64(workers)
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			if lo == hi {
				return
			}
			if _, err := f.ReadAt(data[lo:hi], lo); err != nil {
				errs[w] = err
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, Stats{}, fmt.Errorf("ingest: reading %s: %w", path, err)
		}
	}
	return Bytes(data, opt)
}

// Reader ingests an edge list from r (read fully into memory first;
// prefer File for large inputs, which reads in parallel).
func Reader(r io.Reader, opt Options) (*graph.Graph, Stats, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("ingest: reading edge list: %w", err)
	}
	return Bytes(data, opt)
}

// Bytes runs the full pipeline over an in-memory edge list.
func Bytes(data []byte, opt Options) (*graph.Graph, Stats, error) {
	return pipeline(data, opt, clampWorkers(opt.Workers, int64(len(data))))
}

// pipeline is Bytes with the chunk count given: rank, build, weigh.
func pipeline(data []byte, opt Options, workers int) (*graph.Graph, Stats, error) {
	start := time.Now()
	st := Stats{Bytes: int64(len(data)), Workers: workers}

	// ---- stage 1: chunked parallel parse and per-chunk id ranking ------
	bounds := chunkBounds(data, workers)
	blocks := make([]parseBlock, workers)
	eachChunk := func(fn func(c int)) {
		sched.Static(workers, workers, func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				fn(c)
			}
		})
	}
	eachChunk(func(c int) { blocks[c] = parseChunk(data, bounds[c], bounds[c+1]) })
	// Deterministic error reporting: the earliest offending byte wins,
	// regardless of which worker hit it first.
	for _, b := range blocks {
		if b.err != nil {
			line := 1 + bytes.Count(data[:b.errOff], []byte{'\n'})
			return nil, st, fmt.Errorf("ingest: line %d: %v", line, b.err)
		}
	}

	// ---- stage 2: global ranking ---------------------------------------
	// A vertex's dense number is the rank of its raw id among all ids, a
	// function of the id set alone, so it is invariant under the chunking.
	ids := mergeRanks(blocks)
	if ids > 1<<31-1 {
		return nil, st, fmt.Errorf("ingest: %d distinct vertex ids exceed int32 range", ids)
	}
	st.ParseWall = time.Since(start)

	// ---- stage 3: remap endpoints to dense ids, expand undirected ------
	buildStart := time.Now()
	expand := 1
	if opt.Undirected {
		expand = 2
	}
	offs := make([]int, workers+1)
	for c, b := range blocks {
		offs[c+1] = offs[c] + len(b.edges)*expand
	}
	edges := make([]graph.Edge, offs[workers])
	eachChunk(func(c int) { blocks[c].remap(edges[offs[c]:offs[c+1]], opt.Undirected) })
	st.RawEdges = int64(len(edges))

	// ---- stage 4: linear-time CSR construction -------------------------
	g, loops, dups := graph.BuildTopology(int32(ids), edges, workers)
	st.SelfLoops, st.Duplicates = loops, dups
	st.Edges, st.Nodes = g.M, g.N
	if opt.Dedupe == DedupeStrict && (st.SelfLoops > 0 || st.Duplicates > 0) {
		return nil, st, fmt.Errorf("ingest: strict dedupe: input contains %d self-loop(s) and %d duplicate edge(s)", st.SelfLoops, st.Duplicates)
	}
	if err := g.Validate(); err != nil {
		return nil, st, fmt.Errorf("ingest: %w", err)
	}
	st.BuildWall = time.Since(buildStart)

	// ---- stage 5: diffusion parameters ---------------------------------
	assignStart := time.Now()
	switch opt.Model {
	case graph.IC:
		graph.AssignIC(g, opt.Seed)
	case graph.LT:
		graph.AssignLT(g, opt.Seed)
	default:
		return nil, st, fmt.Errorf("ingest: unknown model %v", opt.Model)
	}
	st.AssignWall = time.Since(assignStart)
	st.TotalWall = time.Since(start)
	return g, st, nil
}

func clampWorkers(w int, size int64) int {
	if w <= 0 {
		w = runtime.NumCPU()
	}
	// No point splitting tiny inputs into empty chunks.
	return max(1, min(w, int(size/1024)+1))
}

// chunkBounds splits data into (roughly) equal byte ranges whose
// boundaries sit just after a newline, so every line lives in exactly
// one chunk. Bounds are monotone; chunks may be empty on tiny inputs.
func chunkBounds(data []byte, workers int) []int {
	bounds := make([]int, workers+1)
	bounds[workers] = len(data)
	for i := 1; i < workers; i++ {
		p := max(len(data)*i/workers, bounds[i-1])
		if nl := bytes.IndexByte(data[p:], '\n'); nl >= 0 {
			p += nl + 1 // one past the newline
		} else {
			p = len(data)
		}
		bounds[i] = p
	}
	return bounds
}

// rawEdge is one parsed edge, source then target. Ranking a side
// replaces that endpoint by its index into the side's id list.
type rawEdge [2]int64

// idList is the distinct raw ids one side (sources or targets) of one
// chunk mentions, ascending, and — once mergeRanks has run — the global
// rank of each.
type idList struct {
	ids  []int64
	rank []int32
}

type parseBlock struct {
	edges  []rawEdge // endpoints as indices into side[0] and side[1]
	side   [2]idList
	err    error
	errOff int // absolute byte offset of the offending line
}

// parseChunk parses data[lo:hi) line by line under the shared policy
// (graph.ParseEdgeLine) and ranks the chunk's ids for the merge.
func parseChunk(data []byte, lo, hi int) parseBlock {
	var b parseBlock
	edges := make([]rawEdge, 0, bytes.Count(data[lo:hi], []byte{'\n'})+1)
	var differ rawEdge // per side, the bits in which some id differs from the first
	for i := lo; i < hi; {
		j := hi
		if nl := bytes.IndexByte(data[i:hi], '\n'); nl >= 0 {
			j = i + nl
		}
		line := data[i:j]
		if len(line) > graph.MaxLineLen {
			b.err = fmt.Errorf("line exceeds %d bytes", graph.MaxLineLen)
			b.errOff = i
			return b
		}
		src, dst, skip, err := graph.ParseEdgeLine(line)
		if err != nil {
			b.err = err
			b.errOff = i
			return b
		}
		if !skip {
			edges = append(edges, rawEdge{src, dst})
			differ[0] |= src ^ edges[0][0]
			differ[1] |= dst ^ edges[0][1]
		}
		i = j + 1
	}
	tmp := make([]rawEdge, len(edges))
	for side := range b.side {
		edges, tmp = b.rankSide(side, edges, tmp, differ[side])
	}
	b.edges = edges
	return b
}

// rankSide sorts edges by one endpoint, with tmp as the second buffer,
// and replaces that endpoint by its rank among the side's distinct ids.
// The sort is an LSD byte radix that skips the bytes every id shares:
// no comparison, and a small dense id space costs two passes, not
// eight. Ids are non-negative, so byte order is id order. The edges
// move as a whole, so an endpoint ranked earlier stays with its edge.
func (b *parseBlock) rankSide(side int, edges, tmp []rawEdge, differ int64) (sorted, spare []rawEdge) {
	for shift := 0; differ>>shift != 0; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var cur [256]int
		for _, e := range edges {
			cur[e[side]>>shift&0xff]++
		}
		for d, at := 0, 0; d < 256; d++ {
			cur[d], at = at, at+cur[d]
		}
		for _, e := range edges {
			d := e[side] >> shift & 0xff
			tmp[cur[d]] = e
			cur[d]++
		}
		edges, tmp = tmp, edges
	}
	distinct := 0
	for i := range edges {
		if i == 0 || edges[i][side] != edges[i-1][side] {
			distinct++
		}
	}
	ids := make([]int64, 0, distinct)
	for i := range edges {
		if id := edges[i][side]; i == 0 || id != ids[len(ids)-1] {
			ids = append(ids, id)
		}
		edges[i][side] = int64(len(ids) - 1)
	}
	b.side[side] = idList{ids, make([]int32, distinct)}
	return edges, tmp
}

// mergeRanks fills every id list's local→global rank table by a k-way
// heap merge of the lists — two per chunk — and returns the number of
// distinct ids. It is the pipeline's one serial stage: each list entry
// is popped once, O(log chunks) apiece, and the lists together hold at
// most two ids per parsed edge, whatever the chunk count.
func mergeRanks(blocks []parseBlock) (distinct int64) {
	type cursor struct {
		*idList
		at int
	}
	heap := make([]cursor, 0, 2*len(blocks)) // lists with ids left, min-heap on the next of them
	for c := range blocks {
		for s := range blocks[c].side {
			if l := &blocks[c].side[s]; len(l.ids) > 0 {
				heap = append(heap, cursor{l, 0})
			}
		}
	}
	next := func(i int) int64 { return heap[i].ids[heap[i].at] }
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heap) {
				return
			}
			if r := l + 1; r < len(heap) && next(r) < next(l) {
				l = r
			}
			if next(i) <= next(l) {
				return
			}
			heap[i], heap[l] = heap[l], heap[i]
			i = l
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	last := int64(-1) // raw ids are non-negative
	for len(heap) > 0 {
		if id := next(0); id != last {
			last = id
			distinct++
		}
		top := &heap[0]
		top.rank[top.at] = int32(distinct - 1)
		if top.at++; top.at == len(top.ids) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return distinct
}

// remap writes the chunk's edges as dense vertex pairs into out, each
// followed by its reverse when undirected.
func (b *parseBlock) remap(out []graph.Edge, undirected bool) {
	src, dst := b.side[0].rank, b.side[1].rank
	for i, e := range b.edges {
		d := graph.Edge{Src: src[e[0]], Dst: dst[e[1]]}
		if undirected {
			out[2*i], out[2*i+1] = d, graph.Edge{Src: d.Dst, Dst: d.Src}
		} else {
			out[i] = d
		}
	}
}
