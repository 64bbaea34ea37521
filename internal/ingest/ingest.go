// Package ingest is the parallel graph-ingestion subsystem: a chunked,
// worker-parallel edge-list pipeline plus a versioned binary snapshot
// codec (snapshot.go), so a billion-edge SNAP file is parsed once and
// reloaded in milliseconds thereafter.
//
// The pipeline splits the input into byte ranges aligned to line
// boundaries and parses the chunks concurrently; ranks every raw id
// among all ids (vertex ids are densified by ascending raw id, a pure
// function of the id set) with a per-chunk byte-radix sort, which also
// leaves each chunk a (src, dst)-sorted run, and one heap merge of the
// id lists; merges the runs into one sorted list of dense edges; and
// hands it to graph.BuildTopology, which then skips its own sorting and
// lays out both CSR directions by counting-sort scatters. No stage runs
// a comparison sort over edges or a search per edge, and none keeps a
// per-worker table of length n. The resulting *graph.Graph — CSR arrays
// and diffusion weights alike — is byte-identical at every worker count
// and to the sequential graph.LoadEdgeList reference loader, whose
// graph.DensifyIDs/RankID are the ranking's definition. The tests pin
// exactly that.
package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sort"
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
	BuildWall  time.Duration // run merge to dense ids, CSR construction, validation
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
	sched.Static(workers, workers, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			blocks[c] = parseChunk(data, bounds[c], bounds[c+1])
		}
	})
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

	// ---- stage 3: merge the chunks' runs into dense (src, dst) order ---
	buildStart := time.Now()
	m := 0
	for _, b := range blocks {
		m += len(b.edges)
	}
	if opt.Undirected {
		m *= 2
	}
	edges := make([]graph.Edge, m)
	mergeRuns(blocks, edges, opt.Undirected)
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

// parseChunk parses data[lo:hi) line by line and ranks the chunk's ids
// for the merge. A line of the common shape takes the fused scanner
// (scanEdge); every other line, and any line the scanner gives up on,
// goes to the shared policy (graph.ParseEdgeLine), which alone decides
// what is accepted and how a rejection reads.
func parseChunk(data []byte, lo, hi int) parseBlock {
	var b parseBlock
	edges := make([]rawEdge, 0, bytes.Count(data[lo:hi], []byte{'\n'})+1)
	var differ rawEdge     // per side, the bits in which some id differs from the first
	var low [2][2][256]int // per side, the histograms of the two low id bytes
	for i := lo; i < hi; {
		src, dst, next, ok := scanEdge(data, i, hi)
		if !ok || next-1-i > graph.MaxLineLen {
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
			var skip bool
			var err error
			src, dst, skip, err = graph.ParseEdgeLine(line)
			if err != nil {
				b.err = err
				b.errOff = i
				return b
			}
			if next = j + 1; skip {
				i = next
				continue
			}
		}
		edges = append(edges, rawEdge{src, dst})
		differ[0] |= src ^ edges[0][0]
		differ[1] |= dst ^ edges[0][1]
		low[0][0][src&0xff]++
		low[0][1][src>>8&0xff]++
		low[1][0][dst&0xff]++
		low[1][1][dst>>8&0xff]++
		i = next
	}
	// Targets first, then sources: the LSD sort leaves the chunk in
	// (src, dst) order, the order mergeRuns and BuildTopology want.
	tmp := make([]rawEdge, len(edges))
	edges, tmp = b.rankSide(1, edges, tmp, differ[1], &low[1])
	edges, _ = b.rankSide(0, edges, tmp, differ[0], &low[0])
	b.edges = edges
	return b
}

// scanEdge parses the common line "digits [ \t]+ digits \n" at
// data[i:hi), reading nothing at or past hi; next is one past the
// newline. ok is false for every other line — a sign, a '\r', any other
// whitespace, a comment, no newline before hi, an id of more than 16
// digits — and the caller then parses the line under the shared policy.
func scanEdge(data []byte, i, hi int) (src, dst int64, next int, ok bool) {
	if src, i, ok = scanDigits(data, i, hi); !ok || i == hi || (data[i] != ' ' && data[i] != '\t') {
		return 0, 0, 0, false
	}
	for i++; i < hi && (data[i] == ' ' || data[i] == '\t'); i++ {
	}
	if dst, i, ok = scanDigits(data, i, hi); !ok || i == hi || data[i] != '\n' {
		return 0, 0, 0, false
	}
	return src, dst, i + 1, true
}

// scanDigits reads the run of decimal digits at data[i:hi), a word of
// eight bytes at a time while one fits before hi. ok is false when the
// run is empty or longer than 16 digits, so v never overflows.
func scanDigits(data []byte, i, hi int) (v int64, next int, ok bool) {
	start := i
	for ; i+8 <= hi && i-start < 16; i += 8 {
		// XOR maps '0'..'9' to 0..9; a byte is a digit iff its high
		// nibble is then 0 and its low nibble plus 6 does not reach 16.
		w := binary.LittleEndian.Uint64(data[i:]) ^ 0x3030303030303030
		nondigit := w&0xF0F0F0F0F0F0F0F0 | (w&0x0F0F0F0F0F0F0F0F+0x0606060606060606)&0x1010101010101010
		if k := bits.TrailingZeros64(nondigit) / 8; k < 8 {
			if k > 0 { // the k digits, shifted to the top, after 8-k leading zeros
				v = v*pow10[k] + eightDigits(w<<(64-8*k))
			}
			return v, i + k, i+k > start && i+k-start <= 16
		}
		v = v*1e8 + eightDigits(w)
	}
	for ; i < hi && data[i]-'0' <= 9; i++ {
		v = v*10 + int64(data[i]-'0')
	}
	return v, i, i > start && i-start <= 16
}

var pow10 = [9]int64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// eightDigits is the value of eight digit bytes 0..9, the first (least
// significant) byte of w the most significant digit: three multiplies
// combine pairs, then quads, then the halves.
func eightDigits(w uint64) int64 {
	w = w*10 + w>>8
	w = ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return int64(uint32(w))
}

// rankSide sorts edges by one endpoint, with tmp as the second buffer,
// and replaces that endpoint by its rank among the side's distinct ids.
// The sort is an LSD byte radix that skips the bytes every id shares:
// no comparison, and a small dense id space costs two passes, not
// eight. Ids are non-negative, so byte order is id order. low holds
// the side's counts of the two low bytes, which the parse loop took, so
// only higher bytes need a counting pass. The edges move as a whole and
// the sort is stable, so an endpoint ranked earlier stays with its edge
// and keeps its order among equal keys.
func (b *parseBlock) rankSide(side int, edges, tmp []rawEdge, differ int64, low *[2][256]int) (sorted, spare []rawEdge) {
	for shift := 0; differ>>shift != 0; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var cur [256]int
		if shift < 16 {
			cur = low[shift/8]
		} else {
			for _, e := range edges {
				cur[e[side]>>shift&0xff]++
			}
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

// mergeRuns writes every chunk's edges as dense (rank[src], rank[dst])
// pairs into out in (src, dst) order, each followed by its reverse when
// undirected. A chunk's edges are already a run in that order: rankSide
// sorted them by target, then stably by source, and local→global ranks
// are monotone. The output is cut into one part per chunk by key range,
// the cuts quantiles of a sample of every run, and each part merges its
// slice of every run with a heap: O(m log chunks) work, none of it
// serial. Equal keys are equal edges, so ties need no order.
func mergeRuns(blocks []parseBlock, out []graph.Edge, undirected bool) {
	parts := len(blocks)
	runKey := func(c, i int) uint64 {
		b := &blocks[c]
		return edgeKey(b.side[0].rank[b.edges[i][0]], b.side[1].rank[b.edges[i][1]])
	}
	samples := make([]uint64, 0, parts*(parts-1))
	for c := range blocks {
		if n := len(blocks[c].edges); n > 0 {
			for s := 1; s < parts; s++ {
				samples = append(samples, runKey(c, n*s/parts))
			}
		}
	}
	slices.Sort(samples)
	// Part p takes the keys in [cut(p), cut(p+1)).
	cut := func(p int) uint64 {
		switch {
		case p == parts:
			return math.MaxUint64 // above every key: ranks are below 2^31
		case p == 0 || len(samples) == 0:
			return 0
		}
		return samples[len(samples)*p/parts]
	}
	expand := 1
	if undirected {
		expand = 2
	}
	sched.Static(parts, parts, func(p, _, _ int) {
		lo, hi := cut(p), cut(p+1)
		heap := make([]run, 0, parts)
		at := 0
		for c := range blocks {
			b := &blocks[c]
			first := sort.Search(len(b.edges), func(i int) bool { return runKey(c, i) >= lo })
			end := sort.Search(len(b.edges), func(i int) bool { return runKey(c, i) >= hi })
			at += first
			if first < end {
				r := run{edges: b.edges[first:end], src: b.side[0].rank, dst: b.side[1].rank}
				r.key = r.head()
				heap = append(heap, r)
			}
		}
		at *= expand
		emit := func(k uint64) {
			e := graph.Edge{Src: int32(k >> 32), Dst: int32(uint32(k))}
			if out[at] = e; undirected {
				out[at+1] = graph.Edge{Src: e.Dst, Dst: e.Src}
			}
			at += expand
		}
		for i := len(heap)/2 - 1; i >= 0; i-- {
			siftDown(heap, i)
		}
		for len(heap) > 0 {
			top := &heap[0]
			emit(top.key)
			if top.edges = top.edges[1:]; len(top.edges) > 0 {
				top.key = top.head()
			} else {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
			}
			siftDown(heap, 0)
		}
	})
}

// edgeKey packs a dense edge so that key order is (src, dst) order.
func edgeKey(src, dst int32) uint64 { return uint64(src)<<32 | uint64(dst) }

// run is the unmerged rest of one chunk's slice of a mergeRuns part.
type run struct {
	key      uint64    // edgeKey of edges[0]
	edges    []rawEdge // endpoints as indices into src and dst
	src, dst []int32   // the chunk's local→global rank tables
}

func (r *run) head() uint64 { return edgeKey(r.src[r.edges[0][0]], r.dst[r.edges[0][1]]) }

// siftDown restores the min-heap order on key below heap[i].
func siftDown(heap []run, i int) {
	for {
		l := 2*i + 1
		if l >= len(heap) {
			return
		}
		if r := l + 1; r < len(heap) && heap[r].key < heap[l].key {
			l = r
		}
		if heap[i].key <= heap[l].key {
			return
		}
		heap[i], heap[l] = heap[l], heap[i]
		i = l
	}
}
