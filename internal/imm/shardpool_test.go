package imm

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/counter"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/rrr"
)

// Tests of the index patch under index extension and repair: after any
// interleaving of extension rounds and slot replacements, the pool's
// index — each vertex's postings a row or a list as its count says — must
// equal a naive from-scratch build over its resident sets, a one-patch
// build, and the merge of the sixteen per-shard indexes the patch's
// predecessor maintained over the same sets.

// Accessors the tests read and build the pool's sets through.

// get returns set i as an rrr.Set of the representation the store holds
// it in.
func (p *shardedPool) get(i int64) rrr.Set {
	var c cursor
	list, row := p.sets.set(&c, i)
	if row == nil {
		return rrr.NewListSet(list)
	}
	return rrr.NewBitmapSetUnique(p.n, appendRow(nil, row, 0))
}

// flatten returns the whole pool as rrr.Sets.
func (p *shardedPool) flatten() []rrr.Set {
	sets := make([]rrr.Set, p.count)
	for i := range sets {
		sets[i] = p.get(int64(i))
	}
	return sets
}

// payload lays sets out as the store does under the pool's policy: their
// sizes, and their payloads in order.
func (p *shardedPool) payload(sets []rrr.Set) (sizes []int32, r run) {
	for _, set := range sets {
		vs := set.Vertices(nil)
		sizes = append(sizes, int32(len(vs)))
		if !p.sets.dense(int32(len(vs))) {
			r.lists = append(r.lists, vs...)
			continue
		}
		row := bitset.New(int(p.n))
		row.SetMany(vs)
		r.rows = append(r.rows, row.Words()...)
	}
	return sizes, r
}

// putAll appends sets to the pool as ids count onward, without counting
// their members.
func (p *shardedPool) putAll(sets []rrr.Set) {
	sizes, r := p.payload(sets)
	p.extend(append(slices.Clone(p.sets.sizes), sizes...), []run{r})
}

// SelectOnSetsScan is the scan kernel over explicit sets, for the tests
// that hold a pool as rrr.Sets. It stores them as lists: the seeds and
// coverage do not depend on the representation, and the modeled ops price
// every probe as a list's.
func SelectOnSetsScan(n int32, sets []rrr.Set, totalMembers int64, base *counter.Counter, workers int, update counter.UpdateStrategy, k int) ([]int32, float64, float64) {
	p := newShardedPool(n, rrr.ListOnlyPolicy())
	p.putAll(sets)
	return selectScan(&p.sets, len(sets), totalMembers, base, workers, update, k)
}

// counts returns every vertex's occurrence count as the index holds it.
func (p *shardedPool) counts() []int64 {
	c := make([]int64, p.n)
	if p.post.idx != nil {
		for v := range c {
			c[v] = p.post.count(int32(v))
		}
	}
	return c
}

// decoded returns the index as a plain CSR: each vertex's set ids,
// ascending, whatever its kind.
func (p *shardedPool) decoded() (idx []int64, data []int32) {
	idx = make([]int64, p.n+1)
	for v := int32(0); v < p.n; v++ {
		list, row := p.post.at(v)
		data = appendRow(append(data, list...), row, 0)
		idx[v+1] = int64(len(data))
	}
	return idx, data
}

// sameIndex reports whether two indexes hold the same arrays.
func sameIndex(a, b *postings) bool {
	return a.words == b.words && slices.Equal(a.idx, b.idx) && slices.Equal(a.rowAt, b.rowAt) &&
		slices.Equal(a.rowBase, b.rowBase) && slices.Equal(a.data, b.data) && slices.Equal(a.rows, b.rows)
}

// rebuilt returns the index a fresh pool builds over p's first indexed
// sets in one patch.
func (p *shardedPool) rebuilt() postings {
	q := newShardedPool(p.n, p.sets.policy)
	st, e := &p.sets, p.sets.upTo(p.indexed)
	q.extend(st.sizes[:p.indexed:p.indexed], []run{{st.lists[:e.lists], st.rows[:int64(e.bitmaps)*st.words]}})
	q.totalMembers = e.members
	q.patch(1, nil, nil)
	return q.post
}

// shardOf maps a global set id to its stripe of the oracle below: (shard,
// local entry id).
func shardOf(i int64) (int, int) { return int(i % poolShards), int(i / poolShards) }

// oracleShard is one stripe of the striped index the pool had before it
// kept a single one, kept as the differential oracle: entry j of shard s
// is global set id j*poolShards + s, and postData holds local entry ids.
type oracleShard struct {
	sets      []rrr.Set
	postIdx   []int32
	postData  []int32
	indexed   int
	postCount int64
}

type oracleScratch struct {
	mark    []int32
	touched []int32
	adds    []int32
	drop    bitset.Bitset
	buf     []int32
}

// setMembers returns set's members, ascending, as a read-only slice: a
// list's own storage, anything else decoded into buf (returned grown).
func setMembers(set rrr.Set, buf []int32) (members, _ []int32) {
	if ls, ok := set.(*rrr.ListSet); ok {
		return ls.Raw(), buf
	}
	buf = set.Vertices(buf[:0])
	return buf, buf
}

// oracleDrop flags, in oracleScratch.mark, a vertex that loses postings.
const oracleDrop = math.MinInt32

// patch is the per-shard patch, verbatim but for the coverage scratch it
// no longer sizes and the name of its drop flag.
func (s *oracleShard) patch(n int32, sc *oracleScratch, ids []int32, old []rrr.Set) (members int64) {
	if len(ids) == 0 && s.indexed == len(s.sets) {
		return 0
	}
	nn := int(n)
	if cap(sc.mark) < nn {
		sc.mark = make([]int32, nn)
	}
	mark, buf := sc.mark[:nn], sc.buf
	var vs []int32
	if len(ids) > 0 {
		sc.drop.Grow(s.indexed)
		sc.drop.SetMany(ids)
	}
	var dropped int64
	for _, set := range old {
		vs, buf = setMembers(set, buf)
		for _, v := range vs {
			mark[v] |= oracleDrop
		}
		dropped += int64(len(vs))
	}
	adds := append(sc.adds[:0], ids...)
	for j := s.indexed; j < len(s.sets); j++ {
		adds = append(adds, int32(j))
	}
	for _, j := range adds {
		vs, buf = setMembers(s.sets[j], buf)
		for _, v := range vs {
			mark[v]++
		}
		members += int64(len(vs))
	}

	idx := slices.Clone(s.postIdx)
	if idx == nil {
		idx = make([]int32, nn+1)
	}
	data := make([]int32, int64(len(s.postData))+members-dropped)
	touched := sc.touched[:0]
	// Old postings [run, lo) are pending: they all move by shift.
	var run, shift int32
	for v, c := range mark {
		lo := idx[v]
		idx[v] = lo + shift
		if c == 0 {
			continue
		}
		touched = append(touched, int32(v))
		hi := idx[v+1] // not yet shifted
		if c > 0 {
			lo = hi // nothing dropped here: the segment rides with the run
		}
		copy(data[run+shift:], s.postData[run:lo])
		w := lo + shift
		for _, id := range s.postData[lo:hi] {
			if !sc.drop.Test(int(id)) {
				data[w] = id
				w++
			}
		}
		mark[v] = w
		run, shift = hi, w+(c&^oracleDrop)-hi
	}
	copy(data[run+shift:], s.postData[run:])
	idx[nn] += shift

	for _, j := range adds {
		vs, buf = setMembers(s.sets[j], buf)
		for _, v := range vs {
			w := mark[v]
			mark[v] = w + 1
			for ; w > idx[v] && data[w-1] > j; w-- {
				data[w] = data[w-1]
			}
			data[w] = j
		}
	}
	for _, v := range touched {
		mark[v] = 0
	}
	sc.drop.ClearMany(ids)
	sc.touched, sc.adds, sc.buf = touched, adds, buf

	s.postIdx, s.postData = idx, data
	s.postCount = int64(len(data))
	s.indexed = len(s.sets)
	return members
}

// oracleIndex is the striped index over a pool's sets, driven beside the
// pool: grow and put mirror the pool's, extend and replace patch every
// shard the way the pool patches its one index.
type oracleIndex struct {
	n      int32
	shards [poolShards]oracleShard
	sc     oracleScratch
}

func (o *oracleIndex) put(i int64, set rrr.Set) {
	s, j := shardOf(i)
	sh := &o.shards[s]
	for len(sh.sets) <= j {
		sh.sets = append(sh.sets, nil)
	}
	sh.sets[j] = set
}

func (o *oracleIndex) extend() {
	for s := range o.shards {
		o.shards[s].patch(o.n, &o.sc, nil, nil)
	}
}

// replace swaps sets into the global slots ids (ascending) and patches
// every shard: the replaced entries its index covers, and its tail.
func (o *oracleIndex) replace(ids []int64, sets []rrr.Set) {
	var local [poolShards][]int32
	var old [poolShards][]rrr.Set
	for k, i := range ids {
		s, j := shardOf(i)
		sh := &o.shards[s]
		if j < sh.indexed {
			local[s] = append(local[s], int32(j))
			old[s] = append(old[s], sh.sets[j])
		}
		sh.sets[j] = sets[k]
	}
	for s := range o.shards {
		o.shards[s].patch(o.n, &o.sc, local[s], old[s])
	}
}

// merged returns the sixteen indexes as one CSR over global ids.
func (o *oracleIndex) merged() (idx []int64, data []int32) {
	idx = make([]int64, o.n+1)
	for v := int32(0); v < o.n; v++ {
		from := len(data)
		for s := range o.shards {
			sh := &o.shards[s]
			if sh.postIdx == nil {
				continue
			}
			for _, j := range sh.postData[sh.postIdx[v]:sh.postIdx[v+1]] {
				data = append(data, j*poolShards+int32(s))
			}
		}
		slices.Sort(data[from:])
		idx[v+1] = int64(len(data))
	}
	return idx, data
}

// Set shapes a fuzz step can ask for.
const (
	shapeSingle = iota // one random member
	shapeFew           // up to four
	shapeDense         // about half of all vertices
	shapeEnds          // vertices 0 and n-1, plus maybe one more
	shapes
)

// fuzzSet draws one set of the given shape over n vertices, in the
// representation policy gives its size, and returns it with its sorted
// members.
func fuzzSet(r *rng.Xoshiro256, n int32, shape byte, policy rrr.Policy) (rrr.Set, []int32) {
	var vs []int32
	pick := func() int32 { return int32(r.Uint32n(uint32(n))) }
	switch shape % shapes {
	case shapeSingle:
		vs = []int32{pick()}
	case shapeFew:
		for range 1 + r.Intn(4) {
			vs = append(vs, pick())
		}
	case shapeDense:
		for v := int32(0); v < n; v++ {
			if r.Uint64()&1 == 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			vs = []int32{pick()}
		}
	case shapeEnds:
		vs = []int32{0, n - 1}
		if r.Uint64()&1 == 0 {
			vs = append(vs, pick())
		}
	}
	slices.Sort(vs)
	vs = slices.Compact(vs)
	return policy.Build(n, slices.Clone(vs)), vs
}

// fuzzPolicy is the representation policy a fuzzed byte names: lists only
// at 0, else bitmaps from a density of raw/256 up.
func fuzzPolicy(raw byte) rrr.Policy {
	if raw == 0 {
		return rrr.ListOnlyPolicy()
	}
	return rrr.Policy{Adaptive: true, DensityThreshold: float64(raw) / 256}
}

// checkIndexAgainstNaive compares the pool's index with a map-based build
// over model (members by global id), with the oracle's merged indexes and
// with a from-scratch build, and checks each vertex's kind against its
// count. wantIndexed is how many sets the index must cover. It returns
// whether each vertex keeps a row.
func checkIndexAgainstNaive(t *testing.T, step int, p *shardedPool, model [][]int32, oracle *oracleIndex, wantIndexed int64) []bool {
	t.Helper()
	var total int64
	for i, want := range model {
		if got := p.get(int64(i)).Vertices(nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: slot %d holds %v, want %v", step, i, got, want)
		}
		total += int64(len(want))
	}
	if p.totalMembers != total {
		t.Fatalf("step %d: totalMembers %d, want %d", step, p.totalMembers, total)
	}
	if got, want := p.statsUpTo(p.count), rrr.Summarize(p.n, p.flatten()); got != want {
		t.Fatalf("step %d: prefix stats %+v, want %+v", step, got, want)
	}
	if p.indexed != wantIndexed {
		t.Fatalf("step %d: indexed %d, want %d", step, p.indexed, wantIndexed)
	}
	if p.covered != nil && int64(p.covered.Len()) != p.indexed {
		t.Fatalf("step %d: coverage scratch holds %d bits over %d sets", step, p.covered.Len(), p.indexed)
	}
	rows := make([]bool, p.n)
	if p.indexed == 0 {
		if p.post.idx != nil || p.post.data != nil || p.post.rows != nil {
			t.Fatalf("step %d: index present over no sets", step)
		}
		return rows
	}
	byVertex := map[int32][]int32{}
	for i := int64(0); i < p.indexed; i++ {
		for _, v := range model[i] {
			byVertex[v] = append(byVertex[v], int32(i))
		}
	}
	idx, data := make([]int64, p.n+1), []int32{}
	for v := int32(0); v < p.n; v++ {
		data = append(data, byVertex[v]...) // sets were visited ascending
		idx[v+1] = int64(len(data))
	}
	gotIdx, gotData := p.decoded()
	if !slices.Equal(p.post.idx, idx) || !slices.Equal(gotData, data) || !slices.Equal(gotIdx, idx) {
		t.Fatalf("step %d: index diverged from the naive build\nidx  %v\nwant %v\ndata %v\nwant %v",
			step, p.post.idx, idx, gotData, data)
	}
	if p.indexed == p.count && p.post.idx[p.n] != p.totalMembers {
		t.Fatalf("step %d: %d postings over %d members", step, p.post.idx[p.n], p.totalMembers)
	}
	if oidx, odata := oracle.merged(); !slices.Equal(gotIdx, oidx) || !slices.Equal(gotData, odata) {
		t.Fatalf("step %d: index diverged from the merged per-shard oracle", step)
	}
	if want := p.rebuilt(); !sameIndex(&p.post, &want) {
		t.Fatalf("step %d: patched index differs from a from-scratch build", step)
	}
	if p.post.words != (p.indexed+63)/64 {
		t.Fatalf("step %d: rows of %d words over %d sets", step, p.post.words, p.indexed)
	}
	for v := int32(0); v < p.n; v++ {
		rows[v] = p.post.isRow(v)
		if want := p.sets.policy.Dense(int32(p.indexed), int(p.post.count(v))); rows[v] != want {
			t.Fatalf("step %d: vertex %d in %d of %d sets keeps a row = %v", step, v, p.post.count(v), p.indexed, rows[v])
		}
	}
	return rows
}

// patchFlips counts the vertices that changed kind across patches, by the
// operation that patched: flips[op][0] a list becoming a row, [1] a row
// becoming a list (op 0 extension, 1 repair).
type patchFlips [2][2]int

// runPatchScript drives a pool through a script of three-byte steps (op,
// count, shape): grow by count sets and index them through ensureIndexed
// (op 0) or indexNewSets (op 1), grow without indexing as a remote
// generator does (op 2), or replace count random resident slots with
// fresh sets (op 3), checking the index after each. The pool stores a set
// as the density threshold policyRaw names (fuzzPolicy) says for its size,
// and a vertex's postings likewise for its count.
func runPatchScript(t *testing.T, seed uint64, nRaw uint16, workersRaw, policyRaw byte, script []byte) (flips patchFlips) {
	n := 1 + int32(nRaw%4099)
	workers := []int{1, 2, 3, 8}[workersRaw%4]
	r := rng.New(seed)
	policy := fuzzPolicy(policyRaw)
	p := newShardedPool(n, policy)
	oracle := &oracleIndex{n: n}
	var model [][]int32
	rows := make([]bool, n)
	for step := 0; 3*step+2 < len(script) && step < 24; step++ {
		op, count, shape := script[3*step]%4, int(script[3*step+1]), script[3*step+2]
		wantIndexed := p.indexed
		if op < 3 {
			from, to, err := p.grow(p.count + int64(count))
			if err != nil {
				t.Fatal(err)
			}
			members := make([]int64, 1)
			var sets []rrr.Set
			for i := from; i < to; i++ {
				set, vs := fuzzSet(r, n, shape, policy)
				sets = append(sets, set)
				oracle.put(i, set)
				model = append(model, vs)
				members[0] += int64(len(vs))
			}
			p.putAll(sets)
			p.addMembers(members)
			switch op {
			case 0:
				p.ensureIndexed(workers, make([]int64, workers))
			case 1:
				p.indexNewSets(workers)
			}
			if op < 2 {
				oracle.extend()
				wantIndexed = p.count
			}
		} else if p.count > 0 && count > 0 {
			picked := map[int64]bool{}
			for range min(count, 40) {
				picked[int64(r.Uint32n(uint32(p.count)))] = true
			}
			var ids []int64
			for i := range picked {
				ids = append(ids, i)
			}
			slices.Sort(ids)
			sets := make([]rrr.Set, len(ids))
			for k, i := range ids {
				sets[k], model[i] = fuzzSet(r, n, shape, policy)
			}
			if p.indexed > 0 {
				oracle.replace(ids, sets)
				wantIndexed = p.count
			} else {
				for k, i := range ids {
					oracle.put(i, sets[k])
				}
			}
			sizes, r := p.payload(sets)
			p.replace(ids, sizes, r, workers)
		}
		now := checkIndexAgainstNaive(t, step, p, model, oracle, wantIndexed)
		for v, row := range now {
			if row != rows[v] {
				flips[op/3][map[bool]int{true: 0, false: 1}[row]]++
			}
		}
		rows = now
	}
	return flips
}

// FuzzShardIndexPatch runs fuzzed scripts through runPatchScript. The
// seeds drive vertices across the row threshold both ways, under
// extension and repair (TestPatchFlipsKinds pins which do).
func FuzzShardIndexPatch(f *testing.F) {
	for _, c := range patchScripts {
		f.Add(c.seed, c.nRaw, c.workersRaw, c.policyRaw, c.script)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, workersRaw, policyRaw byte, script []byte) {
		runPatchScript(t, seed, nRaw, workersRaw, policyRaw, script)
	})
}

// patchScripts are FuzzShardIndexPatch's seeds.
var patchScripts = []struct {
	seed                  uint64
	nRaw                  uint16
	workersRaw, policyRaw byte
	script                []byte
}{
	{1, 299, 0, 16, []byte{0, 40, shapeFew}},                                       // first build
	{2, 7, 1, 128, []byte{1, 60, shapeDense, 1, 60, shapeDense, 3, 9, shapeDense}}, // every vertex touched
	{3, 4000, 1, 0, []byte{0, 50, shapeFew, 0, 1, shapeSingle, 3, 1, shapeSingle}}, // one vertex touched, n ≫ sets
	{4, 63, 2, 2, []byte{0, 0, 0, 1, 5, shapeFew, 0, 0, 0, 1, 3, shapeEnds, 3, 4, shapeEnds, 0, 90, shapeSingle}},
	{5, 500, 3, 64, []byte{3, 3, 0, 2, 30, shapeFew, 3, 5, shapeDense, 0, 20, shapeFew, 2, 40, shapeEnds, 3, 30, shapeFew, 1, 0, 0}},
	{6, 0, 0, 255, []byte{0, 20, shapeSingle, 3, 20, shapeSingle}},
	{7, 2, 3, 100, []byte{1, 70, shapeEnds, 3, 40, shapeEnds, 2, 9, shapeFew, 3, 40, shapeSingle}}, // more ranges than vertices
	{8, 1200, 3, 1, []byte{0, 200, shapeFew, 1, 200, shapeDense, 3, 40, shapeFew, 0, 255, shapeEnds}},
	// Rows come and go: dense sets push vertices over the threshold, a
	// sparse extension raises it past them, dense sets push them back, and
	// replacing dense sets with sparse ones drops them under it.
	{9, 200, 1, 16, []byte{0, 40, shapeDense, 0, 255, shapeSingle, 1, 120, shapeDense, 3, 40, shapeSingle, 3, 40, shapeDense, 3, 40, shapeFew}},
	{10, 130, 3, 64, []byte{1, 90, shapeDense, 3, 40, shapeFew, 3, 40, shapeFew, 0, 200, shapeEnds, 2, 30, shapeDense, 3, 20, shapeDense, 0, 1, 0}},
}

// TestPatchFlipsKinds pins that the fuzz seeds move vertices across the
// row threshold in both directions under both extension and repair.
func TestPatchFlipsKinds(t *testing.T) {
	var all patchFlips
	for _, c := range patchScripts {
		flips := runPatchScript(t, c.seed, c.nRaw, c.workersRaw, c.policyRaw, c.script)
		for op := range flips {
			for dir := range flips[op] {
				all[op][dir] += flips[op][dir]
			}
		}
	}
	for op, name := range []string{"extension", "repair"} {
		for dir, what := range []string{"a list became a row", "a row became a list"} {
			if all[op][dir] == 0 {
				t.Errorf("no seed's %s: %s", name, what)
			}
		}
	}
	t.Logf("kind flips (extension, repair) × (to row, to list): %v", all)
}

// TestTranspose64 checks the block transpose against the definition.
func TestTranspose64(t *testing.T) {
	r := rng.New(3)
	var a [64]uint64
	for i := range a {
		a[i] = r.Uint64() & r.Uint64() // sparse enough that a misplaced bit shows
	}
	want := a
	transpose64(&a)
	for i := range 64 {
		for j := range 64 {
			if a[i]>>j&1 != want[j]>>i&1 {
				t.Fatalf("bit %d of word %d is %d, bit %d of word %d was %d", j, i, a[i]>>j&1, i, j, want[j]>>i&1)
			}
		}
	}
}

// TestExtendAllocs pins the retained scratch: a steady-state extension
// round over a pool whose vertices all keep lists allocates the index's
// two result arrays and the closure of the patch's fork-join, and nothing
// else.
func TestExtendAllocs(t *testing.T) {
	const n = 4096
	const first, rounds, per = 65, 6, 4
	r := rng.New(9)
	policy := rrr.DefaultPolicy()
	var sets []rrr.Set
	for range first + rounds*per {
		set, _ := fuzzSet(r, n, shapeFew, policy)
		sets = append(sets, set)
	}
	// The store takes every round's sets up front, and a round only widens
	// the pool over them, so that what is measured is the patch alone. 65
	// sets put the coverage scratch at two words, where the measured
	// rounds (4 sets each) leave it.
	p := newShardedPool(n, policy)
	p.putAll(sets)
	p.count = 0
	extend := func(count int64) {
		for i := p.count; i < p.count+count; i++ {
			p.totalMembers += int64(p.sets.sizes[i])
		}
		p.count += count
		p.patch(1, nil, nil)
	}
	extend(first)
	allocs := testing.AllocsPerRun(rounds-1, func() { extend(per) })
	if p.post.rowAt != nil {
		t.Fatal("fixture's index has rows")
	}
	if allocs > 3 {
		t.Fatalf("extension round allocated %.0f times, want the two result arrays and the fork-join's closure", allocs)
	}
}

// TestExtendDoesNotWriteFrozenIndex guards the never-in-place rule the
// mmap thaw depends on: the index arrays a Freeze handed out must read
// the same after the live engine extends and repairs its index.
func TestExtendDoesNotWriteFrozenIndex(t *testing.T) {
	g := testGraph(t, 8, graph.LT)
	opt := Defaults()
	opt.K = 6
	opt.Seed = 3
	opt.Workers = 2
	opt.MaxTheta = 3000
	we, err := NewWarmEngine(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	runWarm(t, g, we, opt)

	// unchanged freezes the pool and returns a check that the index
	// arrays the state aliases still read as they did.
	unchanged := func() func(after string) {
		t.Helper()
		st, err := we.Freeze(0)
		if err != nil {
			t.Fatal(err)
		}
		if st.PostIdx == nil {
			t.Fatal("pool froze without an index")
		}
		idx, data, rows := slices.Clone(st.PostIdx), slices.Clone(st.PostData), slices.Clone(st.PostRows)
		return func(after string) {
			t.Helper()
			if !slices.Equal(st.PostIdx, idx) || !slices.Equal(st.PostData, data) || !slices.Equal(st.PostRows, rows) {
				t.Fatalf("frozen index changed after %s", after)
			}
		}
	}

	check := unchanged()
	we.Generate(2 * we.PhysicalSets())
	check("extension")

	check = unchanged()
	ng, drep, err := graph.ApplyDelta(g, randomDelta(g, 17, 8, 6, false), graph.DeltaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := we.ApplyDelta(ng, drep)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Resampled == 0 || rr.FullResample {
		t.Fatalf("delta should repair some slots in place, got %+v", rr)
	}
	check("repair")
}

// BenchmarkIndexExtend measures Stage B, the inverted-index patch, in
// both regimes: sparse (scale-16 LT, ~2-member sets scattered over 65 536
// vertices, where the cost is the pass over the offsets) and dense
// (scale-9 uniform IC, bitmap sets that touch most of 512 vertices, where
// it is the postings). Each op absorbs the same pre-generated sets into a
// fresh pool in five doubling rounds, closing each with a one-seed CELF
// selection — the call that brings the index up to date, and small beside
// it in time (its heap slab and gain versions, 20 bytes a vertex, are a
// fifth of the sparse regime's B/op). ns/posting divides the op by the
// postings indexed; B/op is two result arrays per round — 8 bytes a
// vertex, 4 a posting — plus the set store's arrays and that slab.
func BenchmarkIndexExtend(b *testing.B) {
	regimes := []struct {
		name       string
		scale      int
		edgeFactor float64
		model      graph.Model
		sets       int
	}{
		{"sparse", 16, 8, graph.LT, 1 << 15},
		{"dense", 9, 16, graph.IC, 1 << 10},
	}
	for _, rg := range regimes {
		b.Run(rg.name, func(b *testing.B) {
			g, err := gen.RMAT(gen.DefaultRMAT(rg.scale, rg.edgeFactor), rg.model, 1)
			if err != nil {
				b.Fatal(err)
			}
			opt := Defaults()
			policy := PolicyFromOptions(opt)
			sets := make([]rrr.Set, rg.sets)
			postings, _ := GenerateSlots(g, policy, opt.Seed, 0, sets)
			all := newShardedPool(g.N, policy)
			all.putAll(sets)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := newShardedPool(g.N, policy)
				for lo, hi := int64(0), int64(rg.sets>>4); lo < int64(rg.sets); lo, hi = hi, min(2*hi, int64(rg.sets)) {
					a, z := all.sets.upTo(lo), all.sets.upTo(hi)
					p.extend(all.sets.sizes[:hi:hi], []run{{all.sets.lists[a.lists:z.lists],
						all.sets.rows[int64(a.bitmaps)*all.sets.words : int64(z.bitmaps)*all.sets.words]}})
					p.totalMembers += z.members - a.members
					p.selectCELF(false, 1, 1, p.count)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(postings), "ns/posting")
		})
	}
}
