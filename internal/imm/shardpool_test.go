package imm

import (
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/rrr"
)

// Tests of the CSR patch under index extension and repair: after any
// interleaving of extension rounds and slot replacements, the pool's
// index must equal a naive from-scratch build over its resident sets, and
// the merge of the sixteen per-shard indexes the patch's predecessor
// maintains over the same sets.

// Accessors the tests read and write the pool's slots through.
func (p *shardedPool) get(i int64) rrr.Set      { return p.sets[i] }
func (p *shardedPool) put(i int64, set rrr.Set) { p.sets[i] = set }
func (p *shardedPool) flatten() []rrr.Set       { return p.sets[:p.count] }

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

// patch is the per-shard patch, verbatim but for the coverage scratch it
// no longer sizes.
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
			mark[v] |= dropMark
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
		run, shift = hi, w+(c&^dropMark)-hi
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

// fuzzSet draws one set of the given shape over n vertices, in a random
// representation, and returns it with its sorted members.
func fuzzSet(r *rng.Xoshiro256, n int32, shape byte) (rrr.Set, []int32) {
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
	if r.Uint32n(2) == 0 {
		return rrr.NewListSet(vs), vs
	}
	return rrr.NewBitmapSetUnique(n, vs), vs
}

// checkIndexAgainstNaive compares the pool's index with a map-based build
// over model (members by global id) and with the oracle's merged
// indexes. wantIndexed is how many sets the index must cover.
func checkIndexAgainstNaive(t *testing.T, step int, p *shardedPool, model [][]int32, oracle *oracleIndex, wantIndexed int64) {
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
	if p.indexed == 0 {
		if p.postIdx != nil || p.postData != nil {
			t.Fatalf("step %d: index present over no sets", step)
		}
		return
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
	if !slices.Equal(p.postIdx, idx) || !slices.Equal(p.postData, data) {
		t.Fatalf("step %d: CSR diverged from the naive build\nidx  %v\nwant %v\ndata %v\nwant %v",
			step, p.postIdx, idx, p.postData, data)
	}
	if p.indexed == p.count && int64(len(p.postData)) != p.totalMembers {
		t.Fatalf("step %d: %d postings over %d members", step, len(p.postData), p.totalMembers)
	}
	if oidx, odata := oracle.merged(); !slices.Equal(p.postIdx, oidx) || !slices.Equal(p.postData, odata) {
		t.Fatalf("step %d: CSR diverged from the merged per-shard oracle", step)
	}
	for v := int32(0); v < p.n; v++ {
		seg := p.postData[p.postIdx[v]:p.postIdx[v+1]]
		for k := 1; k < len(seg); k++ {
			if seg[k-1] >= seg[k] {
				t.Fatalf("step %d: segment of vertex %d not strictly ascending: %v", step, v, seg)
			}
		}
	}
}

// FuzzShardIndexPatch drives a pool through a script of three-byte steps
// (op, count, shape): grow by count sets and index them through
// ensureIndexed (op 0) or indexNewSets (op 1), grow without indexing as
// a remote generator does (op 2), or replace count random resident
// slots with fresh sets (op 3), checking the index against the naive
// build and the per-shard oracle after each.
func FuzzShardIndexPatch(f *testing.F) {
	f.Add(uint64(1), uint16(299), byte(0), []byte{0, 40, shapeFew})                                        // first build
	f.Add(uint64(2), uint16(7), byte(1), []byte{1, 60, shapeDense, 1, 60, shapeDense, 3, 9, shapeDense})   // every vertex touched
	f.Add(uint64(3), uint16(4000), byte(1), []byte{0, 50, shapeFew, 0, 1, shapeSingle, 3, 1, shapeSingle}) // one vertex touched, n ≫ sets
	f.Add(uint64(4), uint16(63), byte(2), []byte{0, 0, 0, 1, 5, shapeFew, 0, 0, 0, 1, 3, shapeEnds, 3, 4, shapeEnds, 0, 90, shapeSingle})
	f.Add(uint64(5), uint16(500), byte(3), []byte{3, 3, 0, 2, 30, shapeFew, 3, 5, shapeDense, 0, 20, shapeFew, 2, 40, shapeEnds, 3, 30, shapeFew, 1, 0, 0})
	f.Add(uint64(6), uint16(0), byte(0), []byte{0, 20, shapeSingle, 3, 20, shapeSingle})
	f.Add(uint64(7), uint16(2), byte(3), []byte{1, 70, shapeEnds, 3, 40, shapeEnds, 2, 9, shapeFew, 3, 40, shapeSingle}) // more ranges than vertices
	f.Add(uint64(8), uint16(1200), byte(3), []byte{0, 200, shapeFew, 1, 200, shapeDense, 3, 40, shapeFew, 0, 255, shapeEnds})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, workersRaw byte, script []byte) {
		n := 1 + int32(nRaw%4099)
		workers := []int{1, 2, 3, 8}[workersRaw%4]
		r := rng.New(seed)
		p := newShardedPool(n)
		oracle := &oracleIndex{n: n}
		var model [][]int32
		for step := 0; 3*step+2 < len(script) && step < 24; step++ {
			op, count, shape := script[3*step]%4, int(script[3*step+1]), script[3*step+2]
			wantIndexed := p.indexed
			if op < 3 {
				from, to, err := p.grow(p.count + int64(count))
				if err != nil {
					t.Fatal(err)
				}
				members := make([]int64, 1)
				for i := from; i < to; i++ {
					set, vs := fuzzSet(r, n, shape)
					p.put(i, set)
					oracle.put(i, set)
					model = append(model, vs)
					members[0] += int64(len(vs))
				}
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
					sets[k], model[i] = fuzzSet(r, n, shape)
				}
				if p.indexed > 0 {
					oracle.replace(ids, sets)
					wantIndexed = p.count
				} else {
					for k, i := range ids {
						oracle.put(i, sets[k])
					}
				}
				p.replace(ids, sets, workers)
			}
			checkIndexAgainstNaive(t, step, p, model, oracle, wantIndexed)
		}
	})
}

// TestExtendAllocs pins the retained scratch: a steady-state extension
// round allocates the index's two result arrays and the closure of the
// patch's fork-join, and nothing else.
func TestExtendAllocs(t *testing.T) {
	const n = 4096
	const first, rounds, per = 65, 6, 4
	r := rng.New(9)
	// The set draws themselves allocate, so they are made up front.
	var sets []rrr.Set
	for range first + rounds*per {
		set, _ := fuzzSet(r, n, shapeFew)
		sets = append(sets, set)
	}
	p := newShardedPool(n)
	extend := func(count int64) {
		from, to, err := p.grow(p.count + count)
		if err != nil {
			t.Fatal(err)
		}
		for i := from; i < to; i++ {
			p.put(i, sets[i])
			p.totalMembers += int64(sets[i].Size())
		}
		p.patch(1, nil, nil)
	}
	// The slots are sized for every round up front, so growing is free; 65
	// sets put the coverage scratch at two words, where the measured rounds
	// (4 sets each) leave it.
	if _, _, err := p.grow(int64(len(sets))); err != nil {
		t.Fatal(err)
	}
	p.count = 0
	extend(first)
	allocs := testing.AllocsPerRun(rounds-1, func() { extend(per) })
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
		idx, data := slices.Clone(st.PostIdx), slices.Clone(st.PostData)
		return func(after string) {
			t.Helper()
			if !slices.Equal(st.PostIdx, idx) || !slices.Equal(st.PostData, data) {
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
// vertex, 4 a posting — plus the set slots and that slab.
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
			sets := make([]rrr.Set, rg.sets)
			postings, _ := GenerateSlots(g, PolicyFromOptions(opt), opt.Seed, 0, sets)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := newShardedPool(g.N)
				for lo, hi := 0, rg.sets>>4; lo < rg.sets; lo, hi = hi, min(2*hi, rg.sets) {
					if _, _, err := p.grow(int64(hi)); err != nil {
						b.Fatal(err)
					}
					for j := lo; j < hi; j++ {
						p.put(int64(j), sets[j])
						p.totalMembers += int64(sets[j].Size())
					}
					p.selectCELF(nil, 1, 1, p.count)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(postings), "ns/posting")
		})
	}
}
