package imm

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/rrr"
)

// Tests of the CSR patch under index extension and repair: after any
// interleaving of extension rounds and slot replacements, every shard's
// index must equal a naive from-scratch build over its resident sets.

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
	switch r.Uint32n(3) {
	case 0:
		return rrr.NewListSet(vs), vs
	case 1:
		return rrr.NewCompressedSorted(vs), vs
	}
	return rrr.NewBitmapSetUnique(n, vs), vs
}

// checkShardsAgainstNaive compares every shard with a map-based build
// over model (members by global id). wantIndexed is how many entries
// each shard's index must cover.
func checkShardsAgainstNaive(t *testing.T, step int, p *shardedPool, model [][]int32, wantIndexed *[poolShards]int) {
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
	if got, want := p.stats(), rrr.Summarize(p.n, p.flatten()); got != want {
		t.Fatalf("step %d: prefix stats %+v, want %+v", step, got, want)
	}
	for s := range p.shards {
		sh := &p.shards[s]
		if sh.indexed != wantIndexed[s] {
			t.Fatalf("step %d shard %d: indexed %d, want %d", step, s, sh.indexed, wantIndexed[s])
		}
		if sh.covered != nil && sh.covered.Len() != sh.indexed {
			t.Fatalf("step %d shard %d: coverage scratch holds %d bits over %d entries", step, s, sh.covered.Len(), sh.indexed)
		}
		if sh.indexed == 0 {
			if sh.postIdx != nil || sh.postData != nil || sh.postCount != 0 {
				t.Fatalf("step %d shard %d: index present over no entries", step, s)
			}
			continue
		}
		byVertex := map[int32][]int32{}
		for j := 0; j < sh.indexed; j++ {
			for _, v := range model[j*poolShards+s] {
				byVertex[v] = append(byVertex[v], int32(j))
			}
		}
		idx, data := make([]int32, p.n+1), []int32{}
		for v := int32(0); v < p.n; v++ {
			data = append(data, byVertex[v]...) // entries were visited ascending
			idx[v+1] = int32(len(data))
		}
		if !slices.Equal(sh.postIdx, idx) || !slices.Equal(sh.postData, data) {
			t.Fatalf("step %d shard %d: CSR diverged from the naive build\nidx  %v\nwant %v\ndata %v\nwant %v",
				step, s, sh.postIdx, idx, sh.postData, data)
		}
		if sh.postCount != int64(len(data)) {
			t.Fatalf("step %d shard %d: postCount %d over %d postings", step, s, sh.postCount, len(data))
		}
		for v := int32(0); v < p.n; v++ {
			seg := sh.postings(v)
			for k := 1; k < len(seg); k++ {
				if seg[k-1] >= seg[k] {
					t.Fatalf("step %d shard %d: segment of vertex %d not strictly ascending: %v", step, s, v, seg)
				}
			}
		}
	}
}

// FuzzShardIndexPatch drives a pool through a script of three-byte steps
// (op, count, shape): grow by count sets and index them through
// ensureIndexed (op 0) or indexNewSets (op 1), grow without indexing as
// a remote generator does (op 2), or replace count random resident
// slots with fresh sets (op 3), checking every shard against the naive
// build after each.
func FuzzShardIndexPatch(f *testing.F) {
	f.Add(uint64(1), uint16(299), byte(1), []byte{0, 40, shapeFew})                                        // first build
	f.Add(uint64(2), uint16(7), byte(2), []byte{1, 60, shapeDense, 1, 60, shapeDense, 3, 9, shapeDense})   // every vertex touched
	f.Add(uint64(3), uint16(4000), byte(2), []byte{0, 50, shapeFew, 0, 1, shapeSingle, 3, 1, shapeSingle}) // one vertex touched, n ≫ sets
	f.Add(uint64(4), uint16(63), byte(3), []byte{0, 0, 0, 1, 5, shapeFew, 0, 0, 0, 1, 3, shapeEnds, 3, 4, shapeEnds, 0, 90, shapeSingle})
	f.Add(uint64(5), uint16(500), byte(4), []byte{3, 3, 0, 2, 30, shapeFew, 3, 5, shapeDense, 0, 20, shapeFew, 2, 40, shapeEnds, 3, 30, shapeFew, 1, 0, 0})
	f.Add(uint64(6), uint16(0), byte(1), []byte{0, 20, shapeSingle, 3, 20, shapeSingle})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, workersRaw byte, script []byte) {
		n := 1 + int32(nRaw%4099)
		workers := 1 + int(workersRaw%4)
		r := rng.New(seed)
		p := newShardedPool(n)
		var model [][]int32
		var wantIndexed [poolShards]int
		for step := 0; 3*step+2 < len(script) && step < 24; step++ {
			op, count, shape := script[3*step]%4, int(script[3*step+1]), script[3*step+2]
			if op < 3 {
				from, to := p.grow(p.count + int64(count))
				members := make([]int64, 1)
				for i := from; i < to; i++ {
					set, vs := fuzzSet(r, n, shape)
					p.put(i, set)
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
					for s := range wantIndexed {
						wantIndexed[s] = len(p.shards[s].sets)
					}
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
					if s, _ := shardOf(i); wantIndexed[s] > 0 {
						wantIndexed[s] = len(p.shards[s].sets)
					}
				}
				p.replace(ids, sets, workers)
			}
			checkShardsAgainstNaive(t, step, p, model, &wantIndexed)
		}
	})
}

// TestExtendAllocs pins the retained scratch: a steady-state extension
// round allocates the shard's two result arrays and nothing else.
func TestExtendAllocs(t *testing.T) {
	const n = 4096
	r := rng.New(9)
	sh := &poolShard{sets: make([]rrr.Set, 0, 256)}
	var sc indexScratch
	round := func(count int) {
		for range count {
			set, _ := fuzzSet(r, n, shapeFew)
			sh.sets = append(sh.sets, set)
		}
		sh.extend(n, &sc)
	}
	// 65 entries put the coverage scratch at two words, where the measured
	// rounds (4 entries each) leave it; the set draws themselves allocate,
	// so they are made up front.
	round(65)
	var next []rrr.Set
	for range 6 * 4 {
		set, _ := fuzzSet(r, n, shapeFew)
		next = append(next, set)
	}
	allocs := testing.AllocsPerRun(5, func() {
		sh.sets = append(sh.sets, next[:4]...)
		next = next[4:]
		sh.extend(n, &sc)
	})
	if allocs > 2 {
		t.Fatalf("extension round allocated %.0f times, want the two result arrays", allocs)
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
		var idx, data [poolShards][]int32
		for s := range st.Shards {
			if st.Shards[s].PostIdx == nil {
				t.Fatalf("shard %d froze without an index", s)
			}
			idx[s], data[s] = slices.Clone(st.Shards[s].PostIdx), slices.Clone(st.Shards[s].PostData)
		}
		return func(after string) {
			t.Helper()
			for s := range st.Shards {
				if !slices.Equal(st.Shards[s].PostIdx, idx[s]) || !slices.Equal(st.Shards[s].PostData, data[s]) {
					t.Fatalf("shard %d: frozen index changed after %s", s, after)
				}
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
