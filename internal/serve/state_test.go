package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/imm"
	"repro/internal/rng"
)

// legalEdges lists every edge the pool-entry state machine takes, written
// out apart from poolEdges so the table test checks one against the other.
var legalEdges = map[[2]poolState]bool{
	{poolCold, poolWarm}: true, {poolCold, poolOnDisk}: true, {poolCold, poolRemoved}: true,
	{poolWarm, poolWarm}: true, {poolWarm, poolDemoting}: true, {poolWarm, poolRemoved}: true,
	{poolDemoting, poolDemoting}: true, {poolDemoting, poolOnDisk}: true, {poolDemoting, poolRemoved}: true,
	{poolOnDisk, poolWarm}: true, {poolOnDisk, poolCold}: true, {poolOnDisk, poolRemoved}: true,
}

// TestPoolStateTransitions walks every (from, to) pair of pool states
// through moveLocked with a payload that fits the target: a legal edge is
// taken with its effects (state, snapshot pointer and the file it drops,
// engine, budget bytes, registration), and an illegal one changes nothing.
// Moves whose payload contradicts the target are refused on legal edges
// too.
func TestPoolStateTransitions(t *testing.T) {
	states := []poolState{poolCold, poolWarm, poolDemoting, poolOnDisk, poolRemoved}
	dir := t.TempDir()
	file := func(name string) *diskPool {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("pool"), 0o644); err != nil {
			t.Fatal(err)
		}
		return &diskPool{path: path, bytes: 4}
	}
	exists := func(d *diskPool) bool {
		_, err := os.Stat(d.path)
		return err == nil
	}
	// setup registers an entry in state from with that state's payload.
	setup := func(from poolState) (*Server, *poolEntry) {
		s := NewServer(Options{PoolDir: dir})
		pe := &poolEntry{key: poolKey{graph: "g", seed: 1}, state: from}
		switch from {
		case poolWarm:
			pe.eng, pe.disk, pe.bytes = &imm.WarmEngine{}, file("old"), 100
		case poolDemoting:
			pe.eng, pe.disk = &imm.WarmEngine{}, file("old")
		case poolOnDisk:
			pe.disk = file("old")
		}
		if from != poolRemoved {
			s.pools[pe.key] = pe
			pe.elem = s.lru.PushFront(pe)
			s.usedBytes = pe.bytes
		}
		return s, pe
	}
	type snapshot struct {
		state      poolState
		disk       *diskPool
		eng        *imm.WarmEngine
		bytes      int64
		used       int64
		registered bool
		lru        int
	}
	look := func(s *Server, pe *poolEntry) snapshot {
		_, ok := s.pools[pe.key]
		return snapshot{pe.state, pe.disk, pe.eng, pe.bytes, s.usedBytes, ok, s.lru.Len()}
	}
	try := func(s *Server, pe *poolEntry, m move) bool {
		pe.mu.Lock()
		defer pe.mu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.moveLocked(pe, m)
	}

	for _, from := range states {
		for _, to := range states {
			s, pe := setup(from)
			m := move{to: to}
			if to == poolWarm || to == poolDemoting || to == poolOnDisk {
				m.disk = file("new")
			}
			if to == poolWarm && pe.eng == nil {
				m.eng = &imm.WarmEngine{}
			}
			before, old := look(s, pe), pe.disk
			got := try(s, pe, m)
			if want := legalEdges[[2]poolState{from, to}]; got != want {
				t.Fatalf("%v -> %v: moveLocked = %v, want %v", from, to, got, want)
			}
			after := look(s, pe)
			if !got {
				if after != before || old != nil && !exists(old) {
					t.Fatalf("%v -> %v refused but changed the entry: %+v -> %+v", from, to, before, after)
				}
				continue
			}
			wantEng, wantBytes := before.eng, before.bytes
			if m.eng != nil {
				wantEng = m.eng
			}
			if to != poolWarm {
				wantBytes = 0
			}
			registered := to != poolRemoved
			want := snapshot{to, m.disk, wantEng, wantBytes, before.used - before.bytes + wantBytes, registered, before.lru}
			if !registered {
				want.lru--
			}
			if after != want {
				t.Fatalf("%v -> %v: entry %+v, want %+v", from, to, after, want)
			}
			if old != nil && exists(old) != (m.disk != nil) {
				t.Fatalf("%v -> %v: old snapshot exists=%v with new pointer %v", from, to, exists(old), m.disk)
			}
		}
	}

	for _, c := range []struct {
		name string
		from poolState
		m    move
	}{
		{"on-disk without a snapshot", poolCold, move{to: poolOnDisk}},
		{"cold with a snapshot", poolOnDisk, move{to: poolCold, disk: file("new")}},
		{"removed with a snapshot", poolWarm, move{to: poolRemoved, disk: file("new")}},
		{"an engine into demoting", poolWarm, move{to: poolDemoting, eng: &imm.WarmEngine{}}},
		{"an engine over a resident one", poolWarm, move{to: poolWarm, eng: &imm.WarmEngine{}}},
		{"an unknown target", poolCold, move{to: poolRemoved + 1}},
		{"out of an unknown state", poolRemoved + 1, move{to: poolCold}},
	} {
		s, pe := setup(c.from)
		before := look(s, pe)
		if try(s, pe, c.m) || look(s, pe) != before {
			t.Fatalf("%s: accepted, or changed the entry", c.name)
		}
	}
}

// TestRemoveGraphDuringDemotion races RemoveGraph against the disk tier's
// two writers: a seed-2 query demoting warm seed 1, with the removal
// fired once PoolBytes moves, and a pool save, with the removal fired
// once its temp file appears. A write that commits after the removal
// must not install its snapshot, so the pool directory ends empty every
// time.
func TestRemoveGraphDuringDemotion(t *testing.T) {
	g := testGraph(t, 8, graph.IC)
	budget := pressureBudget(t, g)
	q := func(seed uint64) QueryRequest { return QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: seed} }
	run := func(t *testing.T, race func(s *Server) error, started func(s *Server, dir string, poolBytes int64) bool) {
		for i := 0; i < 40; i++ {
			dir := t.TempDir()
			s := testServer(t, Options{Workers: 1, MaxTheta: 4000, GatherWindow: -1, PoolBudgetBytes: budget, PoolDir: dir},
				map[string]*graph.Graph{"g": g})
			if _, err := s.Query(q(1)); err != nil {
				t.Fatal(err)
			}
			poolBytes := s.Stats().PoolBytes
			done := make(chan error, 1)
			go func() { done <- race(s) }()
			var err error
			finished := false
			for !finished && !started(s, dir, poolBytes) {
				select {
				case err = <-done:
					finished = true
				default:
					time.Sleep(10 * time.Microsecond)
				}
			}
			if _, _, err := s.RemoveGraph("g"); err != nil {
				t.Fatal(err)
			}
			if !finished {
				err = <-done
			}
			if err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); len(ents) != 0 || st.Pools != 0 || st.PoolBytes != 0 || st.DiskPools != 0 {
				t.Fatalf("run %d: %d files left in the pool dir after removal, stats %+v", i, len(ents), st)
			}
		}
	}
	t.Run("demote", func(t *testing.T) {
		run(t, func(s *Server) error { _, err := s.Query(q(2)); return err },
			func(s *Server, _ string, poolBytes int64) bool { return s.Stats().PoolBytes != poolBytes })
	})
	t.Run("save", func(t *testing.T) {
		run(t, func(s *Server) error { _, err := s.SavePools(""); return err },
			func(_ *Server, dir string, _ int64) bool {
				ents, _ := os.ReadDir(dir)
				return len(ents) > 0
			})
	})
}

// modelEntry is the reference model's view of one pool entry.
type modelEntry struct {
	state   poolState
	bytes   int64
	disk    bool
	corrupt bool // the snapshot was damaged on disk: the next promotion fails
}

// poolModel is the reference the server is checked against: each pool
// entry's state, bytes and snapshot, the LRU order (front = most recently
// used), each graph's content, and the tier counters.
type poolModel struct {
	entries map[poolKey]*modelEntry
	lru     []poolKey
	graphs  map[string]*graph.Graph // registered graphs only
	gen     map[string]int          // content generation, for the cold-run memo
	epoch   map[string]int64
	budget  int64

	demotions, promotions, failures, evictions int64
}

// touch moves key to the LRU front, registering it cold if it is new,
// and returns its entry.
func (m *poolModel) touch(key poolKey) *modelEntry {
	for i, k := range m.lru {
		if k == key {
			m.lru = append(m.lru[:i], m.lru[i+1:]...)
			break
		}
	}
	m.lru = append([]poolKey{key}, m.lru...)
	e := m.entries[key]
	if e == nil {
		e = &modelEntry{}
		m.entries[key] = e
	}
	return e
}

// answered applies a successful drain on key: promote or build, account
// the answer's footprint, then demote least-recently-used warm entries
// other than key until the budget holds.
func (m *poolModel) answered(key poolKey, poolBytes int64) {
	e := m.touch(key)
	switch e.state {
	case poolOnDisk:
		if e.corrupt {
			m.failures++
			e.disk, e.corrupt = false, false
		} else {
			m.promotions++
		}
	case poolCold:
		e.disk = false
	}
	e.state = poolWarm
	e.bytes = max(e.bytes, poolBytes)
	for m.used() > m.budget {
		victim := -1
		for i := len(m.lru) - 1; i >= 0; i-- {
			if v := m.entries[m.lru[i]]; v.state == poolWarm && m.lru[i] != key {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		v := m.entries[m.lru[victim]]
		v.state, v.bytes, v.disk = poolOnDisk, 0, true
		m.demotions++
	}
}

func (m *poolModel) used() int64 {
	var sum int64
	for _, e := range m.entries {
		sum += e.bytes
	}
	return sum
}

// remove drops every entry of graph name.
func (m *poolModel) remove(name string) int {
	n := 0
	for i := 0; i < len(m.lru); {
		if key := m.lru[i]; key.graph == name {
			delete(m.entries, key)
			m.lru = append(m.lru[:i], m.lru[i+1:]...)
			n++
			continue
		}
		i++
	}
	delete(m.graphs, name)
	m.evictions += int64(n)
	return n
}

// modelSteps is how many operations TestPoolEntryModel runs per seed.
const modelSteps = 150

// TestPoolEntryModel drives a tiered server and a reference model through
// one seeded sequence of operations — query, batch, delta, budget
// pressure, promotion, SavePools, a damaged snapshot, RemoveGraph and
// re-registration — and after every step checks each entry's state,
// bytes, snapshot and LRU position against the model, the budget sum,
// the disk gauges against the files, the mapping bound, and every answer
// against a cold run on the graph as it stands.
func TestPoolEntryModel(t *testing.T) {
	base := map[string]*graph.Graph{"g": testGraph(t, 8, graph.IC), "h": testGraph(t, 8, graph.LT)}
	const tenants = 4
	opt := Options{Workers: 1, MaxTheta: 4000, GatherWindow: -1}
	want := make([][]int32, tenants)
	for i := range want {
		want[i] = coldRun(t, base["g"], opt, QueryRequest{Graph: "g", K: 8, Epsilon: 0.5, Seed: uint64(i + 1)}).Seeds
	}
	opt.PoolBudgetBytes = rotationBudget(t, base["g"], opt, tenants, want)
	shapes := []struct {
		k   int
		eps float64
	}{{8, 0.5}, {4, 0.7}, {12, 0.5}, {8, 0.4}}
	names := []string{"g", "h"}

	for _, seed := range []uint64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opt := opt
			opt.PoolDir = t.TempDir()
			s := testServer(t, opt, base)
			m := &poolModel{
				entries: map[poolKey]*modelEntry{},
				graphs:  map[string]*graph.Graph{"g": base["g"], "h": base["h"]},
				gen:     map[string]int{},
				epoch:   map[string]int64{},
				budget:  opt.PoolBudgetBytes,
			}
			cold := map[string][]int32{}
			gens := 0
			check := func(step string, req QueryRequest, r *QueryResult) {
				t.Helper()
				g := m.graphs[req.Graph]
				id := fmt.Sprintf("%s/%d/%d/%d/%g", req.Graph, m.gen[req.Graph], req.Seed, req.K, req.Epsilon)
				ref, ok := cold[id]
				if !ok {
					c := coldRun(t, g, opt, req)
					ref = append(c.Seeds, int32(c.Theta))
					cold[id] = ref
				}
				if got := append(append([]int32(nil), r.Seeds...), int32(r.Theta)); !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s: %+v served %v, cold run %v", step, req, got, ref)
				}
			}
			r := rng.New(seed)
			pick := func(keys []poolKey) (poolKey, bool) {
				if len(keys) == 0 {
					return poolKey{}, false
				}
				return keys[r.Intn(len(keys))], true
			}
			keysWhere := func(ok func(e *modelEntry) bool) []poolKey {
				var out []poolKey
				for _, key := range m.lru {
					if ok(m.entries[key]) && m.graphs[key.graph] != nil {
						out = append(out, key)
					}
				}
				for _, name := range names {
					for sd := uint64(1); sd <= 3; sd++ {
						key := poolKey{graph: name, seed: sd}
						if m.entries[key] == nil && m.graphs[name] != nil && ok(&modelEntry{}) {
							out = append(out, key)
						}
					}
				}
				return out
			}
			query := func(step string, key poolKey) {
				t.Helper()
				sh := shapes[r.Intn(len(shapes))]
				req := QueryRequest{Graph: key.graph, K: sh.k, Epsilon: sh.eps, Seed: key.seed}
				res, err := s.Query(req)
				if m.graphs[key.graph] == nil {
					if !errors.Is(err, ErrUnknownGraph) {
						t.Fatalf("%s: query on a removed graph = %v", step, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				e := m.entries[key]
				warm := e != nil && (e.state == poolWarm || e.state == poolOnDisk && !e.corrupt)
				if res.Warm != warm {
					t.Fatalf("%s: %+v answered warm=%v, model says %v", step, req, res.Warm, warm)
				}
				check(step, req, res)
				m.answered(key, res.PoolBytes)
			}

			for i := 0; i < modelSteps; i++ {
				name := names[r.Intn(len(names))]
				anyKey := poolKey{graph: name, seed: uint64(1 + r.Intn(3))}
				var step string
				switch op := r.Intn(14); op {
				case 0, 1, 10:
					step = "query"
					query(step, anyKey)
				case 2, 11:
					step = "pressure"
					if key, ok := pick(keysWhere(func(e *modelEntry) bool { return e.state != poolWarm })); ok {
						query(step, key)
					}
				case 3, 12:
					step = "promote"
					if key, ok := pick(keysWhere(func(e *modelEntry) bool { return e.state == poolOnDisk })); ok {
						query(step, key)
					}
				case 4, 13:
					step = "batch"
					if m.graphs[name] == nil {
						continue
					}
					e := m.entries[anyKey]
					warm := e != nil && (e.state == poolWarm || e.state == poolOnDisk && !e.corrupt)
					first := r.Intn(len(shapes))
					var reqs []QueryRequest
					for j := 0; j < 2+r.Intn(2); j++ {
						sh := shapes[(first+j)%len(shapes)]
						reqs = append(reqs, QueryRequest{Graph: name, K: sh.k, Epsilon: sh.eps, Seed: anyKey.seed})
					}
					var poolBytes int64
					anyCold := false
					for j, item := range s.QueryBatch(reqs) {
						if item.Result == nil {
							t.Fatalf("batch member %d: %s", j, item.Error)
						}
						check(step, reqs[j], item.Result)
						poolBytes = max(poolBytes, item.Result.PoolBytes)
						anyCold = anyCold || !item.Result.Warm
					}
					if warm == anyCold {
						t.Fatalf("batch on a pool the model holds warm=%v had a cold member=%v", warm, anyCold)
					}
					m.answered(anyKey, poolBytes)
				case 5:
					step = "delta"
					g := m.graphs[name]
					if g == nil {
						continue
					}
					d := graph.Delta{Seed: uint64(i)}
					for j := 0; j < 2; j++ {
						u, v := int32(r.Intn(int(g.N))), int32(r.Intn(int(g.N)))
						if u != v {
							d.Add = append(d.Add, graph.Edge{Src: u, Dst: v})
						}
					}
					if v := int32(r.Intn(int(g.N))); g.InIndex[v+1] > g.InIndex[v] {
						d.Remove = append(d.Remove, graph.Edge{Src: g.InEdges[g.InIndex[v]], Dst: v})
					}
					ng, rep, err := graph.ApplyDelta(g, d, graph.DeltaOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.ApplyDelta(name, d, graph.DeltaOptions{}); err != nil {
						t.Fatal(err)
					}
					if !rep.Changed() {
						continue
					}
					gens++
					m.graphs[name], m.gen[name] = ng, gens
					m.epoch[name]++
					s.mu.Lock()
					for key, e := range m.entries {
						if key.graph != name {
							continue
						}
						e.disk, e.corrupt = false, false
						switch e.state {
						case poolOnDisk:
							e.state = poolCold
						case poolWarm:
							// A repaired pool's footprint is not visible from
							// outside the server; the model adopts it.
							if pe := s.pools[key]; pe != nil {
								e.bytes = pe.bytes
							}
						}
					}
					s.mu.Unlock()
				case 6:
					step = "save"
					n, err := s.SavePools("")
					if err != nil {
						t.Fatal(err)
					}
					warm := 0
					for _, e := range m.entries {
						if e.state == poolWarm {
							e.disk = true
							warm++
						}
					}
					if n != warm {
						t.Fatalf("SavePools saved %d pools, model holds %d warm", n, warm)
					}
				case 7:
					step = "damage"
					key, ok := pick(keysWhere(func(e *modelEntry) bool { return e.state == poolOnDisk && !e.corrupt }))
					if !ok {
						continue
					}
					path := filepath.Join(opt.PoolDir, poolFileName(key))
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					b[len(b)/2] ^= 0xff // same size, so the gauges still hold; the checksums do not
					if err := os.WriteFile(path, b, 0o644); err != nil {
						t.Fatal(err)
					}
					m.entries[key].corrupt = true
				case 8:
					step = "remove"
					_, n, err := s.RemoveGraph(name)
					if m.graphs[name] == nil {
						if !errors.Is(err, ErrUnknownGraph) {
							t.Fatalf("removing an unregistered graph = %v", err)
						}
						continue
					}
					if want := m.remove(name); err != nil || n != want {
						t.Fatalf("RemoveGraph(%s) = %d, %v; model removes %d", name, n, err, want)
					}
				case 9:
					step = "register"
					_, err := s.AddGraph(name, base[name], 42)
					if m.graphs[name] != nil {
						if !errors.Is(err, ErrGraphExists) {
							t.Fatalf("re-registering a live graph = %v", err)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					gens++
					m.graphs[name], m.gen[name], m.epoch[name] = base[name], gens, 0
				}
				checkModel(t, s, m, i, step)
			}
		})
	}
}

// checkModel compares the quiescent server s with the model after step i.
func checkModel(t *testing.T, s *Server, m *poolModel, i int, step string) {
	t.Helper()
	st := s.Stats()
	s.mu.Lock()
	var lru []poolKey
	for e := s.lru.Front(); e != nil; e = e.Next() {
		lru = append(lru, e.Value.(*poolEntry).key)
	}
	var used, diskBytes int64
	disks := map[string]int64{}
	for key, pe := range s.pools {
		e := m.entries[key]
		if e == nil {
			s.mu.Unlock()
			t.Fatalf("step %d (%s): server holds %v, the model does not", i, step, key)
		}
		if pe.state != e.state || pe.bytes != e.bytes || (pe.disk != nil) != e.disk {
			s.mu.Unlock()
			t.Fatalf("step %d (%s): %v is %v with %d bytes, snapshot %v; model %v with %d bytes, snapshot %v",
				i, step, key, pe.state, pe.bytes, pe.disk != nil, e.state, e.bytes, e.disk)
		}
		used += pe.bytes
		if pe.disk != nil {
			diskBytes += pe.disk.bytes
			disks[filepath.Base(pe.disk.path)] = pe.disk.bytes
		}
	}
	usedBytes := s.usedBytes
	s.mu.Unlock()

	if !slices.Equal(lru, m.lru) {
		t.Fatalf("step %d (%s): LRU %v, model %v", i, step, lru, m.lru)
	}
	if usedBytes != used || used != m.used() {
		t.Fatalf("step %d (%s): usedBytes %d, entries sum to %d, model %d", i, step, usedBytes, used, m.used())
	}
	if st.DiskPools != len(disks) || st.DiskBytes != diskBytes {
		t.Fatalf("step %d (%s): stats report %d snapshots of %d bytes; pointers %d of %d", i, step, st.DiskPools, st.DiskBytes, len(disks), diskBytes)
	}
	ents, err := os.ReadDir(s.opt.PoolDir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	files := map[string]int64{}
	for _, de := range ents {
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = fi.Size()
	}
	if !reflect.DeepEqual(files, disks) {
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Fatalf("step %d (%s): pool dir holds %v, snapshot pointers %v", i, step, names, disks)
	}
	if st.Demotions != m.demotions || st.Promotions != m.promotions || st.PromoteFailures != m.failures || st.Evictions != m.evictions {
		t.Fatalf("step %d (%s): %d demotions, %d promotions, %d failed, %d evictions; model %d, %d, %d, %d",
			i, step, st.Demotions, st.Promotions, st.PromoteFailures, st.Evictions, m.demotions, m.promotions, m.failures, m.evictions)
	}
	for name := range m.graphs {
		if info, err := s.GraphByName(name); err != nil || info.Epoch != m.epoch[name] {
			t.Fatalf("step %d (%s): graph %s at epoch %d (%v), model %d", i, step, name, info.Epoch, err, m.epoch[name])
		}
	}
	checkMappingsBounded(t, s)
}
