package imm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// goldenKernel holds, per graph regime and RNG seed, the FNV-1a hash of a
// full run's pool contents (every set's kind and sorted members, in slot
// order), its seeds, θ and the samplers' summed EdgesVisited. The values
// were captured at commit a30e03a — the visitor-seam kernel this
// package's traversal replaced — so byte-identity is checked against the
// old kernel rather than new-against-new. They are the same for every
// worker count by the slot-indexed-stream contract.
var goldenKernel = map[string]uint64{
	"dense-ic/1": 0xc5a1d7b2085d62b9,
	"dense-ic/2": 0xbfeb0e9bec872b20,
	"dense-ic/3": 0x4dad8aa239379ed3,
	"wc-ic/1":    0x0983a4835b61375d,
	"wc-ic/2":    0x4499982557be5993,
	"wc-ic/3":    0x4b3f295db2de356d,
	"lt/1":       0xdc35f40bdb67e9ea,
	"lt/2":       0xdb6a2a065017f6ce,
	"lt/3":       0xd247df8add97d693,
}

func goldenGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	var g *graph.Graph
	var err error
	switch name {
	case "dense-ic": // uniform IC: most sets cross the bitmap threshold
		g, err = gen.RMAT(gen.DefaultRMAT(8, 16), graph.IC, 42)
	case "wc-ic": // weighted cascade: small list sets
		if g, err = gen.RMAT(gen.DefaultRMAT(9, 8), graph.IC, 42); err == nil {
			graph.AssignWC(g)
		}
	case "lt":
		g, err = gen.RMAT(gen.DefaultRMAT(9, 8), graph.LT, 42)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func goldenHash(res *Result, eng *WarmEngine) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(res.Theta))
	for _, s := range res.Seeds {
		put(uint64(s))
	}
	var edges int64
	for _, gw := range eng.gen {
		edges += gw.smp.EdgesVisited
	}
	put(uint64(edges))
	var verts []int32
	for _, set := range eng.p.flatten() {
		h.Write([]byte(set.Kind()))
		verts = set.Vertices(verts[:0])
		put(uint64(len(verts)))
		for _, v := range verts {
			put(uint64(v))
		}
	}
	return h.Sum64()
}

func TestGoldenParentKernel(t *testing.T) {
	for _, name := range []string{"dense-ic", "wc-ic", "lt"} {
		g := goldenGraph(t, name)
		for _, seed := range []uint64{1, 2, 3} {
			key := fmt.Sprintf("%s/%d", name, seed)
			for _, workers := range []int{1, 2, 3} {
				opt := Defaults()
				opt.K = 8
				opt.MaxTheta = 3000
				opt.Seed = seed
				opt.Workers = workers
				res, eng := runKernel(t, g, opt)
				if got := goldenHash(res, eng); got != goldenKernel[key] {
					t.Errorf("%s workers=%d: hash %#x, want %#x (θ=%d seeds=%v)",
						key, workers, got, goldenKernel[key], res.Theta, res.Seeds)
				}
			}
		}
	}
}
