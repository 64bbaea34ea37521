package imm

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/compress"
	"repro/internal/graph"
	"repro/internal/rrr"
)

// SlotGenerator supplies the sets of a contiguous slot range from
// somewhere other than the engine's workers: internal/dist's rank runtime,
// which distributed runs and cluster-backed serving pools attach.
//
// GenerateSlots writes slot lo+i's set size to sizes[i] and returns the
// payloads as chunks in slot order under the engine's policy
// (PolicyFromOptions), with the edges their sampling visited. The sets
// must be those local generation would place there (SampleSlots and
// DecodeChunk build them so), so attaching a generator never changes an
// answer. An error declines the range, which the engine then generates.
type SlotGenerator interface {
	GenerateSlots(lo int64, sizes []int32) (chunks []Chunk, edges int64, err error)
}

// SetRemote attaches (or, with nil, detaches) a distributed slot
// generator to the warm engine. Calls must not overlap the engine's
// queries — set it right after NewWarmEngine, or between batches under
// the caller's engine lock (internal/serve holds its pool mutex). An
// engine off the default toggles is refused (ErrWarmOptions) and keeps
// the generator it had.
func (w *WarmEngine) SetRemote(gen SlotGenerator) error {
	if err := warmOptions(w.opt); err != nil {
		return err
	}
	w.remote = gen
	return nil
}

// generateRemote fills slots [from, to) from the attached generator,
// appending its chunks to the pool; the member total is their sizes'. The
// engine is touched only once the whole range arrived, so a false return
// (a declined range) leaves it as it was, to generate locally. It bills
// the edges, the list sorts and the fused count updates (charged double,
// as atomic adds); the index merge is the next selection's to charge.
func (w *WarmEngine) generateRemote(from, to int64) bool {
	start := time.Now()
	sizes := slices.Grow(w.p.sets.sizes, int(to-from))[:to]
	chunks, edges, err := w.remote.GenerateSlots(from, sizes[from:])
	if err != nil {
		return false
	}
	w.p.extend(sizes, chunks)
	members := w.p.sets.upTo(to).members - w.p.sets.upTo(from).members
	w.p.addMembers([]int64{members})
	w.bd.SamplingWall += time.Since(start)
	w.bd.SamplingModeled += float64(edges + ModeledSortCost(w.policy, w.p.n, members, to-from) + 2*members)
	return true
}

// DecodeChunk decodes a rank's sets, plain-coded (compress.AppendPlain)
// in slot order, into one chunk under policy over g's vertices, writing
// set i's size to sizes[i], and returns it with its member total and the
// sum of its members' in-degrees, the most in-edges sampling the sets can
// have visited (a set's traversal reads each member's in-segment at most
// once; under IC exactly once). It refuses the chunk on any defect the
// pool-file audit refuses a set for: the coding yields members strictly
// ascending from zero, and one past n (or the int32 range) fails it,
// which also bounds a size by n. A set count other than len(sizes) fails
// it too.
func DecodeChunk(g *graph.Graph, policy rrr.Policy, plains [][]byte, sizes []int32) (c Chunk, members, inDegrees int64, err error) {
	if len(plains) != len(sizes) {
		return Chunk{}, 0, 0, fmt.Errorf("imm: %d sets for %d slots", len(plains), len(sizes))
	}
	n := g.N
	words := (int(n) + 63) / 64
	for i, plain := range plains {
		l0 := len(c.Lists)
		if c.Lists, err = compress.DecodePlain(plain, c.Lists); err != nil {
			return Chunk{}, 0, 0, fmt.Errorf("imm: set %d: %w", i, err)
		}
		vs := c.Lists[l0:]
		if len(vs) > 0 && vs[len(vs)-1] >= n {
			return Chunk{}, 0, 0, fmt.Errorf("imm: set %d member %d out of range [0, %d)", i, vs[len(vs)-1], n)
		}
		sizes[i] = int32(len(vs))
		members += int64(len(vs))
		for _, v := range vs {
			inDegrees += g.InIndex[v+1] - g.InIndex[v]
		}
		if policy.Dense(n, len(vs)) {
			r0 := len(c.Rows)
			c.Rows = slices.Grow(c.Rows, words)[:r0+words]
			row := c.Rows[r0:]
			clear(row)
			for _, v := range vs {
				row[v>>6] |= 1 << (v & 63)
			}
			c.Lists = c.Lists[:l0]
		}
	}
	return c, members, inDegrees, nil
}
