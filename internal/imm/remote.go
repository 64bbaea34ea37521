package imm

import (
	"slices"
	"time"

	"repro/internal/rrr"
)

// SlotGenerator supplies the RRR sets for a contiguous slot range from
// somewhere other than the local sampler — the seam that lets a warm
// engine source its pool extensions from message-passing ranks
// (internal/dist fans the range across worker ranks and gathers the
// chunks over the wire; its distributed runs and cluster-backed serving
// pools both attach it here).
//
// The contract is the slot-determinism contract of the pool itself:
// out[i] must be exactly the set a local generation would have placed in
// slot lo+int64(i) — same member sequence, built under the engine's own
// representation policy — so attaching or detaching a generator can
// never change a served answer. Implementations return an error (or
// leave slots nil) to decline; the engine then regenerates the whole
// range locally.
type SlotGenerator interface {
	GenerateSlots(lo int64, out []rrr.Set) (members, edges int64, err error)
}

// SetRemote attaches (or, with nil, detaches) a distributed slot
// generator to the warm engine. Calls must not overlap the engine's
// queries — set it right after NewWarmEngine, or between batches under
// the caller's engine lock (internal/serve holds its pool mutex).
func (w *WarmEngine) SetRemote(gen SlotGenerator) { w.remote = gen }

// generateRemote fills slots [from, to) through the attached remote
// generator, copying the sets it returns into the pool — the one place an
// rrr.Set enters it. Pool and counter state are touched only after the
// whole range arrived intact, so a false return (transport failure, a
// declined range) leaves the engine as it was, to generate locally.
func (w *WarmEngine) generateRemote(from, to int64) bool {
	start := time.Now()
	out := make([]rrr.Set, to-from)
	members, edges, err := w.remote.GenerateSlots(from, out)
	if err != nil {
		return false
	}
	for _, s := range out {
		if s == nil {
			return false
		}
	}
	sizes := slices.Grow(w.p.sets.sizes, int(to-from))[:to]
	var counts []int64 // a scan engine's; only this goroutine writes it here: no atomic adds
	if w.opt.Fusion && w.base != nil {
		counts = w.base.Raw()
	}
	var vs []int32
	var r run
	for i, s := range out {
		vs = s.Vertices(vs[:0])
		sizes[from+int64(i)] = int32(len(vs))
		if counts != nil {
			for _, v := range vs {
				counts[v]++
			}
		}
		if !w.policy.Dense(w.p.n, len(vs)) {
			r.lists = append(r.lists, vs...)
			continue
		}
		row := len(r.rows)
		r.rows = append(r.rows, make([]uint64, w.p.sets.words)...)
		for _, v := range vs {
			r.rows[row+int(v>>6)] |= 1 << (v & 63)
		}
	}
	w.p.extend(sizes, []run{r})
	var fused int64
	if w.opt.Fusion {
		fused = members
	}
	w.p.addMembers([]int64{members})
	w.bd.SamplingWall += time.Since(start)
	w.bd.SamplingModeled += float64(edges + ModeledSortCost(w.policy, w.p.n, members, to-from) + 2*fused)
	return true
}
