package imm

import (
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
func (w *WarmEngine) SetRemote(gen SlotGenerator) { w.inner.remote = gen }

// generateRemote fills slots [from, to) through the attached remote
// generator. Pool and counter state are touched only after the whole
// range arrived intact, so a false return (transport failure, decode
// failure, a declined range) leaves the engine exactly as it was and the
// caller falls back to local generation.
func (e *efficientEngine) generateRemote(from, to int64) bool {
	start := time.Now()
	out := make([]rrr.Set, to-from)
	members, edges, err := e.remote.GenerateSlots(from, out)
	if err != nil {
		return false
	}
	for _, s := range out {
		if s == nil {
			return false
		}
	}
	for i, s := range out {
		e.p.put(from+int64(i), s)
	}
	var fused int64
	if e.opt.Fusion {
		// Only this goroutine writes the counter here, so the fold needs
		// no atomic adds.
		counts := e.base.Raw()
		inc := func(v int32) { counts[v]++ }
		for _, s := range out {
			s.ForEach(inc)
		}
		fused = members
		e.baseFresh = true
	} else {
		e.baseFresh = false
	}
	e.p.addMembers([]int64{members})
	e.bd.SamplingWall += time.Since(start)
	e.bd.SamplingModeled += float64(edges + ModeledSortCost(e.policy, e.p.n, members, to-from) + 2*fused)
	return true
}
