package imm

import "slices"

// The selection memo: what the pool remembers of the CELF selections it
// has already run, consulted at the top of selectCELFLimited and filled
// at its end. A selection is a pure function of (the contents of the
// θ-prefix it ranges over, k), and the pool knows exactly when a
// prefix's contents change, so a remembered answer is the answer:
//
//   - growing the pool never invalidates — new sets take ids at or above
//     every remembered limit;
//   - shardedPool.replace forgets the entries whose prefix reaches past
//     the first replaced id, the same cut it makes in the prefix
//     summaries;
//   - a whole-pool resample and a thaw build a new pool, whose memo is
//     empty.
//
// The key also carries the two inputs that shape only the modeled cost
// (worker count, and whether the fused base counter supplied the initial
// gains), and a hit bills the selection-only cost of the selection it
// stands for — what running it again on the now-current index reports.
// One relaxation: a truncated view (no base counter) also accepts the
// entry its prefix left behind when it was the whole pool and the
// counter seeded it. The counts are equal, so the seeds are; and that
// is the selection a cold run of the query performs at this θ, so its
// cost is the one a warm replay of that run should bill. Without it the
// first repeat of the query that built a pool would re-run every round.
// A hit hands out a copy of the seeds: callers own what they are given.
//
// It is bounded by construction, not by a knob: selMemoSlots entries,
// oldest out, together holding at most one seed per vertex (4·n bytes,
// reported through WarmEngine.OverheadBytes).

// selMemoSlots is the memo's capacity. A warm answer remembers one entry
// per estimation round plus the final selection (three or four), so
// sixteen cover the handful of (k, ε) shapes a pool serves repeatedly.
const selMemoSlots = 16

// selKey identifies a selection: the clamped view limit and k decide the
// seeds; workers and base only decide the modeled operation count.
type selKey struct {
	limit   int64
	k       int
	workers int
	base    bool
}

type selEntry struct {
	key      selKey
	seeds    []int32
	coverage float64
	ops      float64 // selection-only modeled cost, index extension excluded
}

// selMemo holds the live entries in slots[:n], oldest first. A fixed
// array scanned linearly: sixteen compares are nothing beside the
// selection a hit replaces, and iteration order is the array's.
type selMemo struct {
	slots   [selMemoSlots]selEntry
	n       int
	seedLen int // Σ len(seeds) over the live entries

	hits int64 // lookups answered since the pool was built
}

// lookup returns the remembered selection for key, or nil. A key
// without the base counter also matches the entry that used it.
func (m *selMemo) lookup(key selKey) *selEntry {
	alt := key
	alt.base = true
	for i := range m.slots[:m.n] {
		if k := m.slots[i].key; k == key || k == alt {
			m.hits++
			return &m.slots[i]
		}
	}
	return nil
}

// store remembers a selection over a pool of maxSeeds vertices — so of
// at most maxSeeds seeds — evicting the oldest entries until both bounds
// hold. The seeds are copied.
func (m *selMemo) store(key selKey, seeds []int32, coverage, ops float64, maxSeeds int) {
	drop := 0
	for m.n-drop == selMemoSlots || m.seedLen+len(seeds) > maxSeeds {
		m.seedLen -= len(m.slots[drop].seeds)
		drop++
	}
	m.compact(m.slots[drop:m.n])
	m.slots[m.n] = selEntry{key: key, seeds: slices.Clone(seeds), coverage: coverage, ops: ops}
	m.n++
	m.seedLen += len(seeds)
}

// dropAbove forgets every selection whose view reaches past set id: the
// sets from id on have changed.
func (m *selMemo) dropAbove(id int64) {
	kept := m.slots[:0]
	for _, e := range m.slots[:m.n] {
		if e.key.limit <= id {
			kept = append(kept, e)
		} else {
			m.seedLen -= len(e.seeds)
		}
	}
	m.compact(kept)
}

// compact makes kept — a run of slots, in order — the live entries and
// clears the rest so dropped seed slices can be collected.
func (m *selMemo) compact(kept []selEntry) {
	n := copy(m.slots[:], kept)
	clear(m.slots[n:m.n])
	m.n = n
}

// bytes is the memo's variable footprint: the remembered seed ids.
func (m *selMemo) bytes() int64 { return 4 * int64(m.seedLen) }
