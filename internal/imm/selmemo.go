package imm

import (
	"fmt"
	"math"
	"slices"
)

// The selection memo: what the pool remembers of the CELF selections it
// has already run, consulted at the top of selectCELF and filled at its
// end. A selection is a pure function of (the contents of the θ-prefix
// it ranges over, k), and the pool knows exactly when a prefix's
// contents change, so a remembered answer is the answer:
//
//   - growing the pool never invalidates — new sets take ids at or above
//     every remembered limit;
//   - shardedPool.replace forgets the entries whose prefix reaches past
//     the first replaced id, the same cut it makes in the prefix
//     summaries;
//   - a whole-pool resample builds a new pool, whose memo is empty;
//   - a freeze carries the entries out with the pool (PoolState.Memo) and
//     a thaw installs them with no hits counted, so a pool promoted from
//     the disk tier answers the selections it had run when it was frozen
//     without running them again. The frozen prefix is byte for byte the
//     thawed one, which is what lets the entries travel.
//
// The key also carries the two inputs that shape only the modeled cost
// (worker count, and whether kernel fusion's counts supplied the initial
// gains), and a hit bills the selection-only cost of the selection it
// stands for — what running it again on the now-current index reports.
// One relaxation: a truncated view (never fused) also accepts the entry
// its prefix left behind when it was the whole pool and fused counts
// seeded it. The counts are equal, so the seeds are; and that
// is the selection a cold run of the query performs at this θ, so its
// cost is the one a warm replay of that run should bill. Without it the
// first repeat of the query that built a pool would re-run every round.
// A hit hands out a copy of the seeds: callers own what they are given,
// and a thawed entry's seeds may alias a mapped snapshot.
//
// It is bounded by construction, not by a knob: selMemoSlots entries,
// oldest out, together holding at most one seed per vertex (4·n bytes,
// reported through WarmEngine.OverheadBytes).

// selMemoSlots is the memo's capacity. A warm answer remembers one entry
// per estimation round plus the final selection (three or four), so
// sixteen cover the handful of (k, ε) shapes a pool serves repeatedly.
const selMemoSlots = 16

// selKey identifies a selection: the clamped view limit and k decide the
// seeds; workers and base (fused counts) only decide the modeled
// operation count.
type selKey struct {
	limit   int64
	k       int
	workers int
	base    bool
}

// PoolMemoEntry is one remembered selection — the memo's entry and,
// through PoolState.Memo, its frozen form. Limit and K decide the seeds;
// Workers and Base only the modeled cost. Seeds holds min(K, n) distinct
// vertices and is never written once remembered, so lookups, freezes and
// thaws may share it.
type PoolMemoEntry struct {
	Limit    int64 // the clamped view limit: the selection ranged over set ids below it
	K        int
	Workers  int
	Base     bool // kernel fusion's counts supplied the initial gains
	Seeds    []int32
	Coverage float64
	Ops      float64 // selection-only modeled cost, index extension excluded
}

func (e *PoolMemoEntry) key() selKey { return selKey{e.Limit, e.K, e.Workers, e.Base} }

// selMemo holds the live entries in slots[:n], oldest first. A fixed
// array scanned linearly: sixteen compares are nothing beside the
// selection a hit replaces, and iteration order is the array's.
type selMemo struct {
	slots   [selMemoSlots]PoolMemoEntry
	n       int
	seedLen int // Σ len(seeds) over the live entries

	hits int64 // lookups answered since the pool was built
}

// lookup returns the remembered selection for key, or nil. A key
// without fused counts also matches the entry that used them.
func (m *selMemo) lookup(key selKey) *PoolMemoEntry {
	alt := key
	alt.base = true
	for i := range m.slots[:m.n] {
		if k := m.slots[i].key(); k == key || k == alt {
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
		m.seedLen -= len(m.slots[drop].Seeds)
		drop++
	}
	m.compact(m.slots[drop:m.n])
	m.slots[m.n] = PoolMemoEntry{Limit: key.limit, K: key.k, Workers: key.workers, Base: key.base,
		Seeds: slices.Clone(seeds), Coverage: coverage, Ops: ops}
	m.n++
	m.seedLen += len(seeds)
}

// dropAbove forgets every selection whose view reaches past set id: the
// sets from id on have changed.
func (m *selMemo) dropAbove(id int64) {
	kept := m.slots[:0]
	for _, e := range m.slots[:m.n] {
		if e.Limit <= id {
			kept = append(kept, e)
		} else {
			m.seedLen -= len(e.Seeds)
		}
	}
	m.compact(kept)
}

// compact makes kept — a run of slots, in order — the live entries and
// clears the rest so dropped seed slices can be collected.
func (m *selMemo) compact(kept []PoolMemoEntry) {
	n := copy(m.slots[:], kept)
	clear(m.slots[n:m.n])
	m.n = n
}

// bytes is the memo's variable footprint: the remembered seed ids.
func (m *selMemo) bytes() int64 { return 4 * int64(m.seedLen) }

// install makes a thawed pool's memo the frozen entries, already
// audited by ValidateMemo, with no hits counted. The seed slices are
// adopted, not copied. The memo must be empty.
func (m *selMemo) install(entries []PoolMemoEntry) {
	m.n = copy(m.slots[:], entries)
	for _, e := range entries {
		m.seedLen += len(e.Seeds)
	}
}

// ValidateMemo audits st.Memo against the pool it was frozen with: at
// most selMemoSlots entries holding at most N seeds in all, and in each a
// view limit in [1, Count], k and workers at least 1, exactly the
// min(k, N) seeds a selection returns, distinct and in [0, N), a coverage
// in [0, 1] and a finite, non-negative cost. A memo that passes can
// neither panic a lookup nor answer with a seed that is not a vertex.
func (st *PoolState) ValidateMemo() error {
	if len(st.Memo) > selMemoSlots {
		return fmt.Errorf("memo holds %d entries, at most %d", len(st.Memo), selMemoSlots)
	}
	var seen []uint64 // the entry's seeds so far; cleared after each entry
	total := 0
	for i, e := range st.Memo {
		switch {
		case e.Limit < 1 || e.Limit > st.Count:
			return fmt.Errorf("memo entry %d: view limit %d outside [1, %d]", i, e.Limit, st.Count)
		case e.K < 1:
			return fmt.Errorf("memo entry %d: k %d < 1", i, e.K)
		case e.Workers < 1:
			return fmt.Errorf("memo entry %d: workers %d < 1", i, e.Workers)
		case len(e.Seeds) != min(e.K, int(st.N)):
			return fmt.Errorf("memo entry %d: seed count %d for k=%d over %d vertices, want %d",
				i, len(e.Seeds), e.K, st.N, min(e.K, int(st.N)))
		case math.IsNaN(e.Coverage) || e.Coverage < 0 || e.Coverage > 1:
			return fmt.Errorf("memo entry %d: coverage %v outside [0, 1]", i, e.Coverage)
		case math.IsNaN(e.Ops) || math.IsInf(e.Ops, 0) || e.Ops < 0:
			return fmt.Errorf("memo entry %d: modeled ops %v not finite and non-negative", i, e.Ops)
		}
		if total += len(e.Seeds); total > int(st.N) {
			return fmt.Errorf("memo holds more than %d seeds, one per vertex", st.N)
		}
		if seen == nil {
			seen = make([]uint64, (int(st.N)+63)/64)
		}
		for j, v := range e.Seeds {
			if v < 0 || v >= st.N {
				return fmt.Errorf("memo entry %d: seed %d out of range [0, %d)", i, v, st.N)
			}
			if seen[v>>6]&(1<<(v&63)) != 0 {
				return fmt.Errorf("memo entry %d: duplicate seed %d at position %d", i, v, j)
			}
			seen[v>>6] |= 1 << (v & 63)
		}
		for _, v := range e.Seeds {
			seen[v>>6] = 0
		}
	}
	return nil
}
