// Package core is the paper's contribution (§V): a hash-based MapReduce
// runtime that replaces sort-merge group-by entirely. The map side
// partitions by hash with no sorting and combines through an in-memory hash
// table; the reduce side offers three hash techniques — blocking Hybrid
// Hash [Shapiro 86], fully incremental per-key state update, and the
// hot-key variant that couples incremental update with an online
// frequent-items sketch so the important keys stay in memory when the full
// key set does not fit.
package core

import (
	"onepass/internal/engine"
	"onepass/internal/hashlib"
	"onepass/internal/memtable"
)

// form describes how a payload folds into per-key state.
type form byte

const (
	// formIncoming is a value as emitted by Map and shuffled from mappers
	// (for a declared job, combined or not, that is an element already).
	formIncoming form = 0
	// formState is a serialized state — a fold element from an evicted or
	// demoted table entry.
	formState form = 1
)

// stateTable maps keys to aggregation states — the elements of the job's
// engine.Fold — with byte-accurate memory accounting. Keys and states both
// live in a memtable arena (the paper's byte-array memory management), behind
// one memtable.Table; what this type adds is the budget bookkeeping, summed
// over the table's partitions.
type stateTable struct {
	tbl        *memtable.Table
	stateBytes int64
	// keyBytes tracks live keys' byte volume. Budget accounting uses live
	// bytes rather than the arena's cumulative allocation: evicted keys'
	// arena space is reclaimable by a table rebuild, so charging it forever
	// would make eviction unable to ever get back under budget.
	keyBytes int64
	agg      *engine.Fold
}

// stateSliceOverhead approximates per-state bookkeeping. Like entrySlotCost
// it is a term of the virtual memory model — what a task's budget is charged
// per key — not a measurement of the table's layout.
const stateSliceOverhead = 24

// tableSlots is every state table partition's initial slot count. Iteration
// is slot order, and a map task's chunk contents are its table's iteration
// order, partition by partition, so a table that is reused where a fresh one
// used to be built must come back at this capacity and grow through the same
// doublings (restart), or a re-executed map attempt stops matching the
// attempt it replaces.
const tableSlots = 64

// newStateTable returns an empty one-partition table whose keys and states
// live in arena. Tables of one task share an arena; the arena's owner resets
// it, never the table.
func newStateTable(h *hashlib.Func, arena *memtable.Arena, fold *engine.Fold) *stateTable {
	return newPartitionedStateTable(h, arena, fold, 1)
}

// newPartitionedStateTable returns an empty table of parts partitions.
func newPartitionedStateTable(h *hashlib.Func, arena *memtable.Arena, fold *engine.Fold, parts int) *stateTable {
	return &stateTable{tbl: memtable.NewPartitionedTable(h, arena, parts, tableSlots), agg: fold}
}

// reset empties the table for a refill at its grown capacity (the map-side
// combine cycle): slots are cleared in place, so a table that is flushed
// and refilled stops allocating once it reaches steady state.
func (st *stateTable) reset() {
	st.tbl.Reset()
	st.stateBytes, st.keyBytes = 0, 0
}

// restart empties the table back to what newStateTable returns — tableSlots
// empty slots — for reuse where a fresh table used to be built.
func (st *stateTable) restart() {
	st.tbl.Restart()
	st.stateBytes, st.keyBytes = 0, 0
}

// fold is foldIn(0, key, payload, f).
func (st *stateTable) fold(key, payload []byte, f form) int64 {
	return st.foldIn(0, key, payload, f)
}

// foldIn incorporates one payload for key into partition p and returns the
// bytes it added to the table: the key's when it was newly inserted, plus by
// how much the key's element grew.
func (st *stateTable) foldIn(p int, key, payload []byte, f form) (added int64) {
	e, isNew := st.tbl.SlotIn(p, key)
	added = int64(st.agg.Into(st.tbl, e, isNew, payload, f == formState))
	st.stateBytes += added
	if isNew {
		st.stateBytes += stateSliceOverhead
		st.keyBytes += int64(len(key))
		added += int64(len(key))
	}
	return added
}

// get returns the current state for key.
func (st *stateTable) get(key []byte) ([]byte, bool) { return st.tbl.GetElem(key) }

// len returns the number of live keys, over all partitions.
func (st *stateTable) len() int { return st.tbl.Len() }

// entrySlotCost approximates the hash-table slot plus arena bookkeeping per
// live key.
const entrySlotCost = 48

// usedBytes is the budget-relevant footprint: live keys, their states, and
// table slots.
func (st *stateTable) usedBytes() int64 {
	return st.keyBytes + st.stateBytes + int64(st.tbl.Len())*entrySlotCost
}

// iterate visits (key, state) for every live key in slot order. Both alias
// arena memory, which outlives a remove of the key: a sweep may collect its
// victims, then remove them, then use them.
func (st *stateTable) iterate(f func(key, state []byte) bool) { st.tbl.Elems(f) }

// remove deletes key (its state bytes stop counting against the budget).
func (st *stateTable) remove(key []byte) {
	s, ok := st.tbl.GetElem(key)
	if !ok {
		return
	}
	st.stateBytes -= int64(len(s)) + stateSliceOverhead
	st.keyBytes -= int64(len(key))
	st.tbl.Delete(key)
}
