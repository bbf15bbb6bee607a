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
	"encoding/binary"

	"onepass/internal/engine"
	"onepass/internal/hashlib"
	"onepass/internal/memtable"
)

// form describes how a payload folds into per-key state.
type form byte

const (
	// formIncoming is a value as shuffled from mappers: a partial aggregate
	// state when the map side combined, a raw value otherwise.
	formIncoming form = 0
	// formState is a serialized state (from an evicted or demoted table
	// entry); it always folds with Merge.
	formState form = 1
)

// listAgg adapts a reduce-function-only job (no Aggregator) to the
// incremental interface: the state is the framed concatenation of raw
// values, and Final replays them through the job's reduce function. This is
// how the hash engines run holistic tasks like sessionization.
type listAgg struct {
	reduce engine.ReduceFunc
}

func frameAppend(state, val []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(val)))
	state = append(state, hdr[:n]...)
	return append(state, val...)
}

func frameIter(state []byte, f func(val []byte)) int {
	n := 0
	off := 0
	for off < len(state) {
		l, k := binary.Uvarint(state[off:])
		off += k
		f(state[off : off+int(l)])
		off += int(l)
		n++
	}
	return n
}

func (a listAgg) Init(val []byte) []byte          { return frameAppend(nil, val) }
func (a listAgg) Update(state, val []byte) []byte { return frameAppend(state, val) }
func (a listAgg) Merge(x, y []byte) []byte        { return append(x, y...) }
func (a listAgg) Final(key, state []byte, emit engine.Emit) {
	var vals [][]byte
	frameIter(state, func(v []byte) { vals = append(vals, v) })
	a.reduce(key, vals, emit)
}

// jobAggregator returns the aggregator to run the job with and whether the
// map side performs hash-based combining (only when a real aggregator
// exists — a list state on the map side would not shrink anything).
func jobAggregator(job *engine.Job) (agg engine.Aggregator, mapCombined bool) {
	if agg := job.DeclaredAgg(); agg != nil {
		return agg, true
	}
	return listAgg{reduce: job.Reduce}, false
}

// stateTable maps keys to aggregation states with byte-accurate memory
// accounting. Keys live in a memtable arena (the paper's byte-array memory
// management); states are byte strings indexed through the table value.
type stateTable struct {
	tbl        *memtable.Table
	states     [][]byte
	stateBytes int64
	// keyBytes tracks live keys' byte volume. Budget accounting uses live
	// bytes rather than the arena's cumulative allocation: evicted keys'
	// arena space is reclaimable by a table rebuild, so charging it forever
	// would make eviction unable to ever get back under budget.
	keyBytes int64
	agg      engine.Aggregator
	mapComb  bool
}

// stateSliceOverhead approximates per-state slice bookkeeping.
const stateSliceOverhead = 24

// tableSlots is every state table's initial slot count. Iteration is slot
// order, and a map task's chunk contents are its tables' iteration order, so
// a table that is reused where a fresh one used to be built must come back
// at this capacity and grow through the same doublings (restart), or a
// re-executed map attempt stops matching the attempt it replaces.
const tableSlots = 64

// newStateTable returns an empty table whose keys live in arena. Tables of
// one task share an arena; the arena's owner resets it, never the table.
func newStateTable(h *hashlib.Func, arena *memtable.Arena, agg engine.Aggregator, mapCombined bool) *stateTable {
	return &stateTable{
		tbl:     memtable.NewTable(h, arena, tableSlots),
		agg:     agg,
		mapComb: mapCombined,
	}
}

// reset empties the table for a refill at its grown capacity (the map-side
// combine cycle): slots are cleared in place, so a table that is flushed
// and refilled stops allocating once it reaches steady state.
func (st *stateTable) reset() {
	st.tbl.Reset()
	st.dropStates()
}

// restart empties the table back to what newStateTable returns — tableSlots
// empty slots — for reuse where a fresh table used to be built.
func (st *stateTable) restart() {
	st.tbl.Restart()
	st.dropStates()
}

func (st *stateTable) dropStates() {
	clear(st.states)
	st.states = st.states[:0]
	st.stateBytes = 0
	st.keyBytes = 0
}

// fold incorporates one payload for key. It returns true when the key was
// newly inserted.
func (st *stateTable) fold(key, payload []byte, f form) bool {
	isNew := false
	st.tbl.Upsert(key, func(old uint64, exists bool) uint64 {
		if !exists {
			var s []byte
			switch {
			case f == formState || st.mapComb:
				s = append([]byte(nil), payload...)
			default:
				s = st.agg.Init(payload)
			}
			st.states = append(st.states, s)
			st.stateBytes += int64(len(s)) + stateSliceOverhead
			st.keyBytes += int64(len(key))
			isNew = true
			return uint64(len(st.states) - 1)
		}
		prev := st.states[old]
		st.stateBytes -= int64(len(prev))
		var s []byte
		switch {
		case f == formState || st.mapComb:
			s = st.agg.Merge(prev, payload)
		default:
			s = st.agg.Update(prev, payload)
		}
		st.states[old] = s
		st.stateBytes += int64(len(s))
		return old
	})
	return isNew
}

// get returns the current state for key.
func (st *stateTable) get(key []byte) ([]byte, bool) {
	idx, ok := st.tbl.Get(key)
	if !ok {
		return nil, false
	}
	return st.states[idx], true
}

// len returns the number of live keys.
func (st *stateTable) len() int { return st.tbl.Len() }

// entrySlotCost approximates the hash-table slot plus arena bookkeeping per
// live key.
const entrySlotCost = 48

// usedBytes is the budget-relevant footprint: live keys, their states, and
// table slots.
func (st *stateTable) usedBytes() int64 {
	return st.keyBytes + st.stateBytes + int64(st.tbl.Len())*entrySlotCost
}

// iterate visits (key, state) for every live key. Keys alias arena memory.
func (st *stateTable) iterate(f func(key, state []byte) bool) {
	st.tbl.Iterate(func(key []byte, idx uint64) bool {
		return f(key, st.states[idx])
	})
}

// remove deletes key (its state bytes stop counting against the budget).
func (st *stateTable) remove(key []byte) {
	idx, ok := st.tbl.Get(key)
	if !ok {
		return
	}
	st.stateBytes -= int64(len(st.states[idx])) + stateSliceOverhead
	st.keyBytes -= int64(len(key))
	st.states[idx] = nil
	st.tbl.Delete(key)
}
