package verify

import (
	"math"
	"math/bits"
)

// idTable assigns record IDs dense ranks in first-seen order. It is
// the auditors' only lookup structure: two flat slices, no Go map, so
// an audit of n records allocates a fixed handful of arrays whatever n
// is. slots is an open-addressing hash table (Fibonacci hashing,
// linear probing, at most half full) holding rank+1 of the ID that
// landed there; ids maps a rank back to its ID, which is both the key
// the probe compares against and what an error message names.
//
// Ranks are int32 — half the table's footprint — so the table holds at
// most math.MaxInt32 IDs; rank reports -1 instead of wrapping.
type idTable struct {
	slots []int32 // 0 = free
	ids   []int64 // rank -> ID
	shift uint    // 64 - log2(len(slots))
}

// newIDTable returns a table sized for n IDs; it grows if more arrive.
func newIDTable(n int) idTable {
	t := idTable{ids: make([]int64, 0, n)}
	t.resize(n)
	return t
}

// resize (re)builds slots for n IDs at load <= 1/2 and re-files ids.
func (t *idTable) resize(n int) {
	log := max(3, bits.Len(uint(max(2*n, 1)-1)))
	t.slots = make([]int32, 1<<log)
	t.shift = uint(64 - log)
	for r, id := range t.ids {
		t.slots[t.free(id)] = int32(r) + 1
	}
}

// free returns the first free slot on id's probe path (id not present).
func (t *idTable) free(id int64) int {
	mask := len(t.slots) - 1
	i := int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// rank returns id's rank, assigning the next one when id is new
// (fresh). A table already holding math.MaxInt32 IDs returns -1 for a
// new one.
func (t *idTable) rank(id int64) (r int32, fresh bool) {
	mask := len(t.slots) - 1
	i := int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
	for {
		s := t.slots[i]
		if s == 0 {
			break
		}
		if t.ids[s-1] == id {
			return s - 1, false
		}
		i = (i + 1) & mask
	}
	if len(t.ids) == math.MaxInt32 {
		return -1, false
	}
	if 2*(len(t.ids)+1) > len(t.slots) {
		t.resize(2 * (len(t.ids) + 1))
		i = t.free(id)
	}
	t.ids = append(t.ids, id)
	t.slots[i] = int32(len(t.ids))
	return int32(len(t.ids)) - 1, true
}
