package verify

import (
	"math"
	"math/bits"

	"spatialanon/internal/anonmodel"
)

// idIndex is the auditors' one ID lookup structure: it records the IDs
// an audit meets and, once frozen, ranks them 0, 1, 2, … When the IDs
// span at most 64 values per record it is dense: a bitmap over
// [lo, hi] plus, once frozen, the count of IDs below each 64-bit word,
// so a rank is that count plus a popcount and follows ID order — at
// most 12 B per record, 0.19 B for IDs 0…n−1. Sparser IDs go to an
// idTable, ranked in first-seen order. Either way an audit allocates a
// fixed handful of arrays whatever n is; the auditors find their
// witnesses by walking the partitions, never by rank order.
type idIndex struct {
	lo    int64
	words []uint64 // dense: bit id-lo is set once id is added; nil when sparse
	below []int32  // dense, frozen: how many IDs the words before each word hold
	table idTable  // sparse
}

// newIDIndex returns an index for the IDs of n records, all inside
// [lo, hi]; lo > hi means there are none.
func newIDIndex(lo, hi int64, n int) idIndex {
	// uint64(hi) - uint64(lo) is exact for every pair; hi - lo + 1 wraps
	// to 0 for [MinInt64, MaxInt64].
	if span := uint64(hi) - uint64(lo); lo <= hi && span/64 < uint64(n) {
		return idIndex{lo: lo, words: make([]uint64, span/64+1)}
	}
	return idIndex{table: newIDTable(n)}
}

// idRange widens [lo, hi] to cover the IDs of ps's records.
func idRange(ps []anonmodel.Partition, lo, hi int64) (int64, int64) {
	for _, p := range ps {
		for i := range p.Size() {
			id := p.Record(i).ID
			lo, hi = min(lo, id), max(hi, id)
		}
	}
	return lo, hi
}

// add records id, which must lie in the index's range, and reports
// whether it is new.
func (x *idIndex) add(id int64) (fresh bool, err error) {
	if x.words == nil {
		return x.table.add(id)
	}
	off := uint64(id) - uint64(x.lo)
	w, bit := &x.words[off>>6], uint64(1)<<(off&63)
	fresh = *w&bit == 0
	*w |= bit
	return fresh, nil
}

// freeze ends the adds and returns how many IDs the index holds, which
// rank then numbers from 0.
func (x *idIndex) freeze() (int, error) {
	if x.words == nil {
		return len(x.table.ids), nil
	}
	x.below = make([]int32, len(x.words))
	n := 0
	for i, w := range x.words {
		x.below[i] = int32(n) // wraps only where the check below refuses
		n += bits.OnesCount64(w)
	}
	if n > math.MaxInt32 {
		return 0, errTooManyRecords
	}
	return n, nil
}

// rank returns the rank of id, or false when id was not added.
func (x *idIndex) rank(id int64) (int32, bool) {
	if x.words == nil {
		return x.table.lookup(id)
	}
	off := uint64(id) - uint64(x.lo)
	w, bit := off>>6, uint64(1)<<(off&63)
	if w >= uint64(len(x.words)) || x.words[w]&bit == 0 {
		return 0, false
	}
	return x.below[w] + int32(bits.OnesCount64(x.words[w]&(bit-1))), true
}

// idTable ranks record IDs in first-seen order: two flat slices, no Go
// map. slots is an open-addressing hash table (Fibonacci hashing,
// linear probing, at most half full) holding rank+1 of the ID that
// landed there; ids maps a rank back to its ID, the key a probe
// compares against. Ranks are int32 — half the table's footprint — so
// the table holds at most math.MaxInt32 IDs and refuses more.
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

// lookup returns id's rank, or false when id is not in the table.
func (t *idTable) lookup(id int64) (int32, bool) {
	mask := len(t.slots) - 1
	for i := int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift); t.slots[i] != 0; i = (i + 1) & mask {
		if s := t.slots[i]; t.ids[s-1] == id {
			return s - 1, true
		}
	}
	return 0, false
}

// add gives id the next rank unless the table holds it already, and
// reports whether it was new.
func (t *idTable) add(id int64) (fresh bool, err error) {
	if _, ok := t.lookup(id); ok {
		return false, nil
	}
	if len(t.ids) == math.MaxInt32 {
		return false, errTooManyRecords
	}
	if 2*(len(t.ids)+1) > len(t.slots) {
		t.resize(2 * (len(t.ids) + 1))
	}
	t.ids = append(t.ids, id)
	t.slots[t.free(id)] = int32(len(t.ids))
	return true, nil
}
