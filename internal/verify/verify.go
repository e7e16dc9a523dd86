// Package verify audits the paper's safety properties. The central
// claim — an anonymization *is* a spatial index — means an
// index-corruption bug is silently also a privacy bug: a leaf below k
// occupancy or two overlapping sibling regions leak more than the
// published guarantee, so the chaos harness asserts "clean error or
// verified-consistent tree, never silent corruption" after every fault
// schedule.
//
// Tree is the index's own structural audit, rplustree.Tree.CheckInvariants
// (every hyperplane strictly inside the region it cuts, so sibling regions
// are disjoint; MBRs tight and inside their regions; counts, leaf depth,
// parent pointers, tries naming exactly their node's children), plus the
// opt-in occupancy floor: those invariants live in the tree's private
// state, so the tree checks them. The release auditors are the
// independent proofs, re-derived from published partition sets alone:
//
//   - Release audits one published partition set against its
//     constraint: records inside their boxes, the constraint satisfied
//     by every partition, and no record published twice.
//   - Releases audits a multi-granular family for k-boundness
//     (Lemma 1): the intersection cells an adversary can form by
//     colluding across releases each hold zero or at least k records.
//   - CrossShard audits a joint release across the shards' seams.
//   - Family scans leaf partitions into a base release, proves it with
//     Release and Releases and derives coarser granularities under the
//     same proof: the one place a release handed to a reader is made.
package verify

import (
	"fmt"
	"math"
	"slices"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/routing"
	"spatialanon/internal/rplustree"
)

// TreeOptions tunes the Tree audit.
type TreeOptions struct {
	// MinLeafOccupancy, when positive, requires every non-empty leaf to
	// hold at least this many records. It is opt-in because leaves
	// legitimately dip below the base k — deletes shrink them and the
	// published guarantee is re-established at materialization time by
	// the leaf scan (Section 3.2) — but an insert-only load with more
	// than one leaf must keep every leaf at or above BaseK, and the
	// chaos harness asserts exactly that.
	MinLeafOccupancy int
}

// Tree is the tree's own structural audit, rplustree.Tree.CheckInvariants,
// plus the opt-in occupancy floor, and returns the first violation found.
func Tree(t *rplustree.Tree, opt TreeOptions) error {
	if err := t.CheckInvariants(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if opt.MinLeafOccupancy > 0 {
		for _, l := range t.Leaves() {
			if l.Size() < opt.MinLeafOccupancy {
				return fmt.Errorf("verify: leaf holds %d records, below occupancy floor %d", l.Size(), opt.MinLeafOccupancy)
			}
		}
	}
	return nil
}

// Release audits one published partition set: every record inside its
// partition's box, every partition satisfying the constraint, and no
// record published in two partitions. Violations are reported in
// (partition, record) order.
func Release(ps []anonmodel.Partition, c anonmodel.Constraint) error {
	if c == nil {
		return fmt.Errorf("verify: nil constraint")
	}
	if len(ps) > math.MaxInt32 {
		return errTooManyPartitions(len(ps))
	}
	seen := newPublished(anonmodel.TotalRecords(ps))
	for i, p := range ps {
		if err := seen.partition(0, i, p, c); err != nil {
			return err
		}
	}
	return nil
}

// published remembers which partition published each record ID seen so
// far: the state of one no-record-twice pass, shared by Release (one
// partition set) and CrossShard (every view's set, one table).
// Partitions are numbered across the whole pass.
type published struct {
	ids idTable
	by  []int32 // rank -> number of the publishing partition
}

func newPublished(n int) published {
	return published{ids: newIDTable(n), by: make([]int32, 0, n)}
}

// partition audits p, partition pi of a set whose partitions are
// numbered from first: non-empty, constraint satisfied, every record
// inside the box and published by no earlier partition of the set. A
// record published by a partition numbered below first — another set
// of the same pass — is a *twiceError, for the caller to name the sets.
func (s *published) partition(first int32, pi int, p anonmodel.Partition, c anonmodel.Constraint) error {
	if p.Size() == 0 {
		return fmt.Errorf("verify: partition %d is empty", pi)
	}
	if !p.Satisfies(c) {
		return fmt.Errorf("verify: partition %d (%d records) violates %v", pi, p.Size(), c)
	}
	for i := range p.Size() {
		r := p.Record(i)
		if !p.Box.Contains(r.QI) {
			return fmt.Errorf("verify: record %d at %v outside partition %d box %v", r.ID, r.QI, pi, p.Box)
		}
		rank, fresh := s.ids.rank(r.ID)
		switch {
		case rank < 0:
			return errTooManyRecords
		case fresh:
			s.by = append(s.by, first+int32(pi))
		case s.by[rank] < first:
			return &twiceError{id: r.ID, by: s.by[rank]}
		default:
			return fmt.Errorf("verify: record %d published in partitions %d and %d", r.ID, s.by[rank]-first, pi)
		}
	}
	return nil
}

// twiceError reports a record one pass met in two partition sets; by
// is the number of the partition that published it first.
type twiceError struct {
	id int64
	by int32
}

func (e *twiceError) Error() string {
	return fmt.Sprintf("verify: record %d published by two partition sets (first as partition %d of the pass)", e.id, e.by)
}

// The auditors index partitions and records with int32; these are the
// explicit refusals that stand where a silent wrap would be.
var errTooManyRecords = fmt.Errorf("verify: more than %d distinct record IDs", math.MaxInt32)

func errTooManyPartitions(n int) error {
	return fmt.Errorf("verify: %d partitions exceed the auditor's limit of %d", n, math.MaxInt32)
}

// Releases audits a multi-granular family for k-boundness (Lemma 1):
// every record must appear in exactly one partition of every release,
// and the intersection cells formed by colluding across releases — the
// sets of records sharing one partition in each release — must each
// hold at least k records. This is what makes handing granularity k to
// one consumer and 5k to another safe: their combined view is still a
// k-anonymization.
//
// Everything is re-derived from the partitions' records: a flat table
// ranks the IDs in first-seen order and one int32 per (record,
// release) holds the record's cell coordinates. Violations are
// reported in (release, partition, record) order of their first
// record, so the same family always names the same witness.
func Releases(sets [][]anonmodel.Partition, k int) error {
	if len(sets) == 0 {
		return nil
	}
	n, width := 0, len(sets)
	for _, rel := range sets {
		if len(rel) > math.MaxInt32-1 {
			return errTooManyPartitions(len(rel))
		}
		n = max(n, anonmodel.TotalRecords(rel))
	}
	ids := newIDTable(n)
	// cells[rank*width+ri] is 1 + the index of the partition holding
	// the record in release ri; 0 = not seen there.
	cells := make([]int32, n*width)
	for ri, rel := range sets {
		for pi, p := range rel {
			for i := range p.Size() {
				rank, fresh := ids.rank(p.Record(i).ID)
				if rank < 0 {
					return errTooManyRecords
				}
				if fresh && len(ids.ids)*width > len(cells) {
					// An ID the largest release does not hold: some
					// release is missing it, reported below.
					cells = append(cells, make([]int32, width)...)
				}
				cell := &cells[int(rank)*width+ri]
				if *cell != 0 {
					return fmt.Errorf("verify: record %d in two partitions of release %d", p.Record(i).ID, ri)
				}
				*cell = int32(pi) + 1
			}
		}
	}
	for rank, id := range ids.ids {
		for ri, pi := range cells[rank*width : (rank+1)*width] {
			if pi == 0 {
				return fmt.Errorf("verify: record %d missing from release %d", id, ri)
			}
		}
	}
	// Every cell lies inside one partition of release 0, so cells are
	// counted partition by partition. Release 0 was walked first and
	// holds every ID exactly once, so its records carry the ranks 0, 1,
	// 2, … in walk order: partition pi's are [lo, lo+len).
	row := func(rank int32) []int32 { return cells[int(rank)*width : (int(rank)+1)*width] }
	var group []int32
	lo, hi := int32(0), int32(0)
	for _, p := range sets[0] {
		lo, hi = hi, hi+int32(p.Size())
		if lo == hi {
			continue // no records, no cell
		}
		// The common family — coarser releases that are unions of whole
		// release-0 partitions — puts the whole partition in one cell.
		oneCell := true
		for rank := lo + 1; rank < hi && oneCell; rank++ {
			oneCell = slices.Equal(row(rank), row(lo))
		}
		if oneCell {
			if p.Size() < k {
				return cellError(row(lo), p.Size(), k)
			}
			continue
		}
		// Otherwise sort the partition's records by cell (ties by rank,
		// so a cell's first element is its earliest record) and count
		// the runs; of the cells below k, name the earliest.
		group = group[:0]
		for rank := lo; rank < hi; rank++ {
			group = append(group, rank)
		}
		slices.SortFunc(group, func(a, b int32) int {
			if c := slices.Compare(row(a), row(b)); c != 0 {
				return c
			}
			return int(a - b)
		})
		worst, size := int32(-1), 0
		for i := 0; i < len(group); {
			j := i + 1
			for j < len(group) && slices.Equal(row(group[j]), row(group[i])) {
				j++
			}
			if j-i < k && (worst < 0 || group[i] < worst) {
				worst, size = group[i], j-i
			}
			i = j
		}
		if worst >= 0 {
			return cellError(row(worst), size, k)
		}
	}
	return nil
}

// cellError names an intersection cell (stored as partition index + 1
// per release) holding fewer than k records.
func cellError(cell []int32, size, k int) error {
	key := make([]int, len(cell))
	for i, c := range cell {
		key[i] = int(c) - 1
	}
	return fmt.Errorf("verify: intersection cell %v holds %d records, below k=%d", key, size, k)
}

// Routing audits a block-range accelerator against the release it
// claims to cover. A wrong accelerator is a silently wrong COUNT on
// the hottest path, so — like Release — the audit re-derives
// everything from the release itself instead of trusting the index's
// bookkeeping: every partition covered by exactly one block position,
// stored bounds/sizes/volumes bit-identical to the release, curve
// keys recomputed through the index's own quantizer and strictly
// ordered (ties by original index), block key ranges sorted and
// pairwise disjoint, and every block MBR exactly the union of its
// members' boxes.
func Routing(ix *routing.Index, ps []anonmodel.Partition) error {
	if ix == nil {
		return fmt.Errorf("verify: nil routing index")
	}
	n := ix.Len()
	if n != len(ps) {
		return fmt.Errorf("verify: routing index covers %d partitions, release has %d", n, len(ps))
	}
	if n == 0 {
		if ix.NumBlocks() != 0 {
			return fmt.Errorf("verify: empty routing index has %d blocks", ix.NumBlocks())
		}
		return nil
	}
	quant := ix.Quantizer()
	if quant == nil {
		return fmt.Errorf("verify: routing index has no quantizer")
	}
	dims := len(ps[0].Box)
	seen := make([]bool, n)
	corner := make([]float64, dims)
	var cell []uint32
	for pos := 0; pos < n; pos++ {
		oi := ix.PosOrig(pos)
		if oi < 0 || oi >= n {
			return fmt.Errorf("verify: routing position %d maps to partition %d, out of range", pos, oi)
		}
		if seen[oi] {
			return fmt.Errorf("verify: partition %d covered by two routing positions", oi)
		}
		seen[oi] = true
		p := ps[oi]
		if !ix.PosBox(pos).Equal(p.Box) {
			return fmt.Errorf("verify: routing position %d stores box %v, partition %d has %v", pos, ix.PosBox(pos), oi, p.Box)
		}
		if ix.PosSize(pos) != p.Size() {
			return fmt.Errorf("verify: routing position %d stores size %d, partition %d holds %d records", pos, ix.PosSize(pos), oi, p.Size())
		}
		if got, want := ix.PosVol(pos), lattice(p.Box); got != want {
			return fmt.Errorf("verify: routing position %d stores cell volume %v, want %v", pos, got, want)
		}
		for a := 0; a < dims; a++ {
			corner[a] = p.Box[a].Lo
		}
		var key uint64
		key, cell = quant.KeyInto(ix.Curve(), corner, cell)
		if key != ix.PosKey(pos) {
			return fmt.Errorf("verify: routing position %d stores key %d, recomputed %d", pos, ix.PosKey(pos), key)
		}
		if pos > 0 {
			prevKey, prevOrig := ix.PosKey(pos-1), ix.PosOrig(pos-1)
			if prevKey > key || (prevKey == key && prevOrig >= oi) {
				return fmt.Errorf("verify: routing positions %d and %d out of curve order", pos-1, pos)
			}
		}
	}
	// Blocks: contiguous, covering, key ranges consistent with the
	// positions they span and disjoint from their neighbors, MBRs the
	// exact union of their members.
	nb := ix.NumBlocks()
	wantStart := 0
	for b := 0; b < nb; b++ {
		start, end, keyLo, keyHi := ix.Block(b)
		if start != wantStart || end <= start || end > n {
			return fmt.Errorf("verify: routing block %d spans [%d,%d), want start %d within %d positions", b, start, end, wantStart, n)
		}
		wantStart = end
		if keyLo != ix.PosKey(start) || keyHi != ix.PosKey(end-1) {
			return fmt.Errorf("verify: routing block %d key range [%d,%d] disagrees with member keys [%d,%d]", b, keyLo, keyHi, ix.PosKey(start), ix.PosKey(end-1))
		}
		if b > 0 {
			_, _, _, prevHi := ix.Block(b - 1)
			if prevHi >= keyLo {
				return fmt.Errorf("verify: routing blocks %d and %d have overlapping key ranges", b-1, b)
			}
		}
		union := attr.NewBox(dims)
		for pos := start; pos < end; pos++ {
			union.IncludeBox(ps[ix.PosOrig(pos)].Box)
		}
		if !ix.BlockBox(b).Equal(union) {
			return fmt.Errorf("verify: routing block %d MBR %v not tight (want %v)", b, ix.BlockBox(b), union)
		}
	}
	if wantStart != n {
		return fmt.Errorf("verify: routing blocks cover %d positions, index has %d", wantStart, n)
	}
	return nil
}

// lattice independently recomputes the integer-lattice cell count the
// uniform estimator divides by (attr.Box.Cells): the auditor's own
// copy is the reference Routing checks an index's volumes against.
func lattice(b attr.Box) float64 {
	c := 1.0
	for _, iv := range b {
		w := math.Round(iv.Hi - iv.Lo)
		if w < 0 {
			w = 0
		}
		c *= w + 1
	}
	return c
}
