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
	"errors"
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
	lo, hi := idRange(ps, math.MaxInt64, math.MinInt64)
	seen := newIDIndex(lo, hi, anonmodel.TotalRecords(ps))
	for i, p := range ps {
		if err := publish(&seen, i, p, c); err != nil {
			if twice := (*twiceError)(nil); errors.As(err, &twice) {
				return twiceInRelease(twice.id, firstHolder(ps, twice.id), i)
			}
			return err
		}
	}
	return nil
}

// publish audits partition pi of a release: non-empty, constraint
// satisfied, every record inside the box and its ID not yet in seen,
// which the ID then joins. A record seen already is a *twiceError; the
// caller names its first publisher.
func publish(seen *idIndex, pi int, p anonmodel.Partition, c anonmodel.Constraint) error {
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
		fresh, err := seen.add(r.ID)
		if err != nil {
			return err
		}
		if !fresh {
			return &twiceError{id: r.ID}
		}
	}
	return nil
}

// twiceError reports a record publish met a second time.
type twiceError struct{ id int64 }

func (e *twiceError) Error() string { return fmt.Sprintf("verify: record %d published twice", e.id) }

// twiceInRelease names a record published by partitions first and pi
// of one release.
func twiceInRelease(id int64, first, pi int) error {
	return fmt.Errorf("verify: record %d published in partitions %d and %d", id, first, pi)
}

// firstHolder returns the index of the first partition of ps holding a
// record with the given ID, or -1: the walk that finds a duplicate's
// first publisher, run on the error path only.
func firstHolder(ps []anonmodel.Partition, id int64) int {
	for pi, p := range ps {
		for i := range p.Size() {
			if p.Record(i).ID == id {
				return pi
			}
		}
	}
	return -1
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
// Everything is re-derived from the partitions' records: an idIndex
// ranks the family's IDs, each rank maps to a row in first-seen order
// (whatever order the ranks follow), and one int32 per (row, later
// release) holds the record's cell coordinates. Violations are
// reported in (release, partition, record) order of their first
// record, so the same family always names the same witness.
func Releases(sets [][]anonmodel.Partition, k int) error {
	if len(sets) == 0 {
		return nil
	}
	for _, rel := range sets {
		if len(rel) > math.MaxInt32-1 {
			return errTooManyPartitions(len(rel))
		}
	}
	// Every release of a valid family holds the same IDs, so release 0's
	// index them all. An ID that only a later release holds (a stray)
	// makes the family invalid: the audit then runs again over every
	// release's IDs, so the witness is the one the full walk names.
	stray, err := releases(sets, 1, k)
	if stray {
		_, err = releases(sets, len(sets), k)
	}
	return err
}

// releases is Releases with the ID index built from the first indexed
// releases; it gives up, reporting a stray, at a record whose ID the
// index does not hold.
func releases(sets [][]anonmodel.Partition, indexed, k int) (stray bool, err error) {
	n, width := 0, len(sets)
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, rel := range sets[:indexed] {
		n = max(n, anonmodel.TotalRecords(rel))
		lo, hi = idRange(rel, lo, hi)
	}
	ids := newIDIndex(lo, hi, n)
	for _, rel := range sets[:indexed] {
		for _, p := range rel {
			for i := range p.Size() {
				if _, err := ids.add(p.Record(i).ID); err != nil {
					return false, err
				}
			}
		}
	}
	m, err := ids.freeze()
	if err != nil {
		return false, err
	}
	// Rows follow first-seen order, whatever order the ranks follow:
	// pos[rank] is 1 + the row of the record with that rank, 0 = not
	// seen yet. Release 0's records take rows 0, 1, 2, … in walk order,
	// so partition pi's are one run of rows; a stray (an ID release 0
	// lacks) takes the next free row when first met.
	pos := make([]int32, m)
	// cells[row*w+ri-1] is 1 + the index of the partition holding the
	// record in release ri ≥ 1; 0 = not seen there. Release 0's is the
	// run the row lies in.
	w := width - 1
	cells := make([]int32, m*w)
	rows := int32(0)
	for ri, rel := range sets {
		for pi, p := range rel {
			for i := range p.Size() {
				id := p.Record(i).ID
				rank, ok := ids.rank(id)
				if !ok {
					return true, nil
				}
				at := &pos[rank]
				if ri == 0 || *at == 0 {
					if *at != 0 {
						return false, fmt.Errorf("verify: record %d in two partitions of release 0", id)
					}
					rows++
					*at = rows
				}
				if ri == 0 {
					continue
				}
				cell := &cells[int(*at-1)*w+ri-1]
				if *cell != 0 {
					return false, fmt.Errorf("verify: record %d in two partitions of release %d", id, ri)
				}
				*cell = int32(pi) + 1
			}
		}
	}
	row := func(r int32) []int32 { return cells[int(r)*w : (int(r)+1)*w] }
	// Some ID is missing from some release when a stray has a row or a
	// row has a hole. The witness is the first record in walk order
	// whose ID misses a release: the missing ID met earliest.
	n0 := int32(anonmodel.TotalRecords(sets[0]))
	if rows > n0 || slices.Contains(cells, 0) {
		for _, rel := range sets {
			for _, p := range rel {
				for i := range p.Size() {
					id := p.Record(i).ID
					rank, _ := ids.rank(id)
					if r := pos[rank] - 1; r >= n0 {
						return false, fmt.Errorf("verify: record %d missing from release 0", id)
					} else if ri := slices.Index(row(r), 0); ri >= 0 {
						return false, fmt.Errorf("verify: record %d missing from release %d", id, ri+1)
					}
				}
			}
		}
	}
	// Every cell lies inside one partition of release 0, so cells are
	// counted partition by partition over its run of rows.
	var group []int32
	first, end := int32(0), int32(0)
	for pi, p := range sets[0] {
		first, end = end, end+int32(p.Size())
		if first == end {
			continue // no records, no cell
		}
		// The common family — coarser releases that are unions of whole
		// release-0 partitions — puts the whole partition in one cell.
		oneCell := true
		for r := first + 1; r < end && oneCell; r++ {
			oneCell = slices.Equal(row(r), row(first))
		}
		if oneCell {
			if p.Size() < k {
				return false, cellError(pi, row(first), p.Size(), k)
			}
			continue
		}
		// Otherwise sort the partition's rows by cell (ties by row, so a
		// cell's first element is its earliest record) and count the
		// runs; of the cells below k, name the earliest.
		group = group[:0]
		for r := first; r < end; r++ {
			group = append(group, r)
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
			return false, cellError(pi, row(worst), size, k)
		}
	}
	return false, nil
}

// cellError names the intersection cell of release-0 partition pi and
// the partitions of the later releases (stored as index + 1) holding
// fewer than k records.
func cellError(pi int, later []int32, size, k int) error {
	key := []int{pi}
	for _, c := range later {
		key = append(key, int(c)-1)
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
