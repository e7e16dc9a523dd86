package rplustree

import (
	"errors"

	"spatialanon/internal/attr"
)

// splitLeafRecursive splits a leaf until every resulting leaf is within
// capacity: a tuple insert leaves a leaf one record over, a bulk append
// can leave it many times over. The cascade runs on the calling
// goroutine, pre-order and left half first, so the splits and any
// attached loader's I/O charges come in one fixed sequence.
func (t *Tree) splitLeafRecursive(leaf *node) error {
	if len(leaf.recs) <= t.cfg.leafCapacity() {
		return nil
	}
	// Splitting reorders leaf.recs in place even when the leaf then stays (a
	// Guard veto): no base keeps that order, and no snapshot may see it.
	leaf.dur = nil
	leaf.own()
	// The root's box cannot change while the cascade runs: the records
	// were appended, and the boxes above grown, before it started, and
	// restructuring never changes them.
	return t.splitLeaf(leaf, t.root.mbr, len(leaf.recs) == t.cfg.leafCapacity()+1)
}

// splitLeaf splits an oversized leaf in two and recurses into each half
// that is still over capacity; oneOver marks a cascade's first leaf when it
// is one record over (a tuple insert's). The records are partitioned in place
// (Hoare sweep, left = strictly below the hyperplane) rather than copied:
// bulk loads split leaves holding large fractions of the data set at every
// level, and per-level copying dominated both allocation and GC time. The
// halves alias the leaf's array; the left one is capacity-clipped so a
// later append to it cannot stomp the right one.
//
// A *CorruptionError aborts the split before any mutation: the leaf keeps
// every record, only reordered. Any other error is an I/O charge on a
// complete structural change, so the cascade continues through it — a
// fault leaves the tree in the shape a fault-free run builds — and the
// first error is returned.
func (t *Tree) splitLeaf(leaf *node, domain attr.Box, oneOver bool) error {
	recs := leaf.recs
	ctx := SplitContext{Schema: t.cfg.Schema, Domain: domain, MBR: leaf.mbr, MinSide: t.cfg.BaseK}
	axis, value, ok := t.cfg.Split.ChooseSplit(recs, ctx)
	if !ok {
		return nil // all points identical: the leaf stays oversized
	}
	dims := len(leaf.mbr)
	halves := attr.NewBox(2 * dims)
	lMBR, rMBR := halves[:dims:dims], halves[dims:]
	mid := partition(recs, axis, value, lMBR, rMBR)
	lRecs, rRecs := recs[:mid:mid], recs[mid:]
	if t.cfg.Guard != nil && !t.cfg.Guard(lRecs, rRecs) {
		return nil // constraint-violating split: the leaf grows instead
	}
	if oneOver {
		// The two halves fit: the right one moves to an array with room to
		// overfill it again, and the left keeps the leaf's, so neither
		// regrows before it splits. Doing the same deeper in a bulk
		// cascade measured more allocated bytes per load, not fewer.
		lRecs = recs[:mid]
		rRecs = append(make([]attr.Record, 0, len(recs)), rRecs...)
	}
	left := &node{mbr: lMBR, recs: lRecs, count: len(lRecs)}
	right := &node{mbr: rMBR, recs: rRecs, count: len(rRecs)}
	err := t.replaceWithPair(leaf, left, right, axis, value)
	if err != nil {
		var ce *CorruptionError
		if errors.As(err, &ce) {
			return err
		}
	}
	for _, half := range [2]*node{left, right} {
		if len(half.recs) > t.cfg.leafCapacity() {
			if e := t.splitLeaf(half, domain, false); err == nil {
				err = e
			}
		}
	}
	return err
}

// partition reorders recs in place, one Hoare sweep, so that the records
// strictly below value on axis come first, and returns how many there
// are. The sweep grows lMBR and rMBR over the two sides as it goes:
// a split's tight boxes, which a second pass over the halves measured
// slower to build. Trie routing passes nil boxes, which grow nothing.
func partition(recs []attr.Record, axis int, value float64, lMBR, rMBR attr.Box) int {
	lo, hi := 0, len(recs)
	for lo < hi {
		if recs[lo].QI[axis] < value {
			lMBR.Include(recs[lo].QI)
			lo++
		} else {
			hi--
			recs[lo], recs[hi] = recs[hi], recs[lo]
			rMBR.Include(recs[hi].QI)
		}
	}
	return lo
}
