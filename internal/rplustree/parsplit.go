package rplustree

// The split cascade: plan-then-wire execution of leaf splitting, the
// one path every oversized leaf takes — a per-tuple insert's single
// overflow and a bulk load's many-times-over leaf alike.
//
// Splitting a leaf is two very different kinds of work: pure
// computation (choosing hyperplanes, Hoare-partitioning record ranges,
// accumulating MBRs) and shared-state mutation (wiring nodes into the
// tree, charging a loader's proxy pages). The computation dominates — a bulk load splits leaves holding large
// fractions of the data set at every level — and it decomposes
// perfectly: once a leaf's records are partitioned at a hyperplane, the
// two halves never interact again.
//
// The cascade therefore runs in two phases:
//
//  1. planSplits recursively chooses and evaluates every split of an
//     oversized record set WITHOUT touching the tree. Each recursion
//     step owns a disjoint subslice of the leaf's record array, so the
//     two halves of a split can be planned on different goroutines
//     (par.Pool fork-join) with no locks and no false sharing. The
//     split context is frozen once per cascade: ctx.Domain (= the root
//     MBR) provably cannot change while a cascade runs, because record
//     appends update ancestor MBRs before any splitting starts and
//     restructuring never changes them.
//  2. applySplits wires the planned nodes into the tree on the calling
//     goroutine, always in the same order (pre-order, left half
//     first). Structural restructuring and pager charges therefore
//     happen in the identical sequence, which keeps not only the tree
//     but also the I/O counters of Figure 8 bit-identical for every
//     worker count.
//
// Why not one pager per subtree worker instead? Sharding the pager
// would hand each worker MemoryBytes/W of pool, making the measured
// I/O depend on the worker count — the Figure 8 reproduction would
// change meaning under -workers — and stitching independently built
// subtrees of different heights back under one root would need
// height-equalizing surgery the paper's algorithm never performs. The
// chosen ownership model is stated in DESIGN.md ("Concurrency model"):
// the pager remains confined to the goroutine driving the load; worker
// goroutines never see it.

import (
	"errors"

	"spatialanon/internal/attr"
	"spatialanon/internal/par"
)

// parSplitMin is the smallest oversized leaf whose plan gets a worker
// pool, and within a plan the smallest half worth forking to another
// worker. Below it the fork overhead (one goroutine + one channel)
// outweighs the partition scan.
const parSplitMin = 2048

// splitPlan is one planned leaf split: the hyperplane, the two halves'
// tight MBRs and record ranges (aliasing the original leaf's array,
// already partitioned in place), and the deeper splits of each half (nil
// when the half fits leaf capacity or cannot split).
type splitPlan struct {
	axis  int
	value float64

	lMBR, rMBR   attr.Box
	lRecs, rRecs []attr.Record

	lSub, rSub *splitPlan
}

// splitLeafRecursive splits a leaf until every resulting leaf is within
// capacity (bulk appends can leave a leaf many times over): plan every
// split, then wire the plan in. Small leaves — and every leaf when
// Parallelism is 1 — plan inline on a nil pool; the splits are the same
// either way and the determinism suite holds them to it.
func (t *Tree) splitLeafRecursive(leaf *node) error {
	if len(leaf.recs) <= t.cfg.leafCapacity() {
		return nil
	}
	// Planning reorders leaf.recs in place even when the leaf then stays (a
	// Guard veto): no base keeps that order, and no snapshot may see it.
	leaf.dur = nil
	leaf.own()
	// The split context's Domain is frozen for the cascade. An inline
	// plan reads the root MBR in place (nothing mutates the tree until
	// wiring starts); with workers it is cloned, which makes their reads
	// independent of the tree even in exotic interleavings and costs one
	// small box.
	var pool *par.Pool
	domain := t.root.mbr
	if len(leaf.recs) >= parSplitMin {
		if pool = par.NewPool(t.cfg.Parallelism); pool != nil {
			domain = domain.Clone()
		}
	}
	if p, ok := t.planSplits(leaf.recs, leaf.mbr, domain, pool); ok {
		if p.lSub == nil && p.rSub == nil && len(leaf.recs) == t.cfg.leafCapacity()+1 {
			// A leaf one record over (a tuple insert's) split in two: the right
			// half moves to an array with room to overfill it again, and the
			// left keeps the leaf's, so neither regrows before it splits.
			p.lRecs = leaf.recs[:len(p.lRecs)]
			p.rRecs = append(make([]attr.Record, 0, len(leaf.recs)), p.rRecs...)
		}
		return t.applySplits(leaf, &p)
	}
	return nil
}

// planSplits recursively plans the splits of recs, which have tight bound
// `mbr` and more records than a leaf holds; ok is false when they stay one
// leaf. The plan is a value: a split whose halves both fit a leaf
// allocates none. recs is partitioned in place (Hoare sweep, left =
// strictly below the hyperplane) instead of copied into fresh slices: bulk
// loads split leaves holding large fractions of the data set at every
// level, and per-level copying dominated both allocation and GC time. The
// halves alias the original backing array; the left half is
// capacity-clipped so a later append to it cannot stomp the right half. No
// tree state is read or written, so halves fork freely.
func (t *Tree) planSplits(recs []attr.Record, mbr, domain attr.Box, pool *par.Pool) (splitPlan, bool) {
	ctx := SplitContext{Schema: t.cfg.Schema, Domain: domain, MBR: mbr, MinSide: t.cfg.BaseK}
	axis, value, ok := t.cfg.Split.ChooseSplit(recs, ctx)
	if !ok {
		return splitPlan{}, false // all points identical: the leaf stays oversized
	}
	dims := len(mbr)
	halves := attr.NewBox(2 * dims)
	lMBR, rMBR := halves[:dims:dims], halves[dims:]
	mid := partition(recs, axis, value, lMBR, rMBR)
	lRecs, rRecs := recs[:mid:mid], recs[mid:]
	if t.cfg.Guard != nil && !t.cfg.Guard(lRecs, rRecs) {
		return splitPlan{}, false // constraint-violating split: the leaf grows instead
	}
	p := splitPlan{axis: axis, value: value, lMBR: lMBR, rMBR: rMBR, lRecs: lRecs, rRecs: rRecs}
	if pool != nil && len(rRecs) >= parSplitMin {
		var rSub *splitPlan
		join := pool.Fork(func() { rSub = t.subPlan(rRecs, rMBR, domain, pool) })
		p.lSub = t.subPlan(lRecs, lMBR, domain, pool)
		join()
		p.rSub = rSub
	} else {
		p.lSub = t.subPlan(lRecs, lMBR, domain, pool)
		p.rSub = t.subPlan(rRecs, rMBR, domain, pool)
	}
	return p, true
}

// subPlan is the plan of a split's half, on the heap, or nil when the
// half fits a leaf or stays one.
func (t *Tree) subPlan(recs []attr.Record, mbr, domain attr.Box, pool *par.Pool) *splitPlan {
	if len(recs) <= t.cfg.leafCapacity() {
		return nil
	}
	if p, ok := t.planSplits(recs, mbr, domain, pool); ok {
		return &p
	}
	return nil
}

// partition reorders recs in place, one Hoare sweep, so that the records
// strictly below value on axis come first, and returns how many there
// are. The sweep grows lMBR and rMBR over the two sides as it goes:
// split planning's tight boxes, which a second pass over the halves
// measured slower to build. Trie routing passes nil boxes, which grow
// nothing.
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

// applySplits wires a planned cascade into the tree. It runs on the
// goroutine driving the load and performs replaceWithPair calls in
// pre-order, left first, so parent overflow splits and loader I/O
// charges fire in the identical sequence for every worker count. A *CorruptionError aborts the subtree
// untouched (the structural substitution was refused before any
// mutation: the leaf keeps every record — planning only reordered them
// — and the halves were never wired in); any other error is an I/O
// charge on an already-complete structural change, so wiring continues
// through it — a fault leaves the tree in the same shape a fault-free
// run would produce — and the first error is surfaced.
func (t *Tree) applySplits(leaf *node, p *splitPlan) error {
	if p == nil {
		return nil
	}
	left := &node{mbr: p.lMBR, recs: p.lRecs, count: len(p.lRecs)}
	right := &node{mbr: p.rMBR, recs: p.rRecs, count: len(p.rRecs)}
	err := t.replaceWithPair(leaf, left, right, p.axis, p.value)
	if err != nil {
		var ce *CorruptionError
		if errors.As(err, &ce) {
			return err
		}
	}
	if e := t.applySplits(left, p.lSub); err == nil {
		err = e
	}
	if e := t.applySplits(right, p.rSub); err == nil {
		err = e
	}
	return err
}
