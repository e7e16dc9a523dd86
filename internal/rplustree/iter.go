package rplustree

import (
	"fmt"
	"math"
	"slices"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

// Leaves returns every non-empty leaf in trie order as a partition:
// its tight MBR (the generalized value its records publish under) and
// the records themselves. Box and Records alias tree storage; callers
// must not mutate them, nor hold them across a mutation of the tree. Trie order is the "sequential ordering of nodes
// on the same tree level" the leaf-scan algorithm of Section 3.2 relies
// on: adjacent leaves are spatially adjacent, so groups of consecutive
// leaves form compact partitions. Leaf MBRs are tight, so these
// partitions are born compacted — the index "maintains MBRs" (Section
// 2.3) and never needs the explicit compaction pass.
func (t *Tree) Leaves() []anonmodel.Partition {
	// Count first, so the result is allocated once at its size.
	nonEmpty := 0
	t.walkLeaves(t.root, func(n *node) {
		if len(n.recs) > 0 {
			nonEmpty++
		}
	})
	var out []anonmodel.Partition // nil for an empty tree
	if nonEmpty > 0 {
		out = make([]anonmodel.Partition, 0, nonEmpty)
	}
	t.walkLeaves(t.root, func(n *node) {
		if len(n.recs) > 0 {
			out = append(out, anonmodel.Partition{Box: n.mbr, Records: n.recs})
		}
	})
	return out
}

// walkLeaves visits leaves under n in trie order.
func (t *Tree) walkLeaves(n *node, visit func(*node)) {
	if n.isLeaf() {
		visit(n)
		return
	}
	n.trie.each(func(c *node) { t.walkLeaves(c, visit) })
}

// each visits the children under st in trie order.
func (st *splitTrie) each(visit func(*node)) {
	if st.isLeaf() {
		visit(st.child)
		return
	}
	st.left.each(visit)
	st.right.each(visit)
}

// walkRegions visits st and every trie node beneath it in pre-order, each
// with its region — the box a split divides, or a trie leaf's child owns:
// region, cut by the hyperplanes above. The cuts are made in region itself
// and undone on the way back up, so the box a visit sees is good only while
// the visit runs; clone what must outlive it. visit's first error stops the
// walk.
func (st *splitTrie) walkRegions(region attr.Box, visit func(st *splitTrie, region attr.Box) error) error {
	if err := visit(st, region); err != nil || st.isLeaf() {
		return err
	}
	iv := region[st.axis]
	region[st.axis].Hi = st.value
	err := st.left.walkRegions(region, visit)
	if err == nil {
		region[st.axis] = attr.Interval{Lo: st.value, Hi: iv.Hi}
		err = st.right.walkRegions(region, visit)
	}
	region[st.axis] = iv
	return err
}

// Level returns the nodes at the given level in trie order, level 0
// being the leaves and Height()-1 the root, each as one partition of
// the Section 3.1 hierarchical release: the node's MBR plus the records
// beneath it, in leaf order. Boxes and records are copies. Nodes with
// zero records are omitted.
func (t *Tree) Level(level int) ([]anonmodel.Partition, error) {
	if level < 0 || level >= t.height {
		return nil, fmt.Errorf("rplustree: level %d outside [0,%d)", level, t.height)
	}
	depth := t.height - 1 - level // root depth 0
	var out []anonmodel.Partition
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		if d == depth {
			if n.count == 0 {
				return
			}
			recs := make([]attr.Record, 0, n.count)
			t.walkLeaves(n, func(l *node) {
				recs = append(recs, l.recs...)
			})
			out = append(out, anonmodel.Partition{Box: n.mbr.Clone(), Records: recs})
			return
		}
		n.trie.each(func(c *node) { walk(c, d+1) })
	}
	walk(t.root, 0)
	return out, nil
}

// Search returns the records whose exact coordinates fall inside the
// query box, in trie order — the order of Leaves, and of each leaf's
// records — pruning by MBR, so the gaps between MBRs and routing regions
// (Section 2.3) let whole subtrees be skipped even when the query
// intersects their routing regions.
func (t *Tree) Search(q attr.Box) []attr.Record {
	var out []attr.Record
	var walk func(n *node)
	walk = func(n *node) {
		if !n.mbr.Intersects(q) {
			return
		}
		if n.isLeaf() {
			for _, r := range n.recs {
				if q.Contains(r.QI) {
					out = append(out, r)
				}
			}
			return
		}
		n.trie.each(walk)
	}
	walk(t.root)
	return out
}

// CheckInvariants verifies the structural invariants of the index and
// returns the first violation found. It is the one structural audit:
// verify.Tree, the chaos harness and the store's recovery gate run it. It
// is O(n log n) and not meant for hot paths, and it allocates per tree
// level, not per node.
//
// Invariants:
//  1. Every split hyperplane lies strictly inside the region it cuts
//     (the checkpoint decoder's rule), so the regions the tries derive
//     are non-empty and siblings tile their parent's.
//  2. A node's MBR is tight: exactly the union of its descendants'
//     records, and contained in its routing region.
//  3. Counts aggregate correctly.
//  4. All leaves are at the same depth.
//  5. Every record's point lies in its leaf's routing region.
//  6. Each trie leaf is a distinct child, whose parent is the node.
func (t *Tree) CheckInvariants() error {
	a := auditWalk{leafDepth: -1, boxes: make([]attr.Box, 0, t.height)}
	return a.node(t.root, 0, infiniteRegion(t.cfg.Schema.Dims()))
}

// auditWalk is one CheckInvariants pass and its scratch.
type auditWalk struct {
	leafDepth int
	boxes     []attr.Box // one per depth: the MBR the node there should have
	met       []*node    // per node on the path, the children its trie has reached so far
}

func (a *auditWalk) node(n *node, depth int, region attr.Box) error {
	if !n.mbr.IsEmpty() && !regionContainsBox(region, n.mbr) {
		return fmt.Errorf("node MBR %v escapes region %v", n.mbr, region)
	}
	if depth == len(a.boxes) {
		a.boxes = append(a.boxes, make(attr.Box, len(region)))
	}
	want := a.boxes[depth]
	for i := range want {
		want[i] = attr.EmptyInterval()
	}
	if n.isLeaf() {
		if a.leafDepth == -1 {
			a.leafDepth = depth
		} else if depth != a.leafDepth {
			return fmt.Errorf("leaf at depth %d, expected %d", depth, a.leafDepth)
		}
		if n.count != len(n.recs) {
			return fmt.Errorf("leaf count %d != %d records", n.count, len(n.recs))
		}
		for _, r := range n.recs {
			if !regionContains(region, r.QI) {
				return fmt.Errorf("record %d at %v outside leaf region %v", r.ID, r.QI, region)
			}
			want.Include(r.QI)
		}
		if !want.Equal(n.mbr) && !(want.IsEmpty() && n.mbr.IsEmpty()) {
			return fmt.Errorf("leaf MBR %v not tight (want %v)", n.mbr, want)
		}
		return nil
	}
	base, count := len(a.met), 0
	err := n.trie.walkRegions(region, func(st *splitTrie, r attr.Box) error {
		if !st.isLeaf() {
			if iv := r[st.axis]; !(st.value > iv.Lo && st.value < iv.Hi) {
				return fmt.Errorf("split at %v outside region axis %d %v", st.value, st.axis, iv)
			}
			return nil
		}
		c := st.child
		if slices.Contains(a.met[base:], c) {
			return fmt.Errorf("trie references child twice")
		}
		a.met = append(a.met, c)
		if c.parent != n {
			return fmt.Errorf("child has wrong parent pointer")
		}
		count += c.count
		want.IncludeBox(c.mbr)
		return a.node(c, depth+1, r)
	})
	a.met = a.met[:base]
	if err != nil {
		return err
	}
	if count != n.count {
		return fmt.Errorf("node count %d != children sum %d", n.count, count)
	}
	if !want.Equal(n.mbr) && !(want.IsEmpty() && n.mbr.IsEmpty()) {
		return fmt.Errorf("node MBR %v not union of children (want %v)", n.mbr, want)
	}
	return nil
}

// regionContainsBox reports whether a closed MBR fits in a half-open
// routing region: records route by lo <= p < hi, so a tight MBR's Hi
// stays strictly below the region's Hi unless the region extends to
// +inf.
func regionContainsBox(region, mbr attr.Box) bool {
	for i := range region {
		if mbr[i].Lo < region[i].Lo {
			return false
		}
		if mbr[i].Hi >= region[i].Hi && !math.IsInf(region[i].Hi, 1) {
			return false
		}
	}
	return true
}
