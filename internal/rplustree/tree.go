// Package rplustree implements the paper's anonymizing spatial index: a
// dynamic, non-overlapping multidimensional index over point data in the
// style of the R⁺-tree [27] / k-d-B-tree, plus the buffer-tree bulk
// loading algorithm of Section 2.1.
//
// Like the R⁺-tree the index never overlaps sibling partitions — the
// paper restricts itself to R-tree variants with this property because
// every k-anonymization algorithm in the literature produces
// non-overlapping partitions. Each node has two boxes:
//
//   - a routing region: the half-open box of space the node is
//     responsible for. Sibling regions are pairwise disjoint and tile
//     the parent's region, so every point routes to exactly one leaf.
//   - a minimum bounding rectangle (MBR): the tight box around the
//     records actually beneath the node. The gaps between a node's MBR
//     and its routing region are exactly the "gaps in the domain" of
//     Sections 2.3 and 4 — they are what make index-based
//     anonymizations more precise and queries on them more accurate.
//
// An internal node's children are the leaves of a small trie, the binary
// split history of its region. Splitting an overflowing internal node at
// its trie root hyperplane therefore never straddles a child, which
// sidesteps the k-d-B-tree's forced downward splits entirely while
// preserving the disjointness invariant. The tries are the geometry: a
// node stores its MBR, but not its routing region, which is derived where
// it is read — the whole space, cut by the hyperplanes on the way down to
// the node (walkRegions; the checkpoint decoder cuts the same as it reads).
package rplustree

import (
	"errors"
	"fmt"
	"math"

	"spatialanon/internal/attr"
)

// CorruptionError reports that the tree's in-memory structure violated
// an invariant only corruption (or a bug) can explain — for example a
// node being split that its parent does not reference. It is returned
// rather than panicked so callers driving fault-injected storage can
// observe the failure and recover; the offending mutation is not
// applied, so the tree is exactly as it was before the call.
type CorruptionError struct {
	Detail string
}

func (e *CorruptionError) Error() string { return "rplustree: corrupt structure: " + e.Detail }

// ErrLoading is returned by Insert, Delete and Update while a BulkLoader
// is attached: loading is a phase, and the loader is the tree's only
// writer until its Close.
var ErrLoading = errors.New("rplustree: a bulk loader is attached; close it first")

// Config parameterizes a Tree.
type Config struct {
	// Schema describes the quasi-identifier attributes; its length sets
	// the dimensionality.
	Schema *attr.Schema
	// BaseK is the minimum leaf occupancy the split machinery aims for —
	// the paper's base anonymity parameter k (Section 5.1 uses base
	// k=5 and derives all published granularities by leaf scanning).
	// Must be >= 2: one-record leaves are an identity release.
	BaseK int
	// LeafFactor is the paper's constant c: leaves hold between BaseK
	// and c*BaseK records (Section 3.1). Must be >= 2 so a median split
	// of an overflowing leaf leaves both halves with >= BaseK records.
	// Defaults to 2.
	LeafFactor int
	// NodeCapacity is the maximum number of children of an internal
	// node (the paper's m). Defaults to 8; minimum 2.
	NodeCapacity int
	// Split chooses leaf split hyperplanes. Defaults to
	// MinMarginPolicy, the R-tree-style "minimize the resulting
	// partitions" heuristic the paper contrasts with Mondrian's
	// widest-attribute rule.
	Split SplitPolicy
	// Guard, when non-nil, vetoes leaf splits: a split only happens if
	// Guard approves both halves. This is how the splitting routine
	// "can incorporate, for example, (α,k)-anonymity or l-diversity
	// just as easily as vanilla k-anonymity" (Section 6): install a
	// guard requiring both halves to satisfy the constraint, and leaves
	// grow instead of splitting whenever a split would violate it.
	Guard func(left, right []attr.Record) bool
}

func (c Config) withDefaults() Config {
	if c.LeafFactor == 0 {
		c.LeafFactor = 2
	}
	if c.NodeCapacity == 0 {
		c.NodeCapacity = 8
	}
	if c.Split == nil {
		c.Split = MinMarginPolicy{}
	}
	return c
}

func (c Config) validate() error {
	if err := c.Schema.Validate(); err != nil {
		return err
	}
	if c.BaseK < 2 {
		return fmt.Errorf("rplustree: BaseK %d provides no anonymity; need >= 2", c.BaseK)
	}
	if c.LeafFactor < 2 {
		return fmt.Errorf("rplustree: LeafFactor %d < 2 cannot guarantee k-occupancy after splits", c.LeafFactor)
	}
	if c.NodeCapacity < 2 {
		return fmt.Errorf("rplustree: NodeCapacity %d < 2", c.NodeCapacity)
	}
	return nil
}

// leafCapacity is c*k, the paper's maximum leaf occupancy.
func (c Config) leafCapacity() int { return c.LeafFactor * c.BaseK }

// splitTrie is an internal node's child structure, the binary split
// history of its region: trie leaves point at the children, in trie order;
// trie internal nodes carry the hyperplane that divided their region.
type splitTrie struct {
	// Leaf case: child is non-nil.
	child *node
	// Internal case: split at QI[axis] == value; left holds points with
	// coordinate < value, right holds >= value.
	axis        int
	value       float64
	left, right *splitTrie
}

func (st *splitTrie) isLeaf() bool { return st.child != nil }

// node is one tree node: a leaf holds recs, an internal node a trie.
type node struct {
	parent *node
	mbr    attr.Box // tight bound on the records beneath
	count  int      // records beneath

	recs []attr.Record // leaf payload

	// stamp is the tree's change clock at the last mutation beneath this
	// node (every mutation stamps its root path) — the one record of what
	// changed, read by Snapshot (cow.go) and by checkpoints (snapshot.go);
	// snap is the snapshot node built from it last, reused while the stamp
	// stands; shared says a snapshot holds recs' array.
	stamp  uint64
	snap   *snapNode
	shared bool

	// dur is the node's last published durable copy (snapshot.go): where
	// the encoding lives and the clock it was made at — it stands for the
	// subtree while the stamp is no later — and, of its last whole copy,
	// what a delta needs (a leaf's: what Delete removed since; an internal
	// node's: the child references it holds). nil until a checkpoint holding
	// the node is published, and again once a split plan reorders a leaf's
	// records or an edit changes a node's trie: no delta can be cut against
	// that copy. Behind a pointer so that it costs the tree's hot paths —
	// every split allocates two nodes — eight bytes per node, not
	// forty-eight.
	dur *durableCopy

	trie *splitTrie // nil in a leaf

	// buffer is the buffer-tree record buffer (Section 2.1); nil unless
	// a BulkLoader is driving this tree.
	buffer *nodeBuffer
}

func (n *node) isLeaf() bool { return n.trie == nil }

// Tree is the anonymizing spatial index.
type Tree struct {
	cfg    Config
	root   *node
	height int // number of levels; 1 = root is a leaf

	// loader is the buffer-tree bulk loader currently driving this
	// tree, if any (see bufferload.go): while it is set it is the only
	// writer.
	loader *BulkLoader

	// clock counts mutations; snapAt is its value at the last Snapshot.
	clock, snapAt uint64
}

// New creates an empty tree.
func New(cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := &node{mbr: attr.NewBox(cfg.Schema.Dims())}
	return &Tree{cfg: cfg, root: root, height: 1}, nil
}

// infiniteRegion is the whole space: the root's routing region.
func infiniteRegion(dims int) attr.Box {
	b := make(attr.Box, dims)
	for i := range b {
		b[i] = attr.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	}
	return b
}

// regionContains implements half-open routing: p belongs to region iff
// lo <= p < hi on every axis (an infinite hi admits everything, so the
// outermost regions behave as closed).
func regionContains(region attr.Box, p []float64) bool {
	for i, iv := range region {
		if p[i] < iv.Lo || p[i] >= iv.Hi {
			return false
		}
	}
	return true
}

// Config returns the tree's configuration (after defaulting).
func (t *Tree) Config() Config { return t.cfg }

// Len returns the number of records in the tree.
func (t *Tree) Len() int { return t.root.count }

// Height returns the number of levels in the tree (1 when the root is a
// leaf).
func (t *Tree) Height() int { return t.height }

// Insert adds one record, splitting nodes as needed (the tuple-loading
// path; bulk loads go through a BulkLoader). It returns ErrLoading while
// a loader is attached, and a *CorruptionError if a split finds the
// structure broken — the record has then still been placed.
func (t *Tree) Insert(rec attr.Record) error {
	if err := t.checkWrite(rec.QI); err != nil {
		return err
	}
	leaf := t.routeToLeaf(t.root, rec.QI)
	return t.insertIntoLeaf(leaf, rec)
}

// checkWrite refuses a maintenance write while a loader is attached or
// when qi breaks attr.ValidateQI.
func (t *Tree) checkWrite(qi []float64) error {
	if t.loader != nil {
		return ErrLoading
	}
	if err := attr.ValidateQI(t.cfg.Schema.Dims(), qi); err != nil {
		return fmt.Errorf("rplustree: %w", err)
	}
	return nil
}

// routeToLeaf descends from n to the unique leaf whose region contains p.
func (t *Tree) routeToLeaf(n *node, p []float64) *node {
	for !n.isLeaf() {
		n = routeChild(n, p)
	}
	return n
}

// routeChild picks the unique child of internal node n responsible for p
// by walking n's split trie.
func routeChild(n *node, p []float64) *node {
	st := n.trie
	for !st.isLeaf() {
		if p[st.axis] < st.value {
			st = st.left
		} else {
			st = st.right
		}
	}
	return st.child
}

// insertIntoLeaf places rec in leaf, updates MBRs and counts along the
// root path, and splits on overflow. The record lands before any split
// runs, so a split error never loses it. MBRs grow up to the first one
// that already holds the point: every box above holds it too.
func (t *Tree) insertIntoLeaf(leaf *node, rec attr.Record) error {
	leaf.recs = append(leaf.recs, rec)
	t.clock++
	grow := true
	for n := leaf; n != nil; n = n.parent {
		n.count++
		grow = grow && !n.mbr.Contains(rec.QI)
		if grow {
			n.mbr.Include(rec.QI)
		}
		n.stamp = t.clock
	}
	return t.splitLeafRecursive(leaf)
}

// bulkAppendLeaf places a batch of records in leaf at once: the root
// path's counts and MBRs are updated once for the whole group, and the
// leaf is then split recursively down to capacity. Grouped appends are
// what make buffer emptying cheaper than tuple-at-a-time insertion even
// in memory — one path update and O(log) splits per group instead of
// per record. box bounds recs.
func (t *Tree) bulkAppendLeaf(leaf *node, recs []attr.Record, box attr.Box) error {
	if len(recs) == 0 {
		return nil
	}
	leaf.recs = append(leaf.recs, recs...)
	t.clock++
	for n := leaf; n != nil; n = n.parent {
		n.count += len(recs)
		n.mbr.IncludeBox(box)
		n.stamp = t.clock
	}
	return t.splitLeafRecursive(leaf)
}

// replaceWithPair substitutes old (a child of its parent, or the root)
// with the two halves produced by splitting it at (axis, value), then
// handles parent overflow. A *CorruptionError is returned before any
// mutation when old is not wired into its parent; any other error is a
// loader's I/O charge, after the structural change is already complete.
func (t *Tree) replaceWithPair(old, left, right *node, axis int, value float64) error {
	parent := old.parent
	if parent == nil {
		// Root split: the tree grows a level.
		newRoot := &node{mbr: old.mbr.Clone(), count: old.count, trie: &splitTrie{}}
		newRoot.trie.cut(axis, value, left, right)
		left.parent = newRoot
		right.parent = newRoot
		t.root = newRoot
		t.height++
		return t.splitBuffer(old, left, right)
	}
	// Validate before mutating so a corruption failure leaves the tree
	// exactly as it was (the old node keeps all its records).
	st := findTrieLeaf(parent.trie, old)
	if st == nil {
		return &CorruptionError{Detail: "split of node not present in parent trie"}
	}
	// Replace old in parent's trie: its durable copy's trie is no longer
	// its own (the mutation that overflowed old has stamped the path above
	// parent).
	parent.dur = nil
	parent.stamp = t.clock
	left.parent = parent
	right.parent = parent

	st.cut(axis, value, left, right)

	err := t.splitBuffer(old, left, right)

	if parent.trie.fanout() > t.cfg.NodeCapacity {
		// Restructuring runs to completion even after an I/O error so
		// the tree's shape never depends on fault timing.
		if e := t.splitInternal(parent); err == nil {
			err = e
		}
	}
	return err
}

// cut turns st into the split at (axis, value) between trie leaves for
// left and right, both allocated at once.
func (st *splitTrie) cut(axis int, value float64, left, right *node) {
	pair := &[2]splitTrie{{child: left}, {child: right}}
	*st = splitTrie{axis: axis, value: value, left: &pair[0], right: &pair[1]}
}

// fanout counts the children under st.
func (st *splitTrie) fanout() int {
	if st.isLeaf() {
		return 1
	}
	return st.left.fanout() + st.right.fanout()
}

// findTrieLeaf locates the trie leaf pointing at target.
func findTrieLeaf(st *splitTrie, target *node) *splitTrie {
	if st.isLeaf() {
		if st.child == target {
			return st
		}
		return nil
	}
	if got := findTrieLeaf(st.left, target); got != nil {
		return got
	}
	return findTrieLeaf(st.right, target)
}

// splitInternal divides an overflowing internal node at its trie root
// hyperplane. Because every child was created by recursively splitting
// this node's region, the trie root hyperplane straddles no child: each
// half takes the trie half that holds it, and sums its children's counts
// and MBRs from that half.
func (t *Tree) splitInternal(n *node) error {
	rootSplit := n.trie
	if rootSplit.isLeaf() {
		// invariant: an internal node only overflows past NodeCapacity
		// >= 2 children, and every child beyond the first was created
		// by a trie split, so an overflowing node's trie root is never
		// a leaf. No input or injected storage fault can reach this;
		// the panic is a provable programmer error, deliberately kept.
		panic("rplustree: internal node with trivial trie cannot overflow")
	}
	dims := t.cfg.Schema.Dims()
	left := &node{mbr: attr.NewBox(dims), trie: rootSplit.left}
	right := &node{mbr: attr.NewBox(dims), trie: rootSplit.right}
	for _, side := range [2]*node{left, right} {
		side.trie.each(func(c *node) {
			c.parent = side
			side.mbr.IncludeBox(c.mbr)
			side.count += c.count
		})
	}
	// A trie subtree that is itself a leaf means that half has exactly
	// one child; that is legal (NodeCapacity >= 2 guarantees both halves
	// non-empty because the trie root has children on both sides).
	return t.replaceWithPair(n, left, right, rootSplit.axis, rootSplit.value)
}

// Delete removes the record with the given ID located at point qi.
// It reports whether a record was found and removed. A leaf driven
// below BaseK is repaired immediately — removed from the tree with
// its survivors reinserted through normal routing (see repair.go) —
// so incremental maintenance never accumulates underfull leaves; only
// a root-leaf tree with fewer than BaseK records total may sit below
// k, and publication gates on total size anyway. It returns ErrLoading
// while a loader is attached.
func (t *Tree) Delete(id int64, qi []float64) (bool, error) {
	if t.loader != nil {
		return false, ErrLoading
	}
	if len(qi) != t.cfg.Schema.Dims() {
		return false, nil
	}
	leaf := t.routeToLeaf(t.root, qi)
	idx := -1
	for i, r := range leaf.recs {
		if r.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, nil
	}
	if leaf.dur != nil {
		leaf.dur.base.remove(idx)
	}
	leaf.own()
	leaf.recs = append(leaf.recs[:idx], leaf.recs[idx+1:]...)
	t.clock++
	t.shrinkPath(leaf, 1)
	if leaf.parent == nil || len(leaf.recs) >= t.cfg.BaseK {
		return true, nil
	}
	return true, t.repairUnderflow(leaf)
}

// shrinkPath takes count records off n's root path, stamps it and
// retightens its MBRs in place: a leaf's from its records, a node's from
// its children's. No box is held across a mutation (a snapshot clones its
// leaves' boxes; Leaves and Audit alias them for the length of a read).
func (t *Tree) shrinkPath(n *node, count int) {
	for ; n != nil; n = n.parent {
		n.count -= count
		n.stamp = t.clock
		for i := range n.mbr {
			n.mbr[i] = attr.EmptyInterval()
		}
		if n.isLeaf() {
			for _, r := range n.recs {
				n.mbr.Include(r.QI)
			}
		} else {
			n.trie.each(func(c *node) { n.mbr.IncludeBox(c.mbr) })
		}
	}
}

// Update relocates a record: it removes the record with the given ID at
// its old coordinates and reinserts it with new ones. The bool reports
// whether the record was found. A new record of the wrong dimensionality,
// or an attached loader (ErrLoading), is refused before anything moves.
func (t *Tree) Update(id int64, oldQI []float64, rec attr.Record) (bool, error) {
	if err := t.checkWrite(rec.QI); err != nil {
		return false, err
	}
	found, err := t.Delete(id, oldQI)
	if !found {
		return false, err
	}
	if e := t.Insert(rec); err == nil {
		err = e
	}
	return true, err
}
