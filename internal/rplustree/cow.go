package rplustree

import (
	"sync"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

// This file implements the tree's persistent snapshot: what the serving
// layer (internal/serve) publishes after every group commit, at a cost
// proportional to the batch, not the tree.
//
// A Snapshot is a second, immutable tree shaped like the index. Every tree
// node caches the snapshot node it produced last and every mutation stamps
// its root path with the tree's change clock (node.stamp), so Snapshot
// rebuilds exactly the nodes stamped since the previous call — the changed
// leaves and the path above them — and shares every other subtree.
//
// No record is copied: a snapshot leaf's Records is the tree's own array,
// cap-limited to the length it had, and the leaf is marked shared. The
// invariant that makes this sound: NO ARRAY ELEMENT BELOW A PUBLISHED
// LENGTH IS EVER WRITTEN. Appends write at or past every published length;
// the two in-place writers — Delete's shift and splitLeaf's reorder — first
// call own. A leaf's box is widened and retightened in place, so the
// snapshot clones it.

// Snapshot is an immutable image of the tree's non-empty leaves, consistent
// under any further mutation and readable from any number of goroutines.
//
//anonylint:published — handed to concurrent readers by the serving layer; writes only under once
type Snapshot struct {
	root *snapNode
	once sync.Once
	flat []anonmodel.Partition
}

// snapNode is one snapshot node: kids in trie order, or a non-empty leaf's
// partition; leaves counts the non-empty leaves beneath it.
//
//anonylint:published — reachable through a Snapshot and shared by later ones until its tree node changes
type snapNode struct {
	kids   []*snapNode
	leaf   anonmodel.Partition
	leaves int
}

// Snapshot returns the image of the tree as it stands: O(changed leaves ×
// height) allocations, no record copies. Like all tree reads it belongs to
// the goroutine that owns the tree, which hands the result to its readers.
func (t *Tree) Snapshot() *Snapshot {
	s := &Snapshot{root: t.snapshotNode(t.root)}
	t.snapAt = t.clock
	return s
}

// snapshotNode returns n's cached snapshot node while nothing beneath n was
// stamped after the last Snapshot (a node minted since has none).
func (t *Tree) snapshotNode(n *node) *snapNode {
	if n.snap != nil && n.stamp <= t.snapAt {
		return n.snap
	}
	sn := &snapNode{}
	switch {
	case !n.isLeaf():
		sn.kids = t.snapshotTrie(n.trie, make([]*snapNode, 0, n.trie.fanout()))
		for _, kid := range sn.kids {
			sn.leaves += kid.leaves
		}
	case len(n.recs) > 0:
		sn.leaf = anonmodel.Partition{Box: n.mbr.Clone(), Records: n.recs[:len(n.recs):len(n.recs)]}
		sn.leaves = 1
		n.shared = true
	}
	n.snap = sn
	return sn
}

// snapshotTrie appends the snapshot nodes of the children under st.
func (t *Tree) snapshotTrie(st *splitTrie, kids []*snapNode) []*snapNode {
	if st.isLeaf() {
		return append(kids, t.snapshotNode(st.child))
	}
	return t.snapshotTrie(st.right, t.snapshotTrie(st.left, kids))
}

// own moves a leaf whose array a snapshot shares onto a private copy.
func (n *node) own() {
	if n.shared {
		n.recs, n.shared = append([]attr.Record(nil), n.recs...), false
	}
}

// Leaves returns the snapshot's leaves in trie order, like Tree.Leaves at
// the moment it was taken. The slice is built by the first caller and
// shared: it and every partition in it must be treated as immutable.
func (s *Snapshot) Leaves() []anonmodel.Partition {
	s.once.Do(func() {
		s.flat = s.root.appendLeaves(make([]anonmodel.Partition, 0, s.root.leaves))
	})
	return s.flat
}

func (sn *snapNode) appendLeaves(out []anonmodel.Partition) []anonmodel.Partition {
	if sn.leaf.Size() > 0 {
		return append(out, sn.leaf)
	}
	for _, kid := range sn.kids {
		out = kid.appendLeaves(out)
	}
	return out
}

// SnapshotLeaves is Snapshot().Leaves(); the previous result it takes is
// ignored (snapshots share through the tree, not through the caller).
func (t *Tree) SnapshotLeaves(_ []anonmodel.Partition) []anonmodel.Partition {
	return t.Snapshot().Leaves()
}
