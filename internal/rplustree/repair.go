package rplustree

import "spatialanon/internal/attr"

// This file implements underflow repair for incremental maintenance.
// Deletions can drive a leaf below BaseK, and a long-lived index cannot
// keep it: every level view (the Section 3.1 hierarchical releases
// publish raw leaves) would expose it, and Lemma 1's collusion argument
// assumes the k-bound shape.
//
// Repair is remove-and-reinsert, the R-tree family's classic
// underflow treatment adapted to this tree's two extra invariants:
// uniform leaf depth, and routing regions that exist only as what the
// split-trie hyperplanes carve out. Merging two sibling leaves in place
// would need a region union that no single trie hyperplane describes;
// removing the underfull leaf and routing its records through the
// normal insertion path needs neither.
//
// Removing leaf L under parent P:
//
//  1. Splice L's trie leaf out of P's trie: L's trie parent — the
//     trie node carrying the hyperplane that once separated L from its
//     sibling subtree S — is overwritten with S. That alone widens
//     every region in S that bordered L across the vacated hyperplane,
//     so the siblings again tile P's region, and L is no longer P's
//     child. Subtract its count along the root path and retighten
//     ancestor MBRs.
//  2. Reinsert L's records through Insert: each routes to the leaf
//     now owning its point. Reinsertion only adds records to
//     surviving leaves (splitting them if they overflow), so repair
//     never creates a new underflow, and every leaf it touches stays
//     at the uniform depth.
//
// A parent left with a single child is legal in this tree (a trie
// subtree that is a lone leaf); but if L is its parent's only child
// the parent itself must go, so the repair climbs such single-child
// chains and removes the topmost node whose departure leaves a
// well-formed sibling set. If the chain reaches the root, the tree
// has no other records: it is reset to an empty single-leaf tree and
// the orphans are reinserted from scratch.

// repairUnderflow removes the underfull leaf from the tree and
// reinserts its records through normal routing. The caller has already
// removed the deleted record and fixed counts and MBRs along the root
// path. Errors are *CorruptionErrors; the records are placed regardless.
func (t *Tree) repairUnderflow(leaf *node) error {
	// Climb single-child chains: victim is the topmost node that can be
	// spliced out leaving its parent with at least one child.
	victim := leaf
	for victim.parent != nil && victim.parent.trie.isLeaf() {
		victim = victim.parent
	}
	orphans := append([]attr.Record(nil), leaf.recs...)

	parent := victim.parent
	if parent == nil {
		// The whole tree was one single-child chain over this leaf:
		// start over from an empty root.
		t.root = &node{mbr: attr.NewBox(t.cfg.Schema.Dims())}
		t.height = 1
	} else {
		if !spliceTrieLeaf(parent.trie, victim) {
			return &CorruptionError{Detail: "underflow repair of node not present in parent trie"}
		}
		parent.dur = nil // the spliced trie is not its durable copy's
		// The victim's records may have defined the MBRs above it.
		t.shrinkPath(parent, victim.count)
	}

	var err error
	for _, r := range orphans {
		if e := t.Insert(r); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// spliceTrieLeaf removes the trie leaf pointing at victim from the
// trie rooted at st: the trie node whose hyperplane separated victim
// from its sibling subtree is overwritten with that sibling. It reports
// whether it found victim — never when st itself is the leaf for victim,
// which callers exclude: a parent whose whole trie is the victim has one
// child, and the repair climbs past it.
func spliceTrieLeaf(st *splitTrie, victim *node) bool {
	switch {
	case st.isLeaf():
		return false
	case st.left.isLeaf() && st.left.child == victim:
		*st = *st.right
	case st.right.isLeaf() && st.right.child == victim:
		*st = *st.left
	default:
		return spliceTrieLeaf(st.left, victim) || spliceTrieLeaf(st.right, victim)
	}
	return true
}
