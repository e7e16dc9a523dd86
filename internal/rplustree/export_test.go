package rplustree

import (
	"errors"
	"math"

	"spatialanon/internal/attr"
)

// MoveBottomPlane moves the hyperplane between two sibling leaves — the
// first trie split, in the first internal node above the leaves, whose
// halves are both leaves — up to the right leaf's largest coordinate on
// its axis, without touching anything else: every record of the right
// leaf below that coordinate now routes to the left leaf. It returns how
// many of the right leaf's records that misroutes, and how many it holds.
// The tree must have at least two levels.
func (t *Tree) MoveBottomPlane() (misrouted, of int) {
	n := t.root
	for !n.childNodes()[0].isLeaf() {
		n = n.childNodes()[0]
	}
	st := n.trie
	for !st.left.isLeaf() || !st.right.isLeaf() {
		if st.left.isLeaf() {
			st = st.right
		} else {
			st = st.left
		}
	}
	right := st.right.child
	st.value = right.mbr[st.axis].Hi
	for _, r := range right.recs {
		if r.QI[st.axis] < st.value {
			misrouted++
		}
	}
	return misrouted, len(right.recs)
}

// The Break hooks below each break one thing in a tree of at least two
// levels and touch nothing else, for the audit's break table.

// childNodes returns n's children in trie order (none for a leaf).
func (n *node) childNodes() []*node {
	var out []*node
	if !n.isLeaf() {
		n.trie.each(func(c *node) { out = append(out, c) })
	}
	return out
}

// firstLeaf is the first leaf in trie order.
func (t *Tree) firstLeaf() *node {
	n := t.root
	for !n.isLeaf() {
		n = n.childNodes()[0]
	}
	return n
}

// trieLeaves returns the trie leaves under st in trie order.
func trieLeaves(st *splitTrie) []*splitTrie {
	if st.isLeaf() {
		return []*splitTrie{st}
	}
	return append(trieLeaves(st.left), trieLeaves(st.right)...)
}

// collapse shrinks b to its lower bound on the first axis it spans.
func collapse(b attr.Box) {
	for d := range b {
		if b[d].Lo < b[d].Hi {
			b[d].Hi = b[d].Lo
			return
		}
	}
}

// BreakLeafCount counts one record too many in the first leaf and, so
// that every sum above still adds up, on its whole root path.
func (t *Tree) BreakLeafCount() {
	for n := t.firstLeaf(); n != nil; n = n.parent {
		n.count++
	}
}

// BreakLeafMBR shrinks the first leaf's MBR off its records on one axis.
func (t *Tree) BreakLeafMBR() { collapse(t.firstLeaf().mbr) }

// BreakRootMBR shrinks the root's MBR off its children's union on one axis.
func (t *Tree) BreakRootMBR() { collapse(t.root.mbr) }

// BreakPlane moves the first hyperplane whose region is bounded above on
// its axis past that bound: its left half's derived region then reaches
// into a region routed elsewhere. It reports whether it found one.
func (t *Tree) BreakPlane() bool {
	found := errors.New("found")
	var find func(n *node, region attr.Box) error
	find = func(n *node, region attr.Box) error {
		if n.isLeaf() {
			return nil
		}
		return n.trie.walkRegions(region, func(st *splitTrie, r attr.Box) error {
			if st.isLeaf() {
				return find(st.child, r)
			}
			if hi := r[st.axis].Hi; !math.IsInf(hi, 1) {
				st.value = hi + 1
				return found
			}
			return nil
		})
	}
	return find(t.root, infiniteRegion(t.cfg.Schema.Dims())) == found
}

// BreakTrieTwice points the root trie's second leaf at its first child,
// so the trie references that child twice.
func (t *Tree) BreakTrieTwice() {
	leaves := trieLeaves(t.root.trie)
	leaves[1].child = leaves[0].child
}

// BreakParent points the first leaf's parent pointer at the leaf itself.
func (t *Tree) BreakParent() {
	l := t.firstLeaf()
	l.parent = l
}

// BreakDepth sinks the first leaf one level: a new internal node with that
// leaf as its only child takes its place, so nothing but its depth changes.
func (t *Tree) BreakDepth() {
	l := t.firstLeaf()
	p := l.parent
	n := &node{parent: p, mbr: l.mbr.Clone(), count: l.count, trie: &splitTrie{child: l}}
	findTrieLeaf(p.trie, l).child, l.parent = n, n
}

// BlobStore is the package tests' one-byte-string object store, for the
// external tests: Blob wraps given object bytes, a zero one starts empty.
type BlobStore = blobStore

func Blob(objects []byte) *BlobStore                        { return &blobStore{blob: objects} }
func (b *blobStore) Put(enc []byte, leaf bool) (Ref, error) { return b.put(enc, leaf) }
func (b *blobStore) Get(ref Ref) ([]byte, error)            { return b.get(ref) }
func (b *blobStore) Bytes() []byte                          { return b.blob }
