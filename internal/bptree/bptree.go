// Package bptree implements the paper's introductory observation
// (Section 1, Figure 1(c)): a classical B⁺-tree index on one
// quasi-identifier attribute already *is* a k-anonymizer. Every leaf
// holds between N_min and N_max records, every root-to-leaf path
// constrains the key to a range, so replacing each record's key by its
// leaf's key range — and, with the Section 4 compaction step, every
// other attribute by the leaf group's extent — produces a table where
// k = N_min.
//
// The tree here is a textbook memory-resident B⁺-tree over float64
// keys: sorted leaf records, separator-keyed internal nodes, ordered
// leaf iteration, range search, and tuple insertion with splits. It
// exists (a) to make the paper's one-dimensional story executable and
// testable, and (b) as the extreme point of the workload-bias spectrum:
// an index clustered entirely on one attribute (the repository's
// ablations compare it against the multidimensional R⁺-tree).
package bptree

import (
	"fmt"
	"sort"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

// Config parameterizes a Tree.
type Config struct {
	// Schema of the records. Required.
	Schema *attr.Schema
	// Key is the attribute index the tree is built on.
	Key int
	// BaseK is N_min, the minimum leaf occupancy (the anonymity
	// parameter the leaves deliver). Required, >= 2: a leaf of one
	// record is an identity release, not anonymity.
	BaseK int
	// LeafFactor c sets N_max = c*BaseK. Must be >= 2 (a median split
	// of an overflowing leaf then leaves both halves >= BaseK).
	// Defaults to 2.
	LeafFactor int
	// Fanout is the maximum number of children of an internal node.
	// Defaults to 16; minimum 3.
	Fanout int
}

type node struct {
	parent *node

	// Leaf fields: records sorted by key; prev/next leaf links.
	recs []attr.Record
	next *node

	// Internal fields: children and len(children)-1 separator keys;
	// child i holds keys < seps[i], child i+1 holds keys >= seps[i].
	children []*node
	seps     []float64
}

func (n *node) isLeaf() bool { return n.children == nil }

// Tree is the anonymizing B⁺-tree.
type Tree struct {
	cfg   Config
	root  *node
	first *node // leftmost leaf
	size  int
}

// New creates an empty tree.
func New(cfg Config) (*Tree, error) {
	if err := cfg.Schema.Validate(); err != nil {
		return nil, err
	}
	if cfg.Key < 0 || cfg.Key >= cfg.Schema.Dims() {
		return nil, fmt.Errorf("bptree: key attribute %d outside schema", cfg.Key)
	}
	if cfg.BaseK < 2 {
		return nil, fmt.Errorf("bptree: BaseK %d provides no anonymity; need >= 2", cfg.BaseK)
	}
	if cfg.LeafFactor == 0 {
		cfg.LeafFactor = 2
	}
	if cfg.LeafFactor < 2 {
		return nil, fmt.Errorf("bptree: LeafFactor %d < 2", cfg.LeafFactor)
	}
	if cfg.Fanout == 0 {
		cfg.Fanout = 16
	}
	if cfg.Fanout < 3 {
		return nil, fmt.Errorf("bptree: fanout %d < 3", cfg.Fanout)
	}
	leaf := &node{}
	return &Tree{cfg: cfg, root: leaf, first: leaf}, nil
}

func (t *Tree) leafCap() int { return t.cfg.LeafFactor * t.cfg.BaseK }

// Len returns the number of records.
func (t *Tree) Len() int { return t.size }

// Key returns the attribute the tree is built on.
func (t *Tree) Key() int { return t.cfg.Key }

// Insert adds one record.
func (t *Tree) Insert(rec attr.Record) error {
	if len(rec.QI) != t.cfg.Schema.Dims() {
		return fmt.Errorf("bptree: record has %d attributes, tree has %d", len(rec.QI), t.cfg.Schema.Dims())
	}
	key := rec.QI[t.cfg.Key]
	leaf := t.findLeaf(key)
	// Insert in key order.
	pos := sort.Search(len(leaf.recs), func(i int) bool { return leaf.recs[i].QI[t.cfg.Key] > key })
	leaf.recs = append(leaf.recs, attr.Record{})
	copy(leaf.recs[pos+1:], leaf.recs[pos:])
	leaf.recs[pos] = rec
	t.size++
	if len(leaf.recs) > t.leafCap() {
		t.splitLeaf(leaf)
	}
	return nil
}

// findLeaf descends to the leaf responsible for key.
func (t *Tree) findLeaf(key float64) *node {
	n := t.root
	for !n.isLeaf() {
		i := sort.SearchFloat64s(n.seps, key)
		// seps[i-1] <= key < seps[i] routes to child i; equality with
		// a separator routes right.
		for i < len(n.seps) && key >= n.seps[i] {
			i++
		}
		n = n.children[i]
	}
	return n
}

// splitLeaf divides an overflowing leaf at its median key, keeping
// equal keys together when possible (median adjusted like the paper's
// multidimensional splits).
func (t *Tree) splitLeaf(leaf *node) {
	recs := leaf.recs
	mid := len(recs) / 2
	key := t.cfg.Key
	v := recs[mid].QI[key]
	if v == recs[0].QI[key] {
		for mid < len(recs) && recs[mid].QI[key] == recs[0].QI[key] {
			mid++
		}
		if mid == len(recs) {
			return // all keys equal: the leaf grows
		}
		v = recs[mid].QI[key]
	} else {
		for mid > 0 && recs[mid-1].QI[key] == v {
			mid--
		}
	}
	right := &node{recs: append([]attr.Record(nil), recs[mid:]...), next: leaf.next}
	leaf.recs = recs[:mid:mid]
	leaf.next = right
	t.insertIntoParent(leaf, v, right)
}

// insertIntoParent links a new right sibling under old's parent with
// separator sep, splitting internal nodes (and growing the root) as
// needed.
func (t *Tree) insertIntoParent(old *node, sep float64, right *node) {
	parent := old.parent
	if parent == nil {
		newRoot := &node{children: []*node{old, right}, seps: []float64{sep}}
		old.parent = newRoot
		right.parent = newRoot
		t.root = newRoot
		return
	}
	// Position of old among parent's children.
	pos := 0
	for pos < len(parent.children) && parent.children[pos] != old {
		pos++
	}
	parent.children = append(parent.children, nil)
	copy(parent.children[pos+2:], parent.children[pos+1:])
	parent.children[pos+1] = right
	parent.seps = append(parent.seps, 0)
	copy(parent.seps[pos+1:], parent.seps[pos:])
	parent.seps[pos] = sep
	right.parent = parent

	if len(parent.children) > t.cfg.Fanout {
		t.splitInternal(parent)
	}
}

// splitInternal divides an overflowing internal node; the middle
// separator moves up.
func (t *Tree) splitInternal(n *node) {
	mid := len(n.seps) / 2
	sep := n.seps[mid]
	right := &node{
		children: append([]*node(nil), n.children[mid+1:]...),
		seps:     append([]float64(nil), n.seps[mid+1:]...),
	}
	for _, c := range right.children {
		c.parent = right
	}
	n.children = n.children[: mid+1 : mid+1]
	n.seps = n.seps[:mid:mid]
	t.insertIntoParent(n, sep, right)
}

// Leaves returns every non-empty leaf in key order: its records
// (aliasing tree storage) under the MBR of the group over all
// attributes — the implicit compaction of Section 4.
func (t *Tree) Leaves() []anonmodel.Partition {
	var out []anonmodel.Partition
	for leaf := t.first; leaf != nil; leaf = leaf.next {
		if len(leaf.recs) > 0 {
			box := attr.DomainOf(t.cfg.Schema.Dims(), leaf.recs)
			out = append(out, anonmodel.Partition{Box: box, Records: leaf.recs})
		}
	}
	return out
}

// Range returns the records whose key lies in [lo, hi].
func (t *Tree) Range(lo, hi float64) []attr.Record {
	var out []attr.Record
	for leaf := t.findLeaf(lo); leaf != nil; leaf = leaf.next {
		for _, r := range leaf.recs {
			k := r.QI[t.cfg.Key]
			if k > hi {
				return out
			}
			if k >= lo {
				out = append(out, r)
			}
		}
	}
	return out
}

// CheckInvariants verifies B⁺-tree structure: sorted keys within and
// across leaves, separator consistency, uniform leaf depth, parent
// links, and the leaf chain covering every record exactly once.
func (t *Tree) CheckInvariants() error {
	key := t.cfg.Key
	leafDepth := -1
	var walk func(n *node, depth int, lo, hi float64, hasLo, hasHi bool) error
	walk = func(n *node, depth int, lo, hi float64, hasLo, hasHi bool) error {
		if n.isLeaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("bptree: leaf at depth %d, expected %d", depth, leafDepth)
			}
			for i, r := range n.recs {
				k := r.QI[key]
				if i > 0 && k < n.recs[i-1].QI[key] {
					return fmt.Errorf("bptree: leaf records out of order")
				}
				if hasLo && k < lo {
					return fmt.Errorf("bptree: key %v below bound %v", k, lo)
				}
				if hasHi && k >= hi {
					return fmt.Errorf("bptree: key %v at/above bound %v", k, hi)
				}
			}
			return nil
		}
		if len(n.children) != len(n.seps)+1 {
			return fmt.Errorf("bptree: %d children with %d separators", len(n.children), len(n.seps))
		}
		for i := 1; i < len(n.seps); i++ {
			if n.seps[i-1] >= n.seps[i] {
				return fmt.Errorf("bptree: separators out of order")
			}
		}
		for i, c := range n.children {
			if c.parent != n {
				return fmt.Errorf("bptree: child %d has wrong parent", i)
			}
			clo, chasLo := lo, hasLo
			chi, chasHi := hi, hasHi
			if i > 0 {
				clo, chasLo = n.seps[i-1], true
			}
			if i < len(n.seps) {
				chi, chasHi = n.seps[i], true
			}
			if err := walk(c, depth+1, clo, chi, chasLo, chasHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, 0, 0, false, false); err != nil {
		return err
	}
	// Leaf chain: key-ordered, covers size records.
	total := 0
	prev := 0.0
	havePrev := false
	for leaf := t.first; leaf != nil; leaf = leaf.next {
		for _, r := range leaf.recs {
			k := r.QI[key]
			if havePrev && k < prev {
				return fmt.Errorf("bptree: leaf chain out of order")
			}
			prev, havePrev = k, true
			total++
		}
	}
	if total != t.size {
		return fmt.Errorf("bptree: chain holds %d records, size %d", total, t.size)
	}
	return nil
}
