package attr

import (
	"fmt"
)

// HNode is one node of a generalization hierarchy tree. Leaves are the
// base categorical values; internal nodes are generalized values (e.g.
// "WI" generalizing zipcodes, "USA" generalizing states).
type HNode struct {
	Label    string
	Children []*HNode

	parent *HNode
	// lo and hi are the inclusive range of leaf codes covered by the
	// subtree rooted at this node. Leaf codes are assigned left-to-right
	// during BuildHierarchy, which is the "intuitive ordering" the paper
	// imposes on categorical values.
	lo, hi int
}

// Leaf constructs a leaf hierarchy node.
func Leaf(label string) *HNode { return &HNode{Label: label} }

// Node constructs an internal hierarchy node over the given children.
func Node(label string, children ...*HNode) *HNode {
	return &HNode{Label: label, Children: children}
}

// IsLeaf reports whether the node has no children.
func (n *HNode) IsLeaf() bool { return len(n.Children) == 0 }

// LeafCount returns the number of leaves under this node — the quantity
// |t.A_i| in the categorical case of the certainty penalty
// (Definition 4).
func (n *HNode) LeafCount() int { return n.hi - n.lo + 1 }

// Parent returns the node's parent, or nil at the root.
func (n *HNode) Parent() *HNode { return n.parent }

// Hierarchy is a generalization hierarchy over a categorical attribute's
// value domain. Leaves are coded 0..LeafCount()-1 in left-to-right order,
// so a coded interval [lo,hi] corresponds to a contiguous run of leaves
// and the compaction procedure's "lowest common ancestor" (Section 4) is
// the lowest node whose leaf range covers [lo,hi].
type Hierarchy struct {
	leaves []*HNode
}

// BuildHierarchy finalizes a hierarchy from its root node: it assigns leaf
// codes left-to-right and parent pointers. It returns an error if the
// tree is empty or a leaf label repeats.
func BuildHierarchy(root *HNode) (*Hierarchy, error) {
	if root == nil {
		return nil, fmt.Errorf("attr: nil hierarchy root")
	}
	h := &Hierarchy{}
	seen := make(map[string]bool)
	var walk func(n *HNode, parent *HNode) error
	walk = func(n *HNode, parent *HNode) error {
		n.parent = parent
		if n.IsLeaf() {
			if seen[n.Label] {
				return fmt.Errorf("attr: duplicate hierarchy leaf %q", n.Label)
			}
			seen[n.Label] = true
			code := len(h.leaves)
			n.lo, n.hi = code, code
			h.leaves = append(h.leaves, n)
			return nil
		}
		n.lo = len(h.leaves)
		for _, c := range n.Children {
			if err := walk(c, n); err != nil {
				return err
			}
		}
		n.hi = len(h.leaves) - 1
		return nil
	}
	if err := walk(root, nil); err != nil {
		return nil, err
	}
	return h, nil
}

// FlatHierarchy builds the trivial two-level hierarchy rootLabel -> values
// — the shape used when a categorical attribute has no semantic taxonomy.
// It errors on duplicate values (runtime input such as a schema file can
// carry them); static call sites can use MustFlatHierarchy.
func FlatHierarchy(rootLabel string, values ...string) (*Hierarchy, error) {
	children := make([]*HNode, len(values))
	for i, v := range values {
		children[i] = Leaf(v)
	}
	return BuildHierarchy(Node(rootLabel, children...))
}

// MustFlatHierarchy is FlatHierarchy, panicking on error. The panic is
// kept deliberately (the Must* idiom): it is for statically-known value
// lists in package variables, examples and tests; anything built from
// runtime input must call FlatHierarchy and handle the error.
func MustFlatHierarchy(rootLabel string, values ...string) *Hierarchy {
	h, err := FlatHierarchy(rootLabel, values...)
	if err != nil {
		// invariant: Must* is for statically-known value lists only; a
		// failure here is a programmer error, never runtime input.
		panic(err)
	}
	return h
}

// LeafCount returns the size of the base domain (|T.A_i| for categorical
// attributes in the certainty penalty).
func (h *Hierarchy) LeafCount() int { return len(h.leaves) }

// LCA returns the lowest node in the hierarchy whose leaf range covers
// the inclusive code range [lo, hi]. This is the generalized value the
// compaction procedure chooses for a partition's categorical values
// (Section 4: "the procedure chooses the lowest common ancestor in the
// hierarchy for all the values in P").
func (h *Hierarchy) LCA(lo, hi int) (*HNode, error) {
	if lo > hi {
		return nil, fmt.Errorf("attr: empty code range [%d,%d]", lo, hi)
	}
	if lo < 0 || hi >= len(h.leaves) {
		return nil, fmt.Errorf("attr: code range [%d,%d] outside [0,%d)", lo, hi, len(h.leaves))
	}
	n := h.leaves[lo]
	for n.lo > lo || n.hi < hi {
		n = n.parent
	}
	return n, nil
}

// GeneralizeInterval maps a coded interval to the most specific hierarchy
// description: the exact value when the interval covers a single leaf,
// otherwise the label of the LCA of the covered leaves. The returned span
// is the LCA's leaf count, i.e. the |t.A_i| term of the certainty
// penalty.
func (h *Hierarchy) GeneralizeInterval(iv Interval) (label string, span int, err error) {
	if iv.IsEmpty() {
		return "", 0, fmt.Errorf("attr: cannot generalize empty interval")
	}
	lo := int(iv.Lo)
	hi := int(iv.Hi)
	n, err := h.LCA(lo, hi)
	if err != nil {
		return "", 0, err
	}
	if lo == hi {
		return h.leaves[lo].Label, 1, nil
	}
	return n.Label, n.LeafCount(), nil
}
