// Package quadtree implements a point-region (PR) quadtree anonymizer —
// the alternative index family the paper's Section 6 points at via Kim
// and Patel's "making the case for the often ignored quadtree" [16]:
// "The choice of one type of index over another for indexing a data set
// may likely be reason enough for using the same index for
// k-anonymizing the data set."
//
// Unlike the R⁺-tree, a quadtree splits space at fixed midpoints
// (space-driven, not data-driven) into 2^d equal quadrants over a
// chosen subset of split axes. Quadrant occupancy is therefore
// unbounded below; k-anonymity is enforced at publication by leaf-scan
// grouping (quadrant order gives the scan its spatial locality), and
// precision comes from the same tight per-leaf MBRs the R⁺-tree keeps.
// The repository's ablation benchmarks compare the two index choices
// head to head.
package quadtree

import (
	"fmt"
	"sort"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

// maxSplitAxes caps the fan-out at 2^4 = 16 children per split.
const maxSplitAxes = 4

// maxDepth bounds subdivision so duplicate-heavy data cannot recurse
// forever; a leaf at maxDepth simply grows.
const maxDepth = 48

// Config parameterizes a Tree.
type Config struct {
	// Schema of the quasi-identifier attributes. Required.
	Schema *attr.Schema
	// BaseK is the minimum occupancy published partitions must reach
	// (enforced by the caller's leaf scan; the tree itself records it
	// for sizing). Required, >= 2: one-record partitions are an
	// identity release, not anonymity.
	BaseK int
	// LeafFactor c: leaves split once they exceed c*BaseK records.
	// Defaults to 2.
	LeafFactor int
	// SplitAxes selects the attributes whose midpoints drive
	// subdivision (at most 4; each split makes 2^len(SplitAxes)
	// children). Empty selects the widest axes of the bootstrap
	// sample's domain, up to 3.
	SplitAxes []int
}

type node struct {
	// cell is the quadrant bounds over the split axes only, indexed by
	// position in cfg.axes. Leaves and internals both carry it.
	cell []attr.Interval
	// mbr is the tight bound over all attributes of the records
	// beneath.
	mbr   attr.Box
	count int
	depth int

	recs     []attr.Record // leaf payload
	children []*node       // 2^d children, nil for leaves (may hold nils until populated)
}

func (n *node) isLeaf() bool { return n.children == nil }

// Tree is the quadtree index.
type Tree struct {
	cfg  Config
	axes []int
	root *node
}

// New builds an empty quadtree. Because a PR-quadtree needs cell bounds
// before the first subdivision, bootstrap records must be supplied —
// they establish the root cell (and the default split axes) and are
// inserted. More records can be added incrementally afterwards; points
// outside the root cell grow it by doubling.
func New(cfg Config, bootstrap []attr.Record) (*Tree, error) {
	if err := cfg.Schema.Validate(); err != nil {
		return nil, err
	}
	if cfg.BaseK < 2 {
		return nil, fmt.Errorf("quadtree: BaseK %d provides no anonymity; need >= 2", cfg.BaseK)
	}
	if cfg.LeafFactor == 0 {
		cfg.LeafFactor = 2
	}
	if cfg.LeafFactor < 2 {
		return nil, fmt.Errorf("quadtree: LeafFactor %d < 2", cfg.LeafFactor)
	}
	if len(bootstrap) == 0 {
		return nil, fmt.Errorf("quadtree: need bootstrap records to establish the root cell")
	}
	dims := cfg.Schema.Dims()
	for i, r := range bootstrap {
		if len(r.QI) != dims {
			return nil, fmt.Errorf("quadtree: bootstrap record %d has %d attributes, schema has %d", i, len(r.QI), dims)
		}
	}
	domain := attr.DomainOf(dims, bootstrap)

	axes := cfg.SplitAxes
	if len(axes) == 0 {
		axes = defaultAxes(domain)
	}
	if len(axes) > maxSplitAxes {
		return nil, fmt.Errorf("quadtree: %d split axes; maximum %d (fan-out 2^d)", len(axes), maxSplitAxes)
	}
	seen := map[int]bool{}
	for _, a := range axes {
		if a < 0 || a >= dims {
			return nil, fmt.Errorf("quadtree: split axis %d outside schema", a)
		}
		if seen[a] {
			return nil, fmt.Errorf("quadtree: duplicate split axis %d", a)
		}
		seen[a] = true
	}

	cell := make([]attr.Interval, len(axes))
	for i, a := range axes {
		iv := domain[a]
		if iv.Width() == 0 { // degenerate: give the cell some width
			iv = attr.Interval{Lo: iv.Lo, Hi: iv.Lo + 1}
		}
		cell[i] = iv
	}
	t := &Tree{
		cfg:  cfg,
		axes: axes,
		root: &node{cell: cell, mbr: attr.NewBox(dims)},
	}
	for _, r := range bootstrap {
		if err := t.Insert(r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// defaultAxes picks up to three widest domain axes.
func defaultAxes(domain attr.Box) []int {
	type aw struct {
		axis  int
		width float64
	}
	order := make([]aw, len(domain))
	for a := range domain {
		order[a] = aw{a, domain[a].Width()}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].width > order[j].width })
	n := 3
	if len(order) < n {
		n = len(order)
	}
	axes := make([]int, 0, n)
	for _, o := range order[:n] {
		if o.width > 0 {
			axes = append(axes, o.axis)
		}
	}
	if len(axes) == 0 {
		axes = []int{0}
	}
	return axes
}

// Len returns the number of records in the tree.
func (t *Tree) Len() int { return t.root.count }

// SplitAxes returns the axes driving subdivision.
func (t *Tree) SplitAxes() []int { return append([]int(nil), t.axes...) }

// Height returns the deepest leaf's depth + 1.
func (t *Tree) Height() int {
	h := 0
	var walk func(n *node)
	walk = func(n *node) {
		if n.depth+1 > h {
			h = n.depth + 1
		}
		for _, c := range n.children {
			if c != nil {
				walk(c)
			}
		}
	}
	walk(t.root)
	return h
}

// Insert adds one record, growing the root cell if the point lies
// outside it and subdividing overflowing leaves.
func (t *Tree) Insert(rec attr.Record) error {
	if len(rec.QI) != t.cfg.Schema.Dims() {
		return fmt.Errorf("quadtree: record has %d attributes, tree has %d", len(rec.QI), t.cfg.Schema.Dims())
	}
	for !t.rootContains(rec.QI) {
		t.growRoot(rec.QI)
	}
	t.insert(t.root, rec)
	return nil
}

// rootContains reports whether the point lies in the root cell
// (half-open on the high side, like the R⁺-tree's routing).
func (t *Tree) rootContains(p []float64) bool {
	for i, a := range t.axes {
		v := p[a]
		if v < t.root.cell[i].Lo || v >= t.root.cell[i].Hi {
			return false
		}
	}
	return true
}

// growRoot doubles the root cell toward the point: a new root is
// created whose cell is twice as large, with the old root as the
// appropriate quadrant child.
func (t *Tree) growRoot(p []float64) {
	old := t.root
	cell := make([]attr.Interval, len(old.cell))
	idx := 0 // which quadrant the old root becomes
	for i, a := range t.axes {
		iv := old.cell[i]
		w := iv.Hi - iv.Lo
		if p[a] < iv.Lo {
			// Extend downward; the old root is the high half.
			cell[i] = attr.Interval{Lo: iv.Lo - w, Hi: iv.Hi}
			idx |= 1 << i
		} else {
			// Extend upward; the old root is the low half.
			cell[i] = attr.Interval{Lo: iv.Lo, Hi: iv.Hi + w}
		}
	}
	newRoot := &node{
		cell:     cell,
		mbr:      old.mbr.Clone(),
		count:    old.count,
		children: make([]*node, 1<<len(t.axes)),
	}
	bumpDepth(old)
	newRoot.children[idx] = old
	t.root = newRoot
}

func bumpDepth(n *node) {
	n.depth++
	for _, c := range n.children {
		if c != nil {
			bumpDepth(c)
		}
	}
}

// insert descends to the leaf quadrant and places the record.
func (t *Tree) insert(n *node, rec attr.Record) {
	for {
		n.count++
		n.mbr.Include(rec.QI)
		if n.isLeaf() {
			n.recs = append(n.recs, rec)
			t.maybeSplit(n)
			return
		}
		n = t.childFor(n, rec.QI)
	}
}

// childFor returns (creating on demand) the quadrant child holding p.
func (t *Tree) childFor(n *node, p []float64) *node {
	idx := 0
	for i := range t.axes {
		if p[t.axes[i]] >= mid(n.cell[i]) {
			idx |= 1 << i
		}
	}
	c := n.children[idx]
	if c == nil {
		cell := make([]attr.Interval, len(n.cell))
		for i := range n.cell {
			m := mid(n.cell[i])
			if idx&(1<<i) != 0 {
				cell[i] = attr.Interval{Lo: m, Hi: n.cell[i].Hi}
			} else {
				cell[i] = attr.Interval{Lo: n.cell[i].Lo, Hi: m}
			}
		}
		c = &node{cell: cell, mbr: attr.NewBox(t.cfg.Schema.Dims()), depth: n.depth + 1}
		n.children[idx] = c
	}
	return c
}

func mid(iv attr.Interval) float64 { return (iv.Lo + iv.Hi) / 2 }

// maybeSplit subdivides an overflowing leaf into its quadrants.
func (t *Tree) maybeSplit(leaf *node) {
	if len(leaf.recs) <= t.cfg.LeafFactor*t.cfg.BaseK || leaf.depth >= maxDepth {
		return
	}
	recs := leaf.recs
	leaf.recs = nil
	leaf.children = make([]*node, 1<<len(t.axes))
	for _, r := range recs {
		c := t.childFor(leaf, r.QI)
		c.count++
		c.mbr.Include(r.QI)
		c.recs = append(c.recs, r)
	}
	for _, c := range leaf.children {
		if c != nil {
			t.maybeSplit(c)
		}
	}
}

// Leaves returns every non-empty leaf — its tight MBR and its records,
// both aliasing tree storage — in quadrant (Z-curve) order, which gives
// the leaf scan its spatial locality.
func (t *Tree) Leaves() []anonmodel.Partition {
	var out []anonmodel.Partition
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			if len(n.recs) > 0 {
				out = append(out, anonmodel.Partition{Box: n.mbr, Records: n.recs})
			}
			return
		}
		for _, c := range n.children {
			if c != nil {
				walk(c)
			}
		}
	}
	walk(t.root)
	return out
}

// CheckInvariants verifies structural consistency: counts aggregate,
// MBRs are tight and inside parent MBRs, child cells are the exact
// quadrants of their parent cell, and every record lies in its leaf's
// cell (over the split axes) and MBR.
func (t *Tree) CheckInvariants() error {
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.isLeaf() {
			if n.count != len(n.recs) {
				return fmt.Errorf("quadtree: leaf count %d != %d records", n.count, len(n.recs))
			}
			want := attr.NewBox(t.cfg.Schema.Dims())
			for _, r := range n.recs {
				for i, a := range t.axes {
					v := r.QI[a]
					if v < n.cell[i].Lo || v >= n.cell[i].Hi {
						return fmt.Errorf("quadtree: record %d outside leaf cell", r.ID)
					}
				}
				want.Include(r.QI)
			}
			if !want.Equal(n.mbr) && !(want.IsEmpty() && n.mbr.IsEmpty()) {
				return fmt.Errorf("quadtree: leaf MBR %v not tight (want %v)", n.mbr, want)
			}
			return nil
		}
		count := 0
		mbr := attr.NewBox(t.cfg.Schema.Dims())
		for idx, c := range n.children {
			if c == nil {
				continue
			}
			for i := range t.axes {
				m := mid(n.cell[i])
				want := attr.Interval{Lo: n.cell[i].Lo, Hi: m}
				if idx&(1<<i) != 0 {
					want = attr.Interval{Lo: m, Hi: n.cell[i].Hi}
				}
				if c.cell[i] != want {
					return fmt.Errorf("quadtree: child %d cell %v not quadrant %v", idx, c.cell[i], want)
				}
			}
			if c.depth != n.depth+1 {
				return fmt.Errorf("quadtree: child depth %d under parent depth %d", c.depth, n.depth)
			}
			count += c.count
			mbr.IncludeBox(c.mbr)
			if err := walk(c); err != nil {
				return err
			}
		}
		if count != n.count {
			return fmt.Errorf("quadtree: node count %d != children sum %d", n.count, count)
		}
		if !mbr.Equal(n.mbr) && !(mbr.IsEmpty() && n.mbr.IsEmpty()) {
			return fmt.Errorf("quadtree: node MBR %v not union of children (want %v)", n.mbr, mbr)
		}
		return nil
	}
	return walk(t.root)
}
