package core

import (
	"cmp"
	"fmt"
	"strings"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/bptree"
	"spatialanon/internal/compact"
	"spatialanon/internal/gridfile"
	"spatialanon/internal/mondrian"
	"spatialanon/internal/quadtree"
	"spatialanon/internal/sfc"
)

// The registry names a program singles out.
const (
	// RTree is the paper's algorithm, the entry whose Anonymizer is a
	// *RTreeAnonymizer — the index itself.
	RTree = "rtree"
	// Mondrian is the top-down baseline of every comparison.
	Mondrian = "mondrian"
	// BPTree is the one entry that reads Params.Key.
	BPTree = "bptree"
)

// Params is what every registered algorithm is built from.
type Params struct {
	Schema     *attr.Schema
	Constraint anonmodel.Constraint
	// Compact regenerates each published box as the minimum bounding
	// box of its records — the Section 4 retrofit — for the algorithms
	// that publish regions or cells (Algorithm.Compacts); the others
	// publish minimum bounding boxes already.
	Compact bool
	// Key is the attribute the B⁺-tree clusters on.
	Key int
}

// Algorithm is one entry of the registry: a one-shot anonymization
// algorithm under its command-line name.
type Algorithm struct {
	// Name is the -algo value. Report is what the built Anonymizer's
	// Name starts with ("" = the same): the B⁺-tree adds its key,
	// "bptree[0]", and a compacted run "+compact".
	Name, Report string
	// Compacts says Params.Compact applies.
	Compacts bool
	// Partition is the package call the entry stands for. The
	// R⁺-tree's is nil: its Anonymizer is the index, which also loads
	// incrementally and publishes many granularities.
	Partition PartitionFunc
}

// PartitionFunc runs one algorithm over recs, which it may reorder.
type PartitionFunc func(Params, []attr.Record) ([]anonmodel.Partition, error)

// Algorithms is the registry, in the order help texts and tables list
// it. Section 1 argues any index is an anonymizer; Sections 4 and 6
// name the families below.
var Algorithms = []Algorithm{
	{Name: RTree},
	{Name: Mondrian, Compacts: true, Partition: topDown(false)},
	{Name: "mondrian-relaxed", Compacts: true, Partition: topDown(true)},
	{Name: "hilbert", Report: "sfc-hilbert", Partition: alongCurve(sfc.Hilbert)},
	{Name: "zorder", Report: "sfc-z-order", Partition: alongCurve(sfc.ZOrder)},
	{Name: "grid", Report: "gridfile", Compacts: true, Partition: func(p Params, recs []attr.Record) ([]anonmodel.Partition, error) {
		return gridfile.Anonymize(p.Schema, recs, gridfile.Options{Constraint: p.Constraint})
	}},
	// A PR-quadtree (Section 6, after [16]) subdividing at cell
	// midpoints, its leaves taken in quadrant order.
	{Name: "quad", Report: "quadtree", Partition: scanLeaves(func(p Params, recs []attr.Record) ([]anonmodel.Partition, error) {
		qt, err := quadtree.New(quadtree.Config{Schema: p.Schema, BaseK: p.Constraint.MinSize()}, recs)
		if err != nil {
			return nil, err
		}
		return qt.Leaves(), nil
	})},
	// A one-dimensional B⁺-tree — the paper's opening observation
	// (Section 1, Figure 1(c)) made executable: records cluster on one
	// key attribute, each leaf publishes its bounding box over all of
	// them. The far end of the workload-bias spectrum: ideal when every
	// query ranges over the key, poor for everything else.
	{Name: BPTree, Partition: scanLeaves(func(p Params, recs []attr.Record) ([]anonmodel.Partition, error) {
		tr, err := bptree.New(bptree.Config{Schema: p.Schema, Key: p.Key, BaseK: p.Constraint.MinSize()})
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if err := tr.Insert(r); err != nil {
				return nil, err
			}
		}
		return tr.Leaves(), nil
	})},
}

func topDown(relaxed bool) PartitionFunc {
	return func(p Params, recs []attr.Record) ([]anonmodel.Partition, error) {
		return mondrian.Anonymize(p.Schema, recs, mondrian.Options{Constraint: p.Constraint, Relaxed: relaxed})
	}
}

func alongCurve(c sfc.Curve) PartitionFunc {
	return func(p Params, recs []attr.Record) ([]anonmodel.Partition, error) {
		return sfc.Anonymize(recs, c, p.Constraint)
	}
}

// scanLeaves anonymizes with a throwaway index: build it at the
// constraint's minimum size, then leaf-scan its leaves, in the index's
// own order, up to the constraint.
func scanLeaves(leaves PartitionFunc) PartitionFunc {
	return func(p Params, recs []attr.Record) ([]anonmodel.Partition, error) {
		if p.Constraint == nil {
			return nil, fmt.Errorf("core: nil constraint")
		}
		if len(recs) == 0 {
			return nil, nil
		}
		base, err := leaves(p, recs)
		if err != nil {
			return nil, err
		}
		return LeafScanP(base, p.Constraint, 1)
	}
}

// AlgorithmNames lists the registry's names in order.
func AlgorithmNames() []string {
	names := make([]string, len(Algorithms))
	for i, a := range Algorithms {
		names[i] = a.Name
	}
	return names
}

// Lookup finds the registry entry called name.
func Lookup(name string) (Algorithm, error) {
	for _, a := range Algorithms {
		if a.Name == name {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("unknown algorithm %q (want one of %s)", name, strings.Join(AlgorithmNames(), ", "))
}

// New builds the registered algorithm called name from p.
func New(name string, p Params) (Anonymizer, error) {
	a, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return a.New(p)
}

// New builds the algorithm from p.
func (a Algorithm) New(p Params) (Anonymizer, error) {
	if a.Partition == nil {
		rt, err := NewRTreeAnonymizer(RTreeConfig{Schema: p.Schema, Constraint: p.Constraint})
		if err != nil {
			return nil, err
		}
		return rt, nil
	}
	name := cmp.Or(a.Report, a.Name)
	if a.Name == BPTree {
		name = fmt.Sprintf("%s[%d]", name, p.Key)
	}
	if p.Compact = p.Compact && a.Compacts; p.Compact {
		name += "+compact"
	}
	return partitioner{name, a, p}, nil
}

// partitioner is the Anonymizer of every entry but the R⁺-tree's: the
// entry bound to its parameters, under its report name.
type partitioner struct {
	name string
	alg  Algorithm
	p    Params
}

// Anonymize implements Anonymizer.
func (a partitioner) Anonymize(recs []attr.Record) ([]anonmodel.Partition, error) {
	ps, err := a.alg.Partition(a.p, recs)
	if err != nil || !a.p.Compact {
		return ps, err
	}
	return compact.Partitions(ps), nil
}

// Name implements Anonymizer.
func (a partitioner) Name() string { return a.name }
