// Package gridfile is a grid-file-style anonymizer in the spirit of
// Nievergelt et al. [23]: the domain is divided into a uniform
// multidimensional grid, records are bucketed by cell, and whole cells
// are coalesced along the Z-order walk until each group satisfies the
// anonymity constraint. Groups publish the bounding box of their
// *cells*, not of their records.
//
// Section 4 singles the grid file out as an index that "does not
// maintain MBRs for its records": its partitions cover empty space, so
// it is the canonical target for the compaction procedure. The
// experiment harness uses it as the uncompacted extreme of the
// compaction ablation.
package gridfile

import (
	"fmt"
	"math"
	"sort"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/sfc"
)

// Options configures the grid anonymizer.
type Options struct {
	// Constraint decides allowable groups. Required.
	Constraint anonmodel.Constraint
	// CellsPerDim is the grid resolution g (g^dims cells). Zero picks
	// g ≈ (n / (2·MinSize))^(1/dims), clamped to [2, 64], so the
	// expected cell occupancy is a small multiple of the group size.
	CellsPerDim int
}

// Anonymize buckets recs into grid cells and coalesces cells in Z-order
// into constraint-satisfying partitions.
func Anonymize(schema *attr.Schema, recs []attr.Record, opt Options) ([]anonmodel.Partition, error) {
	if err := anonmodel.Validate(opt.Constraint); err != nil {
		return nil, fmt.Errorf("gridfile: %w", err)
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, nil
	}
	if !opt.Constraint.Satisfied(recs) {
		return nil, fmt.Errorf("gridfile: input of %d records cannot satisfy %v", len(recs), opt.Constraint)
	}
	dims := schema.Dims()
	for i, r := range recs {
		if len(r.QI) != dims {
			return nil, fmt.Errorf("gridfile: record %d has %d attributes, schema has %d", i, len(r.QI), dims)
		}
	}
	g := opt.CellsPerDim
	if g == 0 {
		g = int(math.Ceil(math.Pow(float64(len(recs))/float64(2*opt.Constraint.MinSize()), 1/float64(dims))))
	}
	if g < 2 {
		g = 2
	}
	if g > 64 {
		g = 64
	}
	bits := 1
	for 1<<bits < g {
		bits++
	}
	if bits*dims > 64 {
		return nil, fmt.Errorf("gridfile: %d dims at %d cells/dim exceeds 64-bit cell keys", dims, g)
	}

	domain := attr.DomainOf(dims, recs)

	// cellBox returns the domain slab a cell covers.
	cellBox := func(cell []uint32) attr.Box {
		box := make(attr.Box, dims)
		for d := 0; d < dims; d++ {
			w := domain[d].Width()
			lo := domain[d].Lo + w*float64(cell[d])/float64(g)
			hi := domain[d].Lo + w*float64(cell[d]+1)/float64(g)
			box[d] = attr.Interval{Lo: lo, Hi: hi}
		}
		return box
	}

	// Bucket records by cell: one partition per occupied cell, under
	// the cell's slab, not the records' MBR.
	rows, boxes := make(map[uint64][]attr.Record), make(map[uint64]attr.Box)
	var keys []uint64
	cell := make([]uint32, dims)
	for _, r := range recs {
		for d := 0; d < dims; d++ {
			w := domain[d].Width()
			c := 0
			if w > 0 {
				c = int(float64(g) * (r.QI[d] - domain[d].Lo) / w)
				if c >= g {
					c = g - 1
				}
			}
			cell[d] = uint32(c)
		}
		key := sfc.ZOrderKey(cell, bits)
		if _, ok := boxes[key]; !ok {
			boxes[key] = cellBox(cell)
			keys = append(keys, key)
		}
		rows[key] = append(rows[key], r)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	cells := make([]anonmodel.Partition, len(keys))
	for i, key := range keys {
		cells[i] = anonmodel.Partition{Box: boxes[key], Records: rows[key]}
	}

	// Coalesce whole cells along the Z-order walk: the cells are the
	// leaves of this index and the walk is the leaf scan.
	return anonmodel.LeafScan(cells, opt.Constraint)
}
