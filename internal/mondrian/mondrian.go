// Package mondrian is a clean-room Go implementation of the Mondrian
// multidimensional k-anonymization algorithm of LeFevre, DeWitt and
// Ramakrishnan [19] — the top-down baseline the paper compares its
// index-based bottom-up approach against throughout Section 5.
//
// The algorithm greedily partitions the quasi-identifier space: at each
// step it picks the attribute with the widest normalized range of
// values in the current partition, cuts at the median, and recurses,
// stopping when no cut leaves both halves allowable (at least k records,
// or whatever Constraint is installed). The published generalization of
// a partition is its recursion region — the whole slab of domain it
// occupies — which is precisely what leaves Mondrian "uncompacted":
// Section 4's compaction procedure shrinks those slabs to MBRs.
package mondrian

import (
	"fmt"
	"sort"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/par"
)

// Options configures an anonymization run.
type Options struct {
	// Constraint decides which partitions are allowable. Required.
	Constraint anonmodel.Constraint
	// Relaxed selects the relaxed variant: the median cut may divide
	// records sharing the median value, guaranteeing balanced halves.
	// The strict variant (default) keeps equal values together, as in
	// the paper the authors of [19] provided to the authors.
	Relaxed bool
}

// parCutMin is the smallest half of a cut worth forking to another
// worker; smaller halves recurse inline.
const parCutMin = 1024

// Anonymize partitions recs under the given options. The input slice is
// reordered in place (callers needing original order should pass a
// copy). Partition boxes are recursion regions clipped to the data
// domain; adjacent partitions share cut boundaries, matching the
// paper's rendering of ranges like [20-30][30-40].
//
// The recursion runs on GOMAXPROCS workers. The two halves of a cut own
// disjoint record subslices and the output is assembled left-half-first
// at every cut, so the partition list is identical at every GOMAXPROCS.
func Anonymize(schema *attr.Schema, recs []attr.Record, opt Options) ([]anonmodel.Partition, error) {
	if err := anonmodel.Validate(opt.Constraint); err != nil {
		return nil, fmt.Errorf("mondrian: %w", err)
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	for i, r := range recs {
		if len(r.QI) != schema.Dims() {
			return nil, fmt.Errorf("mondrian: record %d has %d attributes, schema has %d", i, len(r.QI), schema.Dims())
		}
	}
	if len(recs) == 0 {
		return nil, nil
	}
	if !opt.Constraint.Satisfied(recs) {
		return nil, fmt.Errorf("mondrian: input of %d records cannot satisfy %v", len(recs), opt.Constraint)
	}
	m := &state{schema: schema, opt: opt, domain: attr.DomainOf(schema.Dims(), recs)}
	return m.recurse(recs, m.domain.Clone(), par.NewPool()), nil
}

type state struct {
	schema *attr.Schema
	opt    Options
	domain attr.Box
}

// recurse implements the Mondrian recursion on one partition and
// returns its published partitions in cut order (left half first).
// After a cut the two halves alias disjoint subslices of recs and the
// recursion reads only immutable state (schema, options, domain), so
// large halves fork to the pool; the left-first assembly keeps the
// output independent of the worker count.
func (m *state) recurse(recs []attr.Record, region attr.Box, pool *par.Pool) []anonmodel.Partition {
	// Fast reject: a partition that cannot be divided into two groups of
	// MinSize records each has no allowable cut.
	if len(recs) >= 2*m.opt.Constraint.MinSize() {
		for _, axis := range m.axesByWidth(recs) {
			lhs, rhs, cut, ok := m.cut(recs, axis)
			if !ok {
				continue
			}
			if !m.opt.Constraint.Satisfied(lhs) || !m.opt.Constraint.Satisfied(rhs) {
				continue
			}
			lRegion := region.Clone()
			rRegion := region.Clone()
			lRegion[axis].Hi = cut
			rRegion[axis].Lo = cut
			if len(rhs) >= parCutMin {
				var rOut []anonmodel.Partition
				join := pool.Fork(func() { rOut = m.recurse(rhs, rRegion, pool) })
				lOut := m.recurse(lhs, lRegion, pool)
				join()
				return append(lOut, rOut...)
			}
			lOut := m.recurse(lhs, lRegion, pool)
			return append(lOut, m.recurse(rhs, rRegion, pool)...)
		}
	}
	// No allowable cut: publish this partition.
	return []anonmodel.Partition{{Box: region, Records: recs}}
}

// axesByWidth orders the axes by descending normalized record spread —
// the Mondrian "choose dimension" heuristic.
func (m *state) axesByWidth(recs []attr.Record) []int {
	dims := m.schema.Dims()
	spread := attr.NewBox(dims)
	for _, r := range recs {
		spread.Include(r.QI)
	}
	axes := make([]int, dims)
	widths := make([]float64, dims)
	for a := 0; a < dims; a++ {
		axes[a] = a
		widths[a] = spread[a].Width()
		if dw := m.domain[a].Width(); dw > 0 {
			widths[a] /= dw
		}
	}
	sort.SliceStable(axes, func(i, j int) bool { return widths[axes[i]] > widths[axes[j]] })
	return axes
}

// cut divides recs at the median of axis. In strict mode records with
// equal values stay together (the cut value separates value classes); in
// relaxed mode the cut is exactly at the median index. It reports
// ok=false when the axis cannot be cut (all values equal). The returned
// cut value is the boundary both published regions share.
func (m *state) cut(recs []attr.Record, axis int) (lhs, rhs []attr.Record, cut float64, ok bool) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].QI[axis] < recs[j].QI[axis] })
	n := len(recs)
	if recs[0].QI[axis] == recs[n-1].QI[axis] {
		return nil, nil, 0, false
	}
	if m.opt.Relaxed {
		mid := n / 2
		return recs[:mid], recs[mid:], recs[mid].QI[axis], true
	}
	mid := n / 2
	v := recs[mid].QI[axis]
	if v == recs[0].QI[axis] {
		for mid < n && recs[mid].QI[axis] == recs[0].QI[axis] {
			mid++
		}
		v = recs[mid].QI[axis]
	} else {
		// Walk back to the first record holding the median value so the
		// value class is not divided.
		for mid > 0 && recs[mid-1].QI[axis] == v {
			mid--
		}
	}
	return recs[:mid], recs[mid:], v, true
}
