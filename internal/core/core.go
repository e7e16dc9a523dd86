// Package core is the paper's primary contribution assembled as a
// library: k-anonymization performed by building a spatial index.
//
// It exposes:
//
//   - RTreeAnonymizer — the index-based anonymizer. Bulk loads through
//     the buffer tree (Section 2.1), accepts incremental inserts,
//     deletes and updates (Section 2.2), publishes compacted partitions
//     straight from leaf MBRs, and derives any granularity k₁ ≥ k via
//     the leaf-scan algorithm (Section 3.2) or tree levels via the
//     hierarchical algorithm (Section 3.1).
//   - Algorithms — the registry: the index and every baseline (top-down
//     Mondrian, space-filling curves, grid file, quadtree, B⁺-tree), an
//     entry each, built from one Params behind the same Anonymizer
//     interface, so the CLI, the experiment harness and the tests range
//     over one table.
//   - Tiling.Scan — the Figure 5 leaf-scan algorithm over a release
//     laid out as windows of shared record arrays (LeafScanP is the
//     plain-partitions form).
//   - Render / WriteCSV — materialization of an anonymized table, with
//     hierarchy-aware categorical generalization ("*" at the root).
package core

import (
	"fmt"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/par"
)

// Anonymizer is the uniform face of every algorithm in the repository:
// one-shot anonymization of a record set under the algorithm's
// configured constraint.
type Anonymizer interface {
	// Anonymize partitions recs. Implementations may reorder the input
	// slice.
	Anonymize(recs []attr.Record) ([]anonmodel.Partition, error)
	// Name identifies the algorithm in reports.
	Name() string
}

// LeafScanP is the multi-granular leaf-scan algorithm of Figure 5 over
// plain partitions — Tiling{Partitions: base}.Scan without the record
// arrays. Its third argument is ignored: the scan runs on GOMAXPROCS.
func LeafScanP(base []anonmodel.Partition, constraint anonmodel.Constraint, _ int) ([]anonmodel.Partition, error) {
	t, err := Tiling{Partitions: base}.Scan(constraint)
	return t.Partitions, err
}

// Tiling is a release laid out as windows: the partitions' Records
// are consecutive slices, in scan order, of a few shared record
// arrays (one per base scan) instead of one copy each. Scanning a
// Tiling therefore copies nothing — a coarser group is a wider window
// of the same array — so every granularity derived from one base scan
// costs O(partitions) of memory, not O(records).
//
// The arrays belong to the release family and are never written after
// the base scan filled them. Every Records slice handed out is
// read-only and cap-limited (arr[i:j:j]), so an append by a caller
// reallocates instead of writing into the neighbouring partition.
type Tiling struct {
	// Partitions is the release. The zero Tiling is the empty release;
	// Tiling{Partitions: ps} wraps partitions whose layout is unknown
	// (index leaves, a hand-built base), which the first Scan copies.
	Partitions []anonmodel.Partition

	// arrays are the record arrays Partitions tile, in order. They are
	// a hint checked by pointer equality, never trusted: a partition
	// that is not where the arrays say the next window starts is
	// copied like any unknown one.
	arrays [][]attr.Record
}

// Concat lays tilings end to end — the joint release of a sharded
// fleet. Groups of a later Scan that stay inside one constituent are
// windows of its array; only a group straddling a seam is copied.
func Concat(ts ...Tiling) Tiling {
	var out Tiling
	for _, t := range ts {
		out.Partitions = append(out.Partitions, t.Partitions...)
		out.arrays = append(out.arrays, t.arrays...)
	}
	return out
}

// window locates one partition's records: arrays[arr][off:off+len].
// arr < 0 marks a partition that is not a window of any known array.
type window struct{ arr, off int }

// Scan is the leaf scan of Figure 5 over t's partitions: scan them in
// index order, accumulating whole partitions until the constraint is
// satisfied, then recompute the group's generalized box as the union
// of its members' boxes. A final group that cannot satisfy the
// constraint is absorbed into its predecessor (step LS4).
//
// The scan is a sequential dependence chain — each group boundary
// depends on the previous one — but for constraints that are functions
// of group size alone (k-anonymity, conjunctions of k-anonymities) the
// boundaries are planned from partition sizes in one cheap serial
// pass, after which the groups' boxes are materialized concurrently
// and their records are windows: of t's arrays where t is already
// tiled, else of one fresh array the records are copied into once, in
// scan order.
// Output is identical to anonmodel.LeafScan at every GOMAXPROCS;
// constraints that inspect record contents (l-diversity, (α,k)) run
// that reference scan itself.
func (t Tiling) Scan(constraint anonmodel.Constraint) (Tiling, error) {
	base := t.Partitions
	if constraint == nil {
		return Tiling{}, fmt.Errorf("core: nil constraint")
	}
	if len(base) == 0 {
		return Tiling{}, nil
	}
	min, sizeOnly := sizeOnlyMin(constraint)
	if !sizeOnly {
		ps, err := anonmodel.LeafScan(base, constraint)
		return Tiling{Partitions: ps}, err
	}
	// Plan the group boundaries from sizes alone: group g is
	// base[bounds[g]:bounds[g+1]). run mirrors len(cur.Records) of the
	// serial scan, so "run >= min" is exactly its Satisfied check.
	bounds := []int{0}
	run := 0
	for i, p := range base {
		run += p.Size()
		if run >= min {
			bounds = append(bounds, i+1)
			run = 0
		}
	}
	if run > 0 {
		if len(bounds) == 1 {
			return Tiling{}, fmt.Errorf("leaf scan: %d records cannot satisfy %v", run, constraint)
		}
		// Step LS4: absorb the unsatisfiable tail into the last group.
		bounds[len(bounds)-1] = len(base)
	}
	// A tail of empty partitions with no records is dropped, as the
	// serial scan drops an empty trailing accumulator.
	if len(bounds) == 1 {
		return Tiling{}, nil
	}
	arrays, at := t.arrays, []window(nil)
	if arrays == nil {
		// Unknown layout: the one copy. Each partition's window of the
		// fresh array follows from the sizes; groups fill theirs
		// concurrently.
		at = make([]window, len(base))
		total := 0
		for i, p := range base {
			at[i] = window{0, total}
			total += p.Size()
		}
		arr := make([]attr.Record, total)
		par.Do(len(bounds)-1, func(g int) {
			for i := bounds[g]; i < bounds[g+1]; i++ {
				copy(arr[at[i].off:], base[i].Records)
			}
		})
		arrays = [][]attr.Record{arr}
	} else {
		at = t.locate()
	}
	dims := len(base[0].Box)
	out := make([]anonmodel.Partition, len(bounds)-1)
	boxes := make([]attr.Interval, len(out)*dims)
	par.Do(len(out), func(g int) {
		box := attr.Box(boxes[g*dims : (g+1)*dims : (g+1)*dims])
		for d := range box {
			box[d] = attr.EmptyInterval()
		}
		group := base[bounds[g]:bounds[g+1]]
		// The group is a window when its non-empty members sit back to
		// back in one array.
		first, n, tiled := window{arr: -1}, 0, true
		for i, p := range group {
			box.IncludeBox(p.Box)
			if p.Size() == 0 {
				continue
			}
			here := at[bounds[g]+i]
			if n == 0 {
				first = here
			}
			tiled = tiled && here.arr >= 0 && here == window{first.arr, first.off + n}
			n += p.Size()
		}
		var recs []attr.Record
		switch {
		case n == 0:
		case tiled:
			recs = arrays[first.arr][first.off : first.off+n : first.off+n]
		default: // straddles two arrays (a shard seam): the serial scan's copy
			recs = make([]attr.Record, 0, n)
			for _, p := range group {
				recs = append(recs, p.Records...)
			}
		}
		out[g] = anonmodel.Partition{Box: box, Records: recs}
	})
	return Tiling{Partitions: out, arrays: arrays}, nil
}

// locate finds each partition's window by walking t's arrays beside
// its partitions: a non-empty partition is a window exactly when its
// first record is the array element the walk has reached.
func (t Tiling) locate() []window {
	at := make([]window, len(t.Partitions))
	arr, off := 0, 0
	for i, p := range t.Partitions {
		at[i] = window{arr: -1}
		if len(p.Records) == 0 {
			continue
		}
		for arr < len(t.arrays) && off == len(t.arrays[arr]) {
			arr, off = arr+1, 0
		}
		if arr < len(t.arrays) && off+len(p.Records) <= len(t.arrays[arr]) && &t.arrays[arr][off] == &p.Records[0] {
			at[i] = window{arr, off}
			off += len(p.Records)
		}
	}
	return at
}

// sizeOnlyMin reports whether constraint is a pure function of group
// size and, if so, the smallest satisfying size: Satisfied(recs) ⇔
// len(recs) >= min. True for KAnonymity and for All built solely from
// size-only constraints.
func sizeOnlyMin(c anonmodel.Constraint) (min int, ok bool) {
	switch v := c.(type) {
	case anonmodel.KAnonymity:
		return v.K, true
	case anonmodel.All:
		for _, sub := range v {
			m, subOK := sizeOnlyMin(sub)
			if !subOK {
				return 0, false
			}
			if m > min {
				min = m
			}
		}
		return min, true
	}
	return 0, false
}

// Release is one anonymized table of a multi-granular set.
type Release struct {
	// Granularity is the anonymity parameter this release was derived
	// at (the leaf-scan k₁, or the effective minimum occupancy of a
	// hierarchical level).
	Granularity int
	Partitions  []anonmodel.Partition
}
