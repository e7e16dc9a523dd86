// Package compact implements the compaction procedure of Section 4: for
// each partition of a k-anonymous data set, regenerate the published
// generalization as the minimum bounding box of the records actually in
// the partition. Numeric attributes shrink to [min, max]; integer-coded
// categorical attributes shrink to the minimal code range (rendering
// through a generalization hierarchy then yields the lowest common
// ancestor, exactly as the paper specifies).
//
// Compaction introduces "gaps" — regions of the domain that provably
// contain no record — which is what makes compacted anonymizations so
// much more precise (Figures 10 and 12). The procedure is deliberately a
// single pass over each partition so that it can be retrofitted onto the
// output of any anonymization algorithm, index-based or not; Figure 9
// shows its cost is a small fraction of anonymization time.
package compact

import (
	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/par"
)

// Partition returns a copy of p whose box is the tight MBR of its
// records. Records are shared, not copied. A partition with no records
// keeps an empty box.
func Partition(p anonmodel.Partition) anonmodel.Partition {
	dims := len(p.Box)
	if dims == 0 && p.Size() > 0 {
		dims = len(p.Record(0).QI)
	}
	p.Box = attr.NewBox(dims)
	for i := range p.Size() {
		p.Box.Include(p.Record(i).QI)
	}
	return p
}

// Partitions compacts every partition, returning a new slice. The
// record sets — and therefore the discernibility penalty, which depends
// only on partition cardinalities — are unchanged; only the published
// boxes shrink (Section 5.3 observes exactly this on Figure 10(a)).
// Each partition compacts independently — the pass reads records and
// writes only its own output slot — so the work fans out by index over
// GOMAXPROCS workers; the result is identical at every GOMAXPROCS.
func Partitions(ps []anonmodel.Partition) []anonmodel.Partition {
	out := make([]anonmodel.Partition, len(ps))
	par.Do(len(ps), func(i int) {
		out[i] = Partition(ps[i])
	})
	return out
}
