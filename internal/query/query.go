// Package query implements the query-accuracy experiments of Sections
// 2.3 and 5.4: random multidimensional COUNT range workloads, their
// evaluation against original and anonymized tables, the paper's
// normalized error measure, and selectivity bucketing.
//
// Matching semantics follow the paper exactly: on the original table a
// record matches when its point lies in the query region; on an
// anonymized table a record matches when its generalized box has a
// non-null intersection with the query region on every attribute. The
// uniform-assumption estimator of Section 2.3 is also provided.
package query

import (
	"fmt"
	"math"
	"sort"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/detrng"
	"spatialanon/internal/par"
)

// FullRangeWorkload generates n queries of the Section 5.4 form: for
// each query two records are drawn at random and each attribute's range
// runs from the smaller to the larger of their values. Such a query
// always contains both seed records, so its original count is >= 1.
func FullRangeWorkload(recs []attr.Record, n int, seed int64) []attr.Box {
	rng := detrng.New(seed)
	out := make([]attr.Box, n)
	if n == 0 || len(recs) == 0 {
		return out
	}
	// One flat interval arena for the whole workload instead of one
	// box allocation per query: generation cost is two allocations
	// regardless of n, and the boxes pack contiguously.
	dims := len(recs[0].QI)
	arena := make([]attr.Interval, n*dims)
	for i := range out {
		r1 := recs[rng.Intn(len(recs))]
		r2 := recs[rng.Intn(len(recs))]
		q := attr.Box(arena[i*dims : (i+1)*dims : (i+1)*dims])
		for d, v := range r1.QI {
			q[d] = attr.Interval{Lo: v, Hi: v}
		}
		q.Include(r2.QI)
		out[i] = q
	}
	return out
}

// PointWorkload draws n point queries from the records themselves (so
// every point has at least one true match), for the read-path load
// profiles. The returned points alias the records' QI slices — they
// are read-only query inputs, not copies.
func PointWorkload(recs []attr.Record, n int, seed int64) [][]float64 {
	rng := detrng.New(seed)
	out := make([][]float64, n)
	if len(recs) == 0 {
		return out[:0]
	}
	for i := range out {
		out[i] = recs[rng.Intn(len(recs))].QI
	}
	return out
}

// SingleAttrWorkload generates n queries bounding only the given
// attribute (the Zipcode workload of Figure 12(c)): the bounded range
// comes from two random records, every other attribute spans the whole
// domain.
func SingleAttrWorkload(recs []attr.Record, axis int, n int, seed int64, domain attr.Box) []attr.Box {
	rng := detrng.New(seed)
	out := make([]attr.Box, n)
	if n == 0 || len(recs) == 0 {
		return out
	}
	dims := len(domain)
	arena := make([]attr.Interval, n*dims)
	for i := range out {
		v1 := recs[rng.Intn(len(recs))].QI[axis]
		v2 := recs[rng.Intn(len(recs))].QI[axis]
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		q := attr.Box(arena[i*dims : (i+1)*dims : (i+1)*dims])
		copy(q, domain)
		q[axis] = attr.Interval{Lo: v1, Hi: v2}
		out[i] = q
	}
	return out
}

// CountOriginal evaluates a COUNT query on the original table.
func CountOriginal(recs []attr.Record, q attr.Box) int {
	n := 0
	for _, r := range recs {
		if q.Contains(r.QI) {
			n++
		}
	}
	return n
}

// CountAnonymized evaluates a COUNT query on an anonymized table: every
// record of every partition whose box intersects the query matches
// (the paper's Section 5.4 semantics — "a COUNT query on a partition
// returns the cardinality of that partition if the query region
// intersects with the partition").
func CountAnonymized(ps []anonmodel.Partition, q attr.Box) int {
	n := 0
	for _, p := range ps {
		if p.Box.Intersects(q) {
			n += p.Size()
		}
	}
	return n
}

// EstimateUniform evaluates a COUNT query under the Section 2.3
// uniform-distribution assumption: each intersecting partition
// contributes |P| x cells(P∩Q)/cells(P), computed on the integer cell
// lattice (consistent with the KL-divergence metric). The
// intersection is folded per axis instead of materialized, so the
// linear fallback allocates nothing — same float rounding sequence as
// the boxed form (and as routing.Index.Estimate, which is pinned
// bit-identical to this function).
func EstimateUniform(ps []anonmodel.Partition, q attr.Box) float64 {
	est := 0.0
	for _, p := range ps {
		if len(p.Box) == 0 {
			// A zero-dimensional box is empty (Box.IsEmpty), so its
			// intersection contributes nothing.
			continue
		}
		interCells := 1.0
		empty := false
		for a := range p.Box {
			ilo := math.Max(p.Box[a].Lo, q[a].Lo)
			ihi := math.Min(p.Box[a].Hi, q[a].Hi)
			if ilo > ihi {
				empty = true
				break
			}
			w := math.Round(ihi - ilo)
			if w < 0 {
				w = 0
			}
			interCells *= w + 1
		}
		if empty {
			continue
		}
		est += float64(p.Size()) * interCells / p.Box.Cells()
	}
	return est
}

// Result is one query's evaluation.
type Result struct {
	Query      attr.Box
	Original   int
	Anonymized int
	// Err is the paper's normalized error
	// (count(anonymized)-count(original))/count(original).
	Err float64
}

// Evaluate runs every query against both tables on GOMAXPROCS workers.
// Queries with zero original count (impossible for the generators in
// this package, which seed queries from real records) are rejected to
// keep the normalized error well-defined. Queries evaluate independently — each writes only its
// own result slot and the per-query arithmetic involves no cross-query
// accumulation — so results are identical at every GOMAXPROCS, and
// on failure the reported error is the lowest-indexed failing query,
// matching the serial scan.
func Evaluate(ps []anonmodel.Partition, recs []attr.Record, queries []attr.Box) ([]Result, error) {
	out := make([]Result, len(queries))
	err := par.FirstErr(len(queries), func(i int) error {
		q := queries[i]
		orig := CountOriginal(recs, q)
		if orig == 0 {
			return fmt.Errorf("query: query %d has zero original count; normalized error undefined", i)
		}
		anon := CountAnonymized(ps, q)
		out[i] = Result{
			Query:      q,
			Original:   orig,
			Anonymized: anon,
			Err:        float64(anon-orig) / float64(orig),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MeanError averages the normalized errors — the quantity on the y-axis
// of Figure 12.
func MeanError(results []Result) float64 {
	if len(results) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range results {
		sum += r.Err
	}
	return sum / float64(len(results))
}

// SelectivityBucket is the mean error of all queries whose original
// result cardinality falls in [Lo, Hi).
type SelectivityBucket struct {
	Lo, Hi  float64 // selectivity bounds as a fraction of the table
	Queries int
	Mean    float64
}

// BySelectivity groups results into buckets over selectivity =
// original/total, with the given ascending boundary fractions (e.g.
// 0.001, 0.01, 0.1 produces buckets [0,0.001), [0.001,0.01),
// [0.01,0.1), [0.1,1]). Empty buckets are retained with Queries == 0 so
// series line up across anonymizers — the Figure 12(b)/(d) x-axis.
// With total <= 0 no selectivity is defined, so every bucket comes
// back empty instead of dividing by zero.
func BySelectivity(results []Result, total int, bounds []float64) []SelectivityBucket {
	edges := append([]float64{0}, bounds...)
	edges = append(edges, 1.0000001) // inclusive top edge
	sort.Float64s(edges)
	out := make([]SelectivityBucket, len(edges)-1)
	sums := make([]float64, len(out))
	for i := range out {
		out[i] = SelectivityBucket{Lo: edges[i], Hi: edges[i+1]}
	}
	if total <= 0 {
		return out
	}
	for _, r := range results {
		sel := float64(r.Original) / float64(total)
		for i := range out {
			if sel >= out[i].Lo && sel < out[i].Hi {
				out[i].Queries++
				sums[i] += r.Err
				break
			}
		}
	}
	for i := range out {
		if out[i].Queries > 0 {
			out[i].Mean = sums[i] / float64(out[i].Queries)
		}
	}
	return out
}
