package rplustree

import (
	"sort"

	"spatialanon/internal/attr"
)

// SplitContext carries the information split policies may consult.
type SplitContext struct {
	Schema *attr.Schema
	// Domain is the MBR of the whole data set seen so far, used to
	// normalize per-attribute extents (as the certainty penalty does).
	Domain attr.Box
	// MBR is the tight bounding box of the records being split, when
	// the caller (the tree) already maintains it; policies use it to
	// rank axes by extent without scanning. Nil means "compute it".
	MBR attr.Box
	// MinSide is the occupancy both sides of a split should reach —
	// the tree's BaseK. Policies must prefer candidates meeting it.
	MinSide int
}

// SplitPolicy chooses the hyperplane for a leaf split. Implementations
// return ok=false when the records cannot be separated on any axis
// (all points identical), in which case the leaf is left oversized.
//
// The paper exercises three families of policies (Sections 2.4 and 5.4):
// the R-tree-style minimize-the-resulting-partitions default, workload-
// biased splitting pinned to a subset of attributes, and weighted
// splitting following the weighted certainty penalty of [33].
type SplitPolicy interface {
	ChooseSplit(recs []attr.Record, ctx SplitContext) (axis int, value float64, ok bool)
}

// candidate is one feasible (axis, value) with its evaluation.
type candidate struct {
	axis     int
	value    float64
	balanced bool    // both sides >= ctx.MinSide
	score    float64 // lower is better
}

// better orders candidates: balanced first, then lower score, then lower
// axis for determinism.
func (c candidate) better(o candidate) bool {
	if c.balanced != o.balanced {
		return c.balanced
	}
	if c.score != o.score {
		return c.score < o.score
	}
	return c.axis < o.axis
}

// axisCandidate computes the median-based split of recs on one axis:
// value v such that left = {r : r.QI[axis] < v} and right are both
// non-empty, adjusted upward past duplicate runs. ok=false when every
// record has the same value on the axis.
func axisCandidate(recs []attr.Record, axis int) (value float64, leftN int, ok bool) {
	vals := make([]float64, len(recs))
	for i, r := range recs {
		vals[i] = r.QI[axis]
	}
	v, leftN, _, _, ok := medianSplit(vals)
	return v, leftN, ok
}

// medianSplit finds the median-based split of a value multiset in
// expected O(n): the split value v (adjusted upward past a duplicate
// run at the minimum so the left side is never empty), the number of
// values strictly below v, and the gap between v and its predecessor
// value. vals is reordered. ok is false when all values are equal.
//
// Bulk loading splits leaves holding hundreds of thousands of records
// (the whole data set lands in the root leaf on the first flush), where
// the sort-based version's O(n log n) per axis per level dominated load
// time; selection keeps recursive bulk splitting linear per level.
func medianSplit(vals []float64) (v float64, leftN int, gap, width float64, ok bool) {
	n := len(vals)
	if n < 2 {
		return 0, 0, 0, 0, false
	}
	if n <= 48 {
		sort.Float64s(vals)
		if vals[0] == vals[n-1] {
			return 0, 0, 0, 0, false
		}
		mid := n / 2
		v = vals[mid]
		if v == vals[0] {
			for mid < n && vals[mid] == vals[0] {
				mid++
			}
			v = vals[mid]
		}
		leftN = sort.SearchFloat64s(vals, v)
		return v, leftN, v - vals[leftN-1], vals[n-1] - vals[0], true
	}
	v = quickselect(vals, n/2)
	lo, hi := vals[0], vals[0]
	for _, x := range vals {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if lo == hi {
		return 0, 0, 0, 0, false
	}
	if v == lo {
		// Median sits in the duplicate run at the minimum: split at the
		// smallest value above it instead.
		next := hi
		for _, x := range vals {
			if x > lo && x < next {
				next = x
			}
		}
		v = next
	}
	// One pass for the count below v and v's predecessor (the gap).
	pred := lo
	for _, x := range vals {
		if x < v {
			leftN++
			if x > pred {
				pred = x
			}
		}
	}
	return v, leftN, v - pred, hi - lo, true
}

// quickselect returns the k-th smallest value (0-based) of vals,
// reordering vals in place. Median-of-three pivoting with a sort
// fallback for small ranges keeps it robust on presorted and
// duplicate-heavy inputs.
func quickselect(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for hi-lo > 32 {
		// Median-of-three pivot.
		mid := lo + (hi-lo)/2
		if vals[mid] < vals[lo] {
			vals[mid], vals[lo] = vals[lo], vals[mid]
		}
		if vals[hi] < vals[lo] {
			vals[hi], vals[lo] = vals[lo], vals[hi]
		}
		if vals[hi] < vals[mid] {
			vals[hi], vals[mid] = vals[mid], vals[hi]
		}
		pivot := vals[mid]
		// Hoare partition.
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for vals[j] > pivot {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return vals[k]
		}
	}
	sub := vals[lo : hi+1]
	sort.Float64s(sub)
	return vals[k]
}

// MinMarginPolicy is the default R-tree-style policy: among all axes'
// median splits, choose the one minimizing the summed weighted
// normalized extent (the NCP, Definition 4) of the two resulting MBRs
// (evaluated to first order, see chooseByScore). This is the "splits by
// trying to minimize the area of the resulting partitions" behaviour
// the paper credits for the R⁺-tree's quality advantage over Mondrian
// (Section 5.3). Margin (perimeter) rather than raw area is the
// underlying quantity because point data routinely produces degenerate
// zero-area boxes.
type MinMarginPolicy struct{}

// topAxes bounds how many axes get the exact median-and-gap scan per
// split: axes are pre-ranked by weighted normalized extent (read off
// the MBR, no scan) and only the leading topAxes are evaluated.
// Profiles showed 2 costs ~a quarter of exhaustive evaluation at
// indistinguishable anonymization quality.
const topAxes = 2

// ChooseSplit implements SplitPolicy.
func (p MinMarginPolicy) ChooseSplit(recs []attr.Record, ctx SplitContext) (int, float64, bool) {
	return chooseByScore(recs, ctx)
}

// rankedAxes fills top with the len(top) axes of widest weighted
// normalized extent, widest first and ties in axis order — the prefix a
// stable sort of all axes would give, selected in one pass of insertion
// into top with no allocation — and returns it (all axes in order when
// top is at least the dimensionality). The extent comes from ctx.MBR
// when available.
func rankedAxes(recs []attr.Record, ctx SplitContext, top []int) []int {
	dims := len(recs[0].QI)
	if len(top) >= dims {
		top = top[:dims]
		for a := range top {
			top[a] = a
		}
		return top
	}
	mbr := ctx.MBR
	if mbr == nil {
		box := attr.NewBox(dims)
		for _, r := range recs {
			box.Include(r.QI)
		}
		mbr = box
	}
	width := func(a int) float64 {
		w := mbr[a].Width() * ctx.Schema.Attrs[a].EffectiveWeight()
		if dw := ctx.Domain[a].Width(); dw > 0 {
			w /= dw
		}
		return w
	}
	n := 0
	for a := 0; a < dims; a++ {
		w := width(a)
		i := n
		for i > 0 && width(top[i-1]) < w {
			i--
		}
		if i == len(top) {
			continue
		}
		n = min(n+1, len(top))
		copy(top[i+1:n], top[i:n-1])
		top[i] = a
	}
	return top
}

// chooseByScore evaluates the median-split candidate of each of the
// topAxes ranked axes and returns the best by (balanced, score). The
// score is the first-order equivalent of comparing the summed weighted
// normalized margins of the two resulting MBRs: splitting axis a at
// value v leaves every other axis's extent unchanged in both halves, so
// candidate rankings differ only in -w_a·(width_a + gap_a)/|domain_a|,
// where gap is the dead space the split exposes at the cut. Minimizing that (the score)
// prefers wide, heavily weighted axes with big gaps — the R-tree
// "minimize the resulting partitions" objective — while touching each
// axis's values exactly once. (The exact version that built both side
// MBRs per axis dominated load-time profiles.)
func chooseByScore(recs []attr.Record, ctx SplitContext) (int, float64, bool) {
	var top [topAxes]int
	axes := rankedAxes(recs, ctx, top[:])
	// For very large leaves (bulk loading splits leaves holding big
	// fractions of the data set), axes are scored on a strided sample
	// and only the winning axis gets an exact median pass. The sample
	// decides *which* axis splits — a decision robust to sampling —
	// while the split value itself stays exact.
	const maxSample = 1024
	stride := 1
	if len(recs) > 4*maxSample {
		stride = len(recs) / maxSample
	}
	sampleLen := (len(recs) + stride - 1) / stride

	var best candidate
	found := false
	// A tuple insert's split samples c·k + 1 records: on the stack.
	var stack [64]float64
	vals := stack[:0]
	if sampleLen > len(stack) {
		vals = make([]float64, 0, sampleLen)
	}
	for _, axis := range axes {
		vals = vals[:0]
		for i := 0; i < len(recs); i += stride {
			vals = append(vals, recs[i].QI[axis])
		}
		v, leftN, gap, width, ok := medianSplit(vals)
		if !ok {
			continue
		}
		w := ctx.Schema.Attrs[axis].EffectiveWeight()
		score := 0.0
		if dw := ctx.Domain[axis].Width(); dw > 0 {
			score = -w * (width + gap) / dw
		}
		c := candidate{
			axis:     axis,
			value:    v,
			balanced: leftN*stride >= ctx.MinSide && (len(vals)-leftN)*stride >= ctx.MinSide,
			score:    score,
		}
		if !found || c.better(best) {
			best = c
			found = true
		}
	}
	if !found {
		return 0, 0, false
	}
	if stride > 1 {
		// Exact median on the winning axis over all records: the sample
		// chose the axis; the value must split the real multiset.
		full := make([]float64, len(recs))
		for i, r := range recs {
			full[i] = r.QI[best.axis]
		}
		if v, _, _, _, ok := medianSplit(full); ok {
			best.value = v
		}
	}
	return best.axis, best.value, true
}

// WidestAxisPolicy mimics the Mondrian heuristic inside the index:
// split the attribute whose records span the largest normalized range.
// Provided for ablation against MinMarginPolicy.
type WidestAxisPolicy struct{}

// ChooseSplit implements SplitPolicy.
func (WidestAxisPolicy) ChooseSplit(recs []attr.Record, ctx SplitContext) (int, float64, bool) {
	dims := len(recs[0].QI)
	spread := attr.NewBox(dims)
	for _, r := range recs {
		spread.Include(r.QI)
	}
	type axisWidth struct {
		axis  int
		width float64
	}
	order := make([]axisWidth, 0, dims)
	for a := 0; a < dims; a++ {
		w := spread[a].Width()
		if dw := ctx.Domain[a].Width(); dw > 0 {
			w /= dw
		}
		order = append(order, axisWidth{a, w})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].width != order[j].width {
			return order[i].width > order[j].width
		}
		return order[i].axis < order[j].axis
	})
	for _, aw := range order {
		if v, _, ok := axisCandidate(recs, aw.axis); ok {
			return aw.axis, v, true
		}
	}
	return 0, 0, false
}

// BiasedPolicy implements the workload-biased splitting of Section 2.4:
// "the biased splitting algorithm selects the Zipcode attribute as the
// splitting attribute for every split". Preference is given to the
// attributes in Axes (in the given priority order); when none of them
// can separate the records, MinMarginPolicy decides.
type BiasedPolicy struct {
	Axes []int
}

// ChooseSplit implements SplitPolicy.
func (p BiasedPolicy) ChooseSplit(recs []attr.Record, ctx SplitContext) (int, float64, bool) {
	for _, axis := range p.Axes {
		if v, _, ok := axisCandidate(recs, axis); ok {
			return axis, v, true
		}
	}
	return MinMarginPolicy{}.ChooseSplit(recs, ctx)
}

// WeightedPolicy scores splits by the weighted certainty penalty with
// explicit per-attribute weights (Section 2.4's "assigning higher
// weights to the more important quasi-identifier attributes"): axes
// whose weight is higher contribute more to a box's penalty, so the
// policy prefers to shorten them. Weights must match the schema
// dimensionality; they override the schema's own attribute weights.
type WeightedPolicy struct {
	Weights []float64
}

// ChooseSplit implements SplitPolicy.
func (p WeightedPolicy) ChooseSplit(recs []attr.Record, ctx SplitContext) (int, float64, bool) {
	// Delegate to chooseByScore under a schema whose weights are
	// replaced by p.Weights.
	s := *ctx.Schema
	s.Attrs = make([]attr.Attribute, len(ctx.Schema.Attrs))
	copy(s.Attrs, ctx.Schema.Attrs)
	for i := range s.Attrs {
		if i < len(p.Weights) {
			s.Attrs[i].Weight = p.Weights[i]
		}
	}
	ctx.Schema = &s
	return chooseByScore(recs, ctx)
}
