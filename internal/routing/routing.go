// Package routing implements the per-epoch block-range accelerator
// for the serving read path: an SFC-ordered summary of one published
// release that routes a point or range query to the handful of blocks
// that can possibly answer it, instead of the linear partition walk
// query.CountAnonymized performs.
//
// The paper's thesis is that the anonymization tree IS a spatial
// index; this package applies the same idea to the *published* side.
// In the spirit of SLBRIN's block-range index over curve-reduced keys
// and GP-Tree's grid+prefix hybrid, Build sorts the release's
// partitions by the space-filling-curve key of their box min-corner
// (Z-order or Hilbert via sfc.Quantizer), copies their bounds into
// struct-of-arrays summaries (flat per-axis lo/hi float64 arrays, so
// a block scan walks contiguous memory), and groups consecutive curve
// positions into fixed-size blocks carrying a summary MBR and a
// disjoint curve-key range.
//
// A lookup then (1) binary-searches the block key ranges — Z-order
// keys are monotone under coordinate-wise dominance, so a partition
// containing point p (or intersecting a query whose upper corner is
// h) must have min-corner key <= key(p) (resp. key(h)), which prunes
// the tail of the block list in O(log B); (2) tests each surviving
// block's summary MBR against the query; and (3) scans only the
// partitions of overlapping blocks. Hilbert keys are not
// dominance-monotone, so under Hilbert step (1) is skipped and
// pruning rests on the MBR summaries alone — answers are identical
// either way, the curve only changes how much is pruned.
//
// Answers are bit-identical to the linear reference scans
// (query.CountAnonymized, query.EstimateUniform and the point
// variant): counts are integer sums, and the estimator re-orders its
// float64 contributions back into original partition order before
// accumulating, so the rounding sequence matches the linear scan
// exactly. All lookups are zero-allocation once a Scratch is warm.
package routing

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/sfc"
)

// DefaultBlockSize is the block width Build uses when Options leaves
// it zero: big enough that block summaries prune in useful chunks,
// small enough that a matched block's scan stays in cache.
const DefaultBlockSize = 64

// Options parameterizes Build.
type Options struct {
	// Curve orders the partitions. Z-order (the default) additionally
	// enables the key-range binary-search prune; Hilbert gives better
	// locality per block but prunes by MBR summaries only.
	Curve sfc.Curve
	// BlockSize is the target number of partitions per block
	// (<= 0 selects DefaultBlockSize). Blocks are extended past the
	// target so partitions with equal curve keys never straddle a
	// boundary, keeping block key ranges disjoint.
	BlockSize int
}

// Index is the immutable accelerator over one published release. It
// shares the release's partition slice (read-only, like every release
// product) and is safe for any number of concurrent readers, each
// with its own Scratch.
//
//anonylint:published — handed to concurrent readers via the view's accel cache; immutable after Build returns
type Index struct {
	parts []anonmodel.Partition
	curve sfc.Curve
	quant *sfc.Quantizer
	dims  int

	// Partition summary, indexed by curve position (rank along the
	// curve): original partition index, min-corner curve key
	// (ascending; ties broken by original index), record count, and
	// the cell volume feeding the uniform estimator.
	orig  []int32
	keys  []uint64
	sizes []int32
	vols  []float64
	// Axis-major flat bounds: partition at position pos spans
	// [lo[a*n+pos], hi[a*n+pos]] on axis a.
	lo, hi []float64

	// Block summary: block b covers positions [start[b], start[b+1]),
	// curve keys [bKeyLo[b], bKeyHi[b]] (pairwise disjoint, sorted),
	// and the axis-major MBR [bLo[a*nb+b], bHi[a*nb+b]].
	start    []int32
	bKeyLo   []uint64
	bKeyHi   []uint64
	bLo, bHi []float64
}

// Scratch is the reusable per-session state of the lookup methods:
// cell and corner buffers for quantizing query coordinates, and the
// candidate accumulator of the estimator. The zero value is ready to
// use; after the first lookup of each shape the methods allocate
// nothing.
type Scratch struct {
	cell   []uint32
	corner []float64
	cand   []candidate
}

// candidate is one partition a range query overlaps: its original index
// and what it contributes to the estimate.
type candidate struct {
	orig    int32
	contrib float64
}

// byOrig orders candidates by original partition index. The indices are
// distinct, so the order is total and an unstable sort is deterministic.
func byOrig(a, b candidate) int { return cmp.Compare(a.orig, b.orig) }

// Build constructs the accelerator for one release. The partition
// slice is retained (not copied) and must not be mutated afterwards —
// the standard read-only contract of published releases. Partitions
// must share one dimensionality and carry non-empty boxes; a release
// that has passed verify.Release always does.
func Build(ps []anonmodel.Partition, opt Options) (*Index, error) {
	bs := opt.BlockSize
	if bs <= 0 {
		bs = DefaultBlockSize
	}
	ix := &Index{parts: ps, curve: opt.Curve}
	if len(ps) == 0 {
		return ix, nil
	}
	dims := len(ps[0].Box)
	if dims == 0 {
		return nil, fmt.Errorf("routing: partition 0 has a zero-dimensional box")
	}
	domain := attr.NewBox(dims)
	for i, p := range ps {
		if len(p.Box) != dims {
			return nil, fmt.Errorf("routing: partition %d has %d dimensions, partition 0 has %d", i, len(p.Box), dims)
		}
		if p.Box.IsEmpty() {
			return nil, fmt.Errorf("routing: partition %d has an empty box", i)
		}
		domain.IncludeBox(p.Box)
	}
	quant, err := sfc.NewQuantizer(domain, 0)
	if err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	ix.quant, ix.dims = quant, dims

	n := len(ps)
	rawKeys := make([]uint64, n)
	corner := make([]float64, dims)
	var cell []uint32
	for i, p := range ps {
		for a := 0; a < dims; a++ {
			corner[a] = p.Box[a].Lo
		}
		rawKeys[i], cell = quant.KeyInto(opt.Curve, corner, cell)
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// Ties sort by original index, so the layout is a deterministic
	// function of the release alone.
	sort.Slice(order, func(a, b int) bool {
		ka, kb := rawKeys[order[a]], rawKeys[order[b]]
		if ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})

	ix.orig = order
	ix.keys = make([]uint64, n)
	ix.sizes = make([]int32, n)
	ix.vols = make([]float64, n)
	ix.lo = make([]float64, dims*n)
	ix.hi = make([]float64, dims*n)
	for pos, oi := range order {
		p := ps[oi]
		ix.keys[pos] = rawKeys[oi]
		ix.sizes[pos] = int32(p.Size())
		ix.vols[pos] = p.Box.Cells()
		for a := 0; a < dims; a++ {
			ix.lo[a*n+pos] = p.Box[a].Lo
			ix.hi[a*n+pos] = p.Box[a].Hi
		}
	}

	// Cut blocks every bs positions, extending each cut to the end of
	// its run of equal keys: block key ranges end up sorted and
	// pairwise disjoint, so a key binary-search lands in at most one
	// block.
	ix.start = []int32{0}
	for s := 0; s < n; {
		e := s + bs
		if e > n {
			e = n
		}
		for e < n && ix.keys[e] == ix.keys[e-1] {
			e++
		}
		ix.start = append(ix.start, int32(e))
		s = e
	}
	nb := len(ix.start) - 1
	ix.bKeyLo = make([]uint64, nb)
	ix.bKeyHi = make([]uint64, nb)
	ix.bLo = make([]float64, dims*nb)
	ix.bHi = make([]float64, dims*nb)
	for b := 0; b < nb; b++ {
		s, e := int(ix.start[b]), int(ix.start[b+1])
		ix.bKeyLo[b] = ix.keys[s]
		ix.bKeyHi[b] = ix.keys[e-1]
		for a := 0; a < dims; a++ {
			blo, bhi := math.Inf(1), math.Inf(-1)
			for pos := s; pos < e; pos++ {
				if v := ix.lo[a*n+pos]; v < blo {
					blo = v
				}
				if v := ix.hi[a*n+pos]; v > bhi {
					bhi = v
				}
			}
			ix.bLo[a*nb+b] = blo
			ix.bHi[a*nb+b] = bhi
		}
	}
	return ix, nil
}

// searchBlocks returns the number of leading blocks whose key range
// can start at or below key — the binary-search prune. Only valid
// under Z-order, whose keys are monotone under coordinate dominance.
func (ix *Index) searchBlocks(key uint64) int {
	lo, hi := 0, len(ix.bKeyLo)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.bKeyLo[m] <= key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// blockLimit computes how many leading blocks a query with upper
// corner hi can touch, quantizing the corner through the scratch cell
// buffer. Under Hilbert every block survives.
func (ix *Index) blockLimit(hiCorner []float64, s *Scratch) int {
	if ix.curve != sfc.ZOrder {
		return len(ix.bKeyLo)
	}
	var key uint64
	key, s.cell = ix.quant.KeyInto(sfc.ZOrder, hiCorner, s.cell)
	return ix.searchBlocks(key)
}

// PointCount returns the number of records whose partition box
// contains p — bit-identical to summing Partition.Size over the
// linear Box.Contains scan. Zero allocations on a warm Scratch.
//
//anonylint:zero-alloc
func (ix *Index) PointCount(p []float64, s *Scratch) int {
	n := len(ix.keys)
	if n == 0 || len(p) != ix.dims {
		return 0
	}
	nb := len(ix.bKeyLo)
	limit := ix.blockLimit(p, s)
	total := 0
	for b := 0; b < limit; b++ {
		if !ix.blockContains(b, nb, p) {
			continue
		}
		e := int(ix.start[b+1])
		for pos := int(ix.start[b]); pos < e; pos++ {
			if ix.partContains(pos, n, p) {
				total += int(ix.sizes[pos])
			}
		}
	}
	return total
}

// RangeCount returns the COUNT answer under the paper's Section 5.4
// semantics — every record of every partition whose box intersects q
// — bit-identical to query.CountAnonymized. Zero allocations on a
// warm Scratch.
//
//anonylint:zero-alloc
func (ix *Index) RangeCount(q attr.Box, s *Scratch) int {
	n := len(ix.keys)
	if n == 0 || len(q) != ix.dims || q.IsEmpty() {
		return 0
	}
	nb := len(ix.bKeyLo)
	limit := ix.rangeLimit(q, s)
	total := 0
	for b := 0; b < limit; b++ {
		if !ix.blockIntersects(b, nb, q) {
			continue
		}
		e := int(ix.start[b+1])
		for pos := int(ix.start[b]); pos < e; pos++ {
			if ix.partIntersects(pos, n, q) {
				total += int(ix.sizes[pos])
			}
		}
	}
	return total
}

// Estimate returns the Section 2.3 uniform-assumption estimate,
// bit-identical to query.EstimateUniform: contributions are computed
// with the same per-axis arithmetic and summed in original partition
// order, so the float rounding sequence matches the linear scan. Zero
// allocations on a warm Scratch.
//
//anonylint:zero-alloc
func (ix *Index) Estimate(q attr.Box, s *Scratch) float64 {
	n := len(ix.keys)
	if n == 0 || len(q) != ix.dims || q.IsEmpty() {
		return 0
	}
	nb := len(ix.bKeyLo)
	limit := ix.rangeLimit(q, s)
	s.cand = s.cand[:0]
	for b := 0; b < limit; b++ {
		if !ix.blockIntersects(b, nb, q) {
			continue
		}
		e := int(ix.start[b+1])
		for pos := int(ix.start[b]); pos < e; pos++ {
			// Inline Box.Intersect + cells: per axis the canonical
			// intersection bounds, then the lattice cell product in
			// axis order — the exact arithmetic of the linear
			// estimator.
			cells := 1.0
			empty := false
			for a := 0; a < ix.dims; a++ {
				ilo := math.Max(ix.lo[a*n+pos], q[a].Lo)
				ihi := math.Min(ix.hi[a*n+pos], q[a].Hi)
				if ilo > ihi {
					empty = true
					break
				}
				w := math.Round(ihi - ilo)
				if w < 0 {
					w = 0
				}
				cells *= w + 1
			}
			if empty {
				continue
			}
			s.cand = append(s.cand, candidate{ix.orig[pos], float64(ix.sizes[pos]) * cells / ix.vols[pos]})
		}
	}
	slices.SortFunc(s.cand, byOrig)
	est := 0.0
	for _, c := range s.cand {
		est += c.contrib
	}
	return est
}

// rangeLimit is blockLimit for a range query: the prune key is the
// query's upper corner.
func (ix *Index) rangeLimit(q attr.Box, s *Scratch) int {
	if ix.curve != sfc.ZOrder {
		return len(ix.bKeyLo)
	}
	if cap(s.corner) < ix.dims {
		s.corner = make([]float64, ix.dims) // anonylint:alloc-ok — one-time scratch warm-up; never reached on a warm Scratch
	}
	s.corner = s.corner[:ix.dims]
	for a := 0; a < ix.dims; a++ {
		s.corner[a] = q[a].Hi
	}
	return ix.blockLimit(s.corner, s)
}

func (ix *Index) blockContains(b, nb int, p []float64) bool {
	for a := 0; a < ix.dims; a++ {
		if p[a] < ix.bLo[a*nb+b] || p[a] > ix.bHi[a*nb+b] {
			return false
		}
	}
	return true
}

func (ix *Index) partContains(pos, n int, p []float64) bool {
	for a := 0; a < ix.dims; a++ {
		if p[a] < ix.lo[a*n+pos] || p[a] > ix.hi[a*n+pos] {
			return false
		}
	}
	return true
}

func (ix *Index) blockIntersects(b, nb int, q attr.Box) bool {
	for a := 0; a < ix.dims; a++ {
		if q[a].Hi < ix.bLo[a*nb+b] || ix.bHi[a*nb+b] < q[a].Lo {
			return false
		}
	}
	return true
}

func (ix *Index) partIntersects(pos, n int, q attr.Box) bool {
	for a := 0; a < ix.dims; a++ {
		if q[a].Hi < ix.lo[a*n+pos] || ix.hi[a*n+pos] < q[a].Lo {
			return false
		}
	}
	return true
}

// Partitions returns the indexed release (shared, read-only).
func (ix *Index) Partitions() []anonmodel.Partition { return ix.parts }

// Len returns the number of indexed partitions.
func (ix *Index) Len() int { return len(ix.keys) }

// Curve returns the ordering curve.
func (ix *Index) Curve() sfc.Curve { return ix.curve }

// NumBlocks returns the number of blocks.
func (ix *Index) NumBlocks() int { return len(ix.bKeyLo) }

// Quantizer returns the quantizer the keys were computed with (nil
// for an empty index) — the auditor recomputes keys through it.
func (ix *Index) Quantizer() *sfc.Quantizer { return ix.quant }

// Block returns block b's position range [start, end) and inclusive
// curve-key range.
func (ix *Index) Block(b int) (start, end int, keyLo, keyHi uint64) {
	return int(ix.start[b]), int(ix.start[b+1]), ix.bKeyLo[b], ix.bKeyHi[b]
}

// PosOrig returns the original partition index at curve position pos.
func (ix *Index) PosOrig(pos int) int { return int(ix.orig[pos]) }

// PosKey returns the curve key at position pos.
func (ix *Index) PosKey(pos int) uint64 { return ix.keys[pos] }

// PosSize returns the record count stored for position pos.
func (ix *Index) PosSize(pos int) int { return int(ix.sizes[pos]) }

// PosVol returns the estimator cell volume stored for position pos.
func (ix *Index) PosVol(pos int) float64 { return ix.vols[pos] }

// PosBox returns a copy of the bounds stored for position pos.
func (ix *Index) PosBox(pos int) attr.Box {
	n := len(ix.keys)
	out := attr.NewBox(ix.dims)
	for a := 0; a < ix.dims; a++ {
		out[a] = attr.Interval{Lo: ix.lo[a*n+pos], Hi: ix.hi[a*n+pos]}
	}
	return out
}

// BlockBox returns a copy of block b's summary MBR.
func (ix *Index) BlockBox(b int) attr.Box {
	nb := len(ix.bKeyLo)
	out := attr.NewBox(ix.dims)
	for a := 0; a < ix.dims; a++ {
		out[a] = attr.Interval{Lo: ix.bLo[a*nb+b], Hi: ix.bHi[a*nb+b]}
	}
	return out
}
