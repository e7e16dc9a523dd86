// Package sfc implements space-filling-curve machinery: Z-order (bit
// interleaving) and Hilbert curve encodings of multidimensional points,
// plus the sort-based bulk anonymization they induce.
//
// Section 2.1 of the paper notes that several spatial-index bulk-loading
// techniques sort the input on a space-filling curve [12, 13, 14] and
// that the authors "experimented with such approaches" before finding
// buffer-tree loading better in high dimensions. This package provides
// those comparators: records are sorted by curve position and cut into
// consecutive groups of k..2k records, each published under its MBR.
// The experiment harness uses it as an ablation baseline against the
// buffer-tree R⁺-tree.
package sfc

import (
	"fmt"
	"sort"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

// Curve selects a space-filling curve.
type Curve int

const (
	// ZOrder interleaves coordinate bits (Morton order) [12].
	ZOrder Curve = iota
	// Hilbert follows the d-dimensional Hilbert curve [14], which has
	// better locality than Z-order (no long diagonal jumps).
	Hilbert
)

// String names the curve.
func (c Curve) String() string {
	switch c {
	case ZOrder:
		return "z-order"
	case Hilbert:
		return "hilbert"
	default:
		return fmt.Sprintf("Curve(%d)", int(c))
	}
}

// Quantizer maps float coordinates onto a uniform 2^bits grid per
// dimension so curve keys can be computed. Total key width is
// dims*bits, which must fit 64 bits.
type Quantizer struct {
	domain attr.Box
	bits   int
}

// NewQuantizer builds a quantizer over the given domain. bits <= 0
// selects the widest grid that still fits a 64-bit key.
func NewQuantizer(domain attr.Box, bits int) (*Quantizer, error) {
	dims := len(domain)
	if dims == 0 {
		return nil, fmt.Errorf("sfc: empty domain")
	}
	if bits <= 0 {
		bits = 64 / dims
		if bits == 0 {
			bits = 1
		}
		if bits > 16 {
			bits = 16
		}
	}
	if bits*dims > 64 {
		return nil, fmt.Errorf("sfc: %d dims x %d bits exceeds 64-bit keys", dims, bits)
	}
	return &Quantizer{domain: domain.Clone(), bits: bits}, nil
}

// KeyBits returns the total key width in bits (dims × bits), at most
// 64 by construction.
func (q *Quantizer) KeyBits() int { return q.bits * len(q.domain) }

// MaxKey returns the largest curve key this quantizer can produce:
// every key lies in [0, MaxKey]. Shard range tables tile exactly this
// interval.
func (q *Quantizer) MaxKey() uint64 {
	kb := q.KeyBits()
	if kb >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << kb) - 1
}

// AppendCell maps a point to grid coordinates, clamping to the domain,
// and appends them to dst: with a reused dst of sufficient capacity it
// allocates nothing, which the hot read paths rely on.
//
//anonylint:zero-alloc
func (q *Quantizer) AppendCell(dst []uint32, p []float64) []uint32 {
	max := float64(uint64(1)<<q.bits) - 1
	for i, iv := range q.domain {
		w := iv.Width()
		if w <= 0 {
			dst = append(dst, 0)
			continue
		}
		f := (p[i] - iv.Lo) / w
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		dst = append(dst, uint32(f*max))
	}
	return dst
}

// Key returns the curve position of a point.
//
//anonylint:zero-alloc
func (q *Quantizer) Key(c Curve, p []float64) uint64 {
	// dims*bits <= 64 with bits >= 1 bounds dims at 64, so one stack
	// cell buffer covers every legal quantizer and Key allocates
	// nothing.
	var buf [64]uint32
	key, _ := q.KeyInto(c, p, buf[:0])
	return key
}

// KeyInto is Key with caller-owned scratch: the cell is quantized into
// buf (reusing its capacity; contents are overwritten) and the curve
// position is returned along with the scratch for the next call. Once
// buf has capacity for one cell per dimension, KeyInto allocates
// nothing — the contract the per-query read path is pinned to.
//
//anonylint:zero-alloc
func (q *Quantizer) KeyInto(c Curve, p []float64, buf []uint32) (uint64, []uint32) {
	buf = q.AppendCell(buf[:0], p)
	if c == Hilbert {
		axesToTranspose(buf, q.bits)
	}
	return ZOrderKey(buf, q.bits), buf
}

// ZOrderKey interleaves the low `bits` bits of each coordinate, highest
// bit first, dimension 0 most significant within each round.
//
//anonylint:zero-alloc
func ZOrderKey(cell []uint32, bits int) uint64 {
	var key uint64
	for b := bits - 1; b >= 0; b-- {
		for _, c := range cell {
			key = key<<1 | uint64((c>>b)&1)
		}
	}
	return key
}

// HilbertKey returns the position of a grid cell along the d-dimensional
// Hilbert curve of order `bits`, using Skilling's transpose algorithm
// (AIP Conf. Proc. 707, 2004): the axes are converted in place to the
// "transposed" Hilbert representation and then bit-interleaved.
func HilbertKey(cell []uint32, bits int) uint64 {
	x := make([]uint32, len(cell))
	copy(x, cell)
	axesToTranspose(x, bits)
	return ZOrderKey(x, bits)
}

// HilbertCell inverts HilbertKey: it returns the grid cell at the given
// curve position. Exported for tests and for workload tooling.
func HilbertCell(key uint64, dims, bits int) []uint32 {
	x := deinterleave(key, dims, bits)
	transposeToAxes(x, bits)
	return x
}

// deinterleave splits a Z-order key back into coordinates.
func deinterleave(key uint64, dims, bits int) []uint32 {
	x := make([]uint32, dims)
	for b := 0; b < bits; b++ {
		for d := dims - 1; d >= 0; d-- {
			x[d] |= uint32(key&1) << b
			key >>= 1
		}
	}
	return x
}

// axesToTranspose converts coordinates to the transposed Hilbert form in
// place (Skilling 2004, public domain).
func axesToTranspose(x []uint32, bits int) {
	n := len(x)
	if n == 0 || bits <= 0 {
		return
	}
	m := uint32(1) << (bits - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose in place.
func transposeToAxes(x []uint32, bits int) {
	n := len(x)
	if n == 0 || bits <= 0 {
		return
	}
	m := uint32(2) << (bits - 1)
	// Gray decode.
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				tt := (x[0] ^ x[i]) & p
				x[0] ^= tt
				x[i] ^= tt
			}
		}
	}
}

// Anonymize sorts records along the curve and cuts the order into
// consecutive groups of at least constraint.MinSize() records (at most
// 2·MinSize-1, except possibly the last group which absorbs the
// remainder), publishing each group under its MBR. This is the
// sort-based bulk anonymization the paper compares the buffer tree
// against. The input slice is reordered in place.
func Anonymize(recs []attr.Record, c Curve, constraint anonmodel.Constraint) ([]anonmodel.Partition, error) {
	if err := anonmodel.Validate(constraint); err != nil {
		return nil, fmt.Errorf("sfc: %w", err)
	}
	if len(recs) == 0 {
		return nil, nil
	}
	if !constraint.Satisfied(recs) {
		return nil, fmt.Errorf("sfc: input of %d records cannot satisfy %v", len(recs), constraint)
	}
	dims := len(recs[0].QI)
	for i, r := range recs {
		if len(r.QI) != dims {
			return nil, fmt.Errorf("sfc: record %d has %d attributes, record 0 has %d", i, len(r.QI), dims)
		}
	}
	domain := attr.DomainOf(dims, recs)
	q, err := NewQuantizer(domain, 0)
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, len(recs))
	idx := make([]int, len(recs))
	var cell []uint32
	for i, r := range recs {
		keys[i], cell = q.KeyInto(c, r.QI, cell)
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })

	var groups [][]attr.Record
	start := 0
	for start < len(recs) {
		end := start
		var group []attr.Record
		for end < len(recs) && !constraint.Satisfied(group) {
			group = append(group, recs[idx[end]])
			end++
		}
		groups = append(groups, group)
		start = end
	}
	// Only the last group can be unsatisfying (it ran out of records);
	// merge it into its predecessor, mirroring step LS4 of the paper's
	// leaf-scan algorithm.
	if n := len(groups); n > 1 && !constraint.Satisfied(groups[n-1]) {
		groups[n-2] = append(groups[n-2], groups[n-1]...)
		groups = groups[:n-1]
	}
	out := make([]anonmodel.Partition, len(groups))
	for i, group := range groups {
		out[i] = anonmodel.Partition{Box: attr.DomainOf(dims, group), Records: group}
	}
	return out, nil
}
