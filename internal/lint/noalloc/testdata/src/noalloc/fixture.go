// Package fixture exercises the noalloc analyzer: allocation-inducing
// operations inside anonylint:zero-alloc functions are flagged — make
// and new, growing appends, map writes, string conversions, boxing,
// closures, variadic and fmt calls — directly and through
// same-package call chains, while the sanctioned shapes pass:
// self-appends, vetted cross-package calls, alloc-ok lines, and
// anything in unmarked functions.
package fixture

import (
	"fmt"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

// Sum is a clean warm path: loops and arithmetic only.
//
//anonylint:zero-alloc
func Sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// Ops hits every direct allocation shape.
//
//anonylint:zero-alloc
func Ops(dst []byte, s string, m map[string]int, xs []int) []byte {
	buf := make([]byte, 8)           // want `noalloc: make in Ops`
	p := new(int)                    // want `noalloc: new in Ops`
	dst = append(dst, s...)          // self-append: reuses dst capacity
	buf = append(dst, 'x')           // want `noalloc: append outside the x = append\(x, …\) capacity-reuse form`
	m["k"] = *p                      // want `noalloc: map write`
	m["k"]++                         // want `noalloc: map write`
	_ = string(dst)                  // want `noalloc: string↔slice conversion`
	_ = []byte(s)                    // want `noalloc: string↔slice conversion`
	f := func() int { return len(xs) } // want `noalloc: function literal`
	_ = f
	return buf
}

// session mirrors the routing.Scratch pattern: a reusable buffer that
// grows once on the cold path.
type session struct {
	scratch []float64
}

// Warm is the Scratch warm-up pattern: the one-time growth is
// annotated, the steady state reuses capacity.
//
//anonylint:zero-alloc
func (s *session) Warm(n int) {
	if cap(s.scratch) < n {
		s.scratch = make([]float64, n) // anonylint:alloc-ok — one-time scratch growth on the cold path
	}
	s.scratch = s.scratch[:n]
	s.scratch = append(s.scratch[:0], 1)
}

// sink takes an interface; passing it a non-pointer boxes.
func sink(v any) { _ = v }

// join is variadic; calling it with unspread arguments allocates the
// argument slice.
func join(xs ...int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Calls hits the boxing, variadic, fmt and dynamic-call shapes.
//
//anonylint:zero-alloc
func Calls(n int, p *int, cb func() int) string {
	sink(n) // want `noalloc: interface boxing of int argument`
	sink(p) // pointer-shaped: fits the interface word
	_ = join(1, 2)          // want `noalloc: non-empty variadic call`
	_ = fmt.Sprint(n)       // want `noalloc: call to fmt\.Sprint`
	_ = cb()                // want `noalloc: call through a function value`
	return ""
}

// grow is an unmarked helper that allocates — legal on its own, but
// poison for any zero-alloc caller.
func grow(xs []int) []int {
	out := make([]int, 0, len(xs))
	return out
}

// forward only relays; the chase must look through it.
func forward(xs []int) []int {
	return grow(xs)
}

// Chain reaches grow's make two calls down.
//
//anonylint:zero-alloc
func Chain(xs []int) []int {
	return forward(xs) // want `noalloc: forward → grow → make`
}

// CrossPkg calls one vetted and one unvetted project function.
//
//anonylint:zero-alloc
func CrossPkg(p anonmodel.Partition, q attr.Box) float64 {
	if !p.Box.Intersects(q) { // vetted: marked zero-alloc in attr
		return 0
	}
	inter := p.Box.Intersect(q) // want `noalloc: call to attr\.Box\.Intersect, not vetted zero-alloc`
	_ = inter
	return float64(p.Size()) // vetted: Partition.Size
}

// Unmarked allocates freely: no contract, no findings.
func Unmarked(n int) []int {
	out := make([]int, n)
	out = append(out, n)
	return out
}
