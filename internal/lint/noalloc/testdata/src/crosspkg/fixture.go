// Package fixture exercises noalloc across a package boundary: what a
// zero-alloc body may call in another package is decided by the
// directive on the callee's declaration there, and by nothing else.
package fixture

import "spatialanon/internal/lint/noalloc/testdata/src/crosspkg/sib"

// Warm calls one marked and one unmarked function of the sibling.
//
//anonylint:zero-alloc
func Warm(xs []int) int {
	n := sib.Marked(xs)
	n += sib.Unmarked(xs) // want `noalloc: call to sib\.Unmarked, not vetted zero-alloc`
	return n
}
