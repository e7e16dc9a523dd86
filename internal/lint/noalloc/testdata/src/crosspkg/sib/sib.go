// Package sib is the other package of the noalloc cross-package
// fixture: one function that carries the zero-alloc directive, and one
// that does not (and would pass if anyone looked inside it).
package sib

// Marked is checked where it is declared, so callers may rely on it.
//
//anonylint:zero-alloc
func Marked(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Unmarked promises nothing.
func Unmarked(xs []int) int { return len(xs) }
