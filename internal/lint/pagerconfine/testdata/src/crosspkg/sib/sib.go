// Package sib is the other package of the pagerconfine cross-package
// fixture: helpers that reach the pager on their caller's goroutine.
package sib

import "spatialanon/internal/pager"

// Touch reads a page.
func Touch(pg *pager.Pager, id pager.PageID) {
	_, _ = pg.Read(id)
}

// Relay only forwards — the chase must look through it.
func Relay(pg *pager.Pager, id pager.PageID) { Touch(pg, id) }

// Sum is pure.
func Sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
