// Package fixture exercises pubfreeze across a package boundary: a
// type is published because its declaration — here in the sibling
// package — says so, and a write to it is flagged wherever it is made.
package fixture

import "spatialanon/internal/lint/pubfreeze/testdata/src/crosspkg/sib"

// Mutate writes through a view someone else may have published.
func Mutate(v *sib.View, d *sib.Draft) {
	v.N = 1        // want `pubfreeze: write to field N of published View`
	v.Items[0] = 2 // want `pubfreeze: write to field Items of published View`
	d.N = 3
}

// Build fills in a view it constructed itself: not yet published.
func Build(items []int) *sib.View {
	v := &sib.View{}
	v.Items = items
	v.N = len(items)
	return v
}
