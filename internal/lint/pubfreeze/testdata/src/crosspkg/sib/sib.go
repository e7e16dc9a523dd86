// Package sib is the other package of the pubfreeze cross-package
// fixture: it declares the published type.
package sib

// View is handed to readers with no synchronization once stored.
//
//anonylint:published
type View struct {
	N     int
	Items []int
}

// Draft is an ordinary type.
type Draft struct{ N int }
