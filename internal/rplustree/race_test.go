//go:build race

package rplustree

// raceBuild reports a build under the race detector, whose
// instrumentation makes the pager file's append-of-make growth allocate
// a real temporary, so exact byte pins differ.
const raceBuild = true
