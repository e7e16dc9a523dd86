//go:build !race

package rplustree

// raceBuild reports a build under the race detector (race_test.go).
const raceBuild = false
