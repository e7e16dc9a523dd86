// Package retry is the repository's one answer to "this storage
// operation failed; is trying again useful, and how many times?". The
// loader in internal/rplustree (page charges), the WAL writer (log
// writes) and recovery (checkpoint page reads) all retry through Do,
// under one budget. An fsync is never retried: a retried fsync can
// report success after the kernel dropped the dirty pages the failed
// one did not write, so its failure fails the operation instead.
//
// Only faults that self-identify as transient are retried: any error in
// the chain exposing `Transient() bool` (internal/fault's convention,
// matched structurally so this package stays dependency-free). Do never
// waits between tries: the faults this repository injects clear on the
// next call by construction.
package retry

import "errors"

// Budget is the total number of tries, the first included, that Do gives
// an operation failing with transient faults.
const Budget = 4

// Do runs op, trying again while it fails with a transient fault, up to
// Budget tries. It returns the number of tries made and the last error
// (nil on success).
func Do(op func() error) (tries int, err error) {
	for tries = 1; ; tries++ {
		err = op()
		if err == nil || tries == Budget || !IsTransient(err) {
			return tries, err
		}
	}
}

// IsTransient reports whether err identifies itself as retryable: any
// error in the chain exposing `Transient() bool` returning true — the
// one transient-class predicate; injected faults (fault.Error) opt in
// through the method, so nothing here imports the injector package.
func IsTransient(err error) bool {
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}
