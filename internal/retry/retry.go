// Package retry is the repository's single bounded-retry helper for
// transient storage faults. The loader in internal/rplustree, the WAL
// appender and the checkpoint write-back path all face the same
// question — "this operation failed; is trying again useful, and how
// many times?" — and answering it three different ways would mean
// three subtly different durability stories. One policy type answers
// it once.
//
// Retrying is only correct for faults that self-identify as transient:
// any error in the chain exposing `Transient() bool` participates (the
// convention established by internal/fault, duplicated structurally
// here so this package stays dependency-free). Permanent faults,
// checksum mismatches and crash errors are returned immediately.
//
// The policy never waits between tries: the transient faults this
// repository injects clear on the next call by construction.
package retry

import "errors"

// Policy bounds retries of one fallible operation.
type Policy struct {
	// Attempts is the total number of tries, including the first.
	// Values below 1 behave as 1 (a single try, no retry).
	Attempts int
}

// Do runs op, retrying while it fails with a transient fault, up to
// p.Attempts total tries. The last error is returned; nil on success.
func (p Policy) Do(op func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if attempt+1 >= attempts || !IsTransient(err) {
			return err
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
