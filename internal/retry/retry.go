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
// Backoff is deterministic: the delay for attempt i is a pure function
// of (Seed, i), drawn from an internal/detrng stream, so a replayed
// fault schedule produces byte-identical retry behaviour. The policy
// never reads a clock — delays are handed to an injectable Sleep hook,
// which defaults to nil (no waiting at all). That default is right for
// this repository's simulated storage, where a transient fault clears
// on the next call by construction; a deployment against real devices
// installs time.Sleep.
package retry

import (
	"errors"
	"time"

	"spatialanon/internal/detrng"
)

// Policy bounds and paces retries of one fallible operation.
type Policy struct {
	// Attempts is the total number of tries, including the first.
	// Values below 1 behave as 1 (a single try, no retry).
	Attempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it. Zero means no delay is ever requested.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Zero means uncapped.
	MaxDelay time.Duration
	// Seed selects the deterministic jitter stream. Jitter scales each
	// delay by a factor in [0.5, 1.0) so synchronized retriers spread
	// out; with BaseDelay zero the seed is unused.
	Seed int64
	// Sleep receives each backoff delay. Nil means delays are computed
	// but not waited for — correct for simulated storage and tests.
	Sleep func(time.Duration)
}

// Do runs op, retrying while it fails with a transient fault, up to
// p.Attempts total tries. The last error is returned; nil on success.
func (p Policy) Do(op func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var rng interface{ Float64() float64 }
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if attempt+1 >= attempts || !IsTransient(err) {
			return err
		}
		if d := p.delay(attempt, &rng); d > 0 && p.Sleep != nil {
			p.Sleep(d)
		}
	}
}

// delay computes the backoff after the given zero-based failed attempt.
// The rng is created lazily on first use so fault-free runs never touch
// the stream.
func (p Policy) delay(attempt int, rng *interface{ Float64() float64 }) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay << uint(attempt)
	if d <= 0 || (p.MaxDelay > 0 && d > p.MaxDelay) {
		d = p.MaxDelay
		if d <= 0 {
			d = p.BaseDelay
		}
	}
	if *rng == nil {
		*rng = detrng.New(p.Seed)
	}
	return time.Duration((0.5 + 0.5*(*rng).Float64()) * float64(d))
}

// Derive returns a copy of the policy whose jitter stream is a
// deterministic function of (p.Seed, shard) — the retry-side analogue
// of fault.DeriveSeed. When one policy fans out across shards, every
// shard must draw from its own stream: sharing one would make shard
// i's delays depend on how often shard j retried, and the whole point
// of jitter is that synchronized retriers decorrelate. The mix is
// splitmix64, duplicated structurally from internal/fault so this
// package stays dependency-free.
func (p Policy) Derive(shard int) Policy {
	z := uint64(p.Seed) + uint64(shard+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	p.Seed = int64(z ^ (z >> 31))
	return p
}

// IsTransient reports whether err identifies itself as retryable: any
// error in the chain exposing `Transient() bool` returning true — the
// one transient-class predicate; injected faults (fault.Error) opt in
// through the method, so nothing here imports the injector package.
func IsTransient(err error) bool {
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}
