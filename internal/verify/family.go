package verify

import (
	"fmt"
	"sync"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/core"
)

// Family is a release family: one base release, scanned once from leaf
// partitions and proven k-anonymous and k-bound, plus every coarser
// granularity derived from it. It is the one place a release is
// proven — the store, the serving view and the shard coordinator hand
// out only what a Family returns — so holding a *Family is holding the
// proof. Its scans use every core; their output is the same at any
// core count. Safe for concurrent use; everything returned is shared
// and read-only.
//
//anonylint:published — reachable through a published serve.View; writes only under mu or once
type Family struct {
	k    int
	base core.Tiling

	mu      sync.Mutex
	derived map[int]*derivation
}

// derivation memoizes one granularity: installed under Family.mu,
// computed under its own once, so readers of a cold k1 share one scan
// without serializing readers of other granularities.
//
//anonylint:published — reachable through a published Family; writes only under once
type derivation struct {
	once sync.Once
	ps   []anonmodel.Partition
	err  error
}

// NewFamily scans leaves — index leaves or, for a fleet, the shards'
// base partitions laid end to end — into the base release at
// granularity k and audits it with Release under k-anonymity: every
// record inside its box, no partition below k, no ID twice. That is
// also Lemma 1 for a one-release family, whose cells are its
// partitions. k is the store's validated base k (rplustree.Config
// rejects k < 2); anonylint:k-validated.
func NewFamily(leaves core.Tiling, k int) (*Family, error) {
	constraint := anonmodel.KAnonymity{K: k}
	base, err := leaves.Scan(constraint)
	if err != nil {
		return nil, fmt.Errorf("verify: base release: %w", err)
	}
	if err := Release(base.Partitions, constraint); err != nil {
		return nil, fmt.Errorf("verify: base release failed audit: %w", err)
	}
	return &Family{k: k, base: base, derived: make(map[int]*derivation)}, nil
}

// Base returns the audited base release with the record arrays its
// partitions are windows of, for callers that scan it further (a
// fleet's joint family) and should not copy it to do so.
func (f *Family) Base() core.Tiling { return f.base }

// Release returns the release at granularity k1 (0 = base k): windows
// over the base release's records, audited jointly with the base for
// k-boundness (Lemma 1), memoized per k1. k1 is a granularity, not a
// fresh anonymity parameter: values below the base k are rejected.
func (f *Family) Release(k1 int) ([]anonmodel.Partition, error) {
	if k1 == 0 || k1 == f.k {
		return f.base.Partitions, nil
	}
	if k1 < f.k {
		return nil, fmt.Errorf("verify: granularity %d below base k %d", k1, f.k)
	}
	f.mu.Lock()
	d, ok := f.derived[k1]
	if !ok {
		d = &derivation{}
		f.derived[k1] = d // anonylint:pre-publish — mu-guarded install of a fresh entry; readers only ever see it through the same lock
	}
	f.mu.Unlock()
	d.once.Do(func() {
		coarse, err := f.base.Scan(anonmodel.KAnonymity{K: k1})
		if err == nil {
			err = Releases([][]anonmodel.Partition{f.base.Partitions, coarse.Partitions}, f.k)
		}
		if err != nil {
			d.err = fmt.Errorf("verify: release at k1=%d: %w", k1, err)
			return
		}
		d.ps = coarse.Partitions
	})
	return d.ps, d.err
}
