package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/query"
	"spatialanon/internal/routing"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

// View is one published epoch: an immutable, consistent snapshot of
// the store's state. The committer builds it around the tree's
// persistent snapshot — the snapshot itself, not a conversion of it —
// so the write path pays only for the snapshot nodes above the leaves
// the batch touched; the flat leaf list, the audited base release and
// every derived granularity are computed by the first reader that asks
// and kept for the view's lifetime. Nothing a View returns is written
// again, so any number of readers may use it beside ongoing mutation;
// returned partition slices are shared and MUST be treated as read-only
// (rplustree.Snapshot.Leaves' contract). Derived granularities are
// wider windows over the base release's record array, not copies.
//
//anonylint:published — stored to Server.cur (atomic.Pointer); immutable after Store
type View struct {
	epoch uint64
	seq   uint64
	baseK int
	n     int

	// snap is the tree's persistent snapshot: one born-compacted
	// partition per leaf, in trie order — the input of every derivation
	// below. An epoch nobody reads never flattens it.
	snap *rplustree.Snapshot

	// fam is the view's release family — the audited base release and
	// every derived granularity — built lazily by the first reader that
	// asks and kept for the view's lifetime.
	famOnce sync.Once
	fam     *verify.Family
	famErr  error

	mu    sync.Mutex
	accel map[int]*accelEntry

	// spare is the estimator session Count last finished with, so the
	// one-shot convenience path stays allocation-light; long-lived
	// readers should hold their own session from Estimator instead. One
	// slot in the view, not a sync.Pool: a pool is registered globally
	// until two collections pass, and it would keep every epoch that
	// served a Count — snapshot, family and accelerators — alive that
	// long, so the fewer collections the heap needs, the more dead
	// epochs it holds.
	spare atomic.Pointer[query.Estimator]
}

// accelEntry memoizes one granularity's routing accelerator, built
// and audited once per (epoch, k1).
//
//anonylint:published — reachable through a published View; writes only under once
type accelEntry struct {
	once sync.Once
	idx  *routing.Index
	err  error
}

// publish builds and installs the next epoch's View from the current
// tree state. Committer-only: it is the one place the live tree is
// read, and it runs serially with mutation. The write path pays
// O(batch × height) per publish (rplustree.Tree.Snapshot), not O(leaves).
func (s *Server) publish() {
	t := s.st.Tree()
	v := &View{
		epoch: s.epoch + 1,
		seq:   s.st.Seq(),
		baseK: s.baseK,
		n:     t.Len(),
		snap:  t.Snapshot(),
		accel: make(map[int]*accelEntry),
	}
	s.epoch = v.epoch
	s.cur.Store(v)
}

// Family returns the view's release family, built on first use: every
// release a reader can observe comes out of it, so it has passed the
// independent auditor — k-anonymity of the base scan, which for one
// release is also Lemma-1 k-boundness — before it is returned. The
// proof runs once per published epoch and its verdict is kept with
// the family.
// It errors while the store holds fewer than k records — no release
// exists below k.
func (v *View) Family() (*verify.Family, error) {
	v.famOnce.Do(func() {
		if v.n < v.baseK {
			v.famErr = fmt.Errorf("serve: store holds %d records, below base k %d", v.n, v.baseK)
			return
		}
		fam, err := verify.NewFamily(core.Tiling{Partitions: v.snap.Leaves()}, v.baseK)
		if err != nil {
			v.famErr = fmt.Errorf("serve: epoch %d: %w", v.epoch, err)
			return
		}
		v.fam = fam
	})
	return v.fam, v.famErr
}

// Epoch is the view's publication stamp; it increases by one per
// published view.
func (v *View) Epoch() uint64 { return v.epoch }

// Seq is the committed operation count folded into this view.
func (v *View) Seq() uint64 { return v.seq }

// Len is the number of live records in this view.
func (v *View) Len() int { return v.n }

// BaseK is the base anonymity parameter of the underlying store.
func (v *View) BaseK() int { return v.baseK }

// Base returns the audited base release (granularity k).
func (v *View) Base() ([]anonmodel.Partition, error) {
	return v.Release(0)
}

// Release returns the release at granularity k1 (0 = base k) from the
// view's release family, memoized for the view's lifetime: the first
// caller per granularity runs the leaf scan and the joint k-boundness
// audit, every later caller gets the same partitions in O(1). The k1
// parameter is a granularity, not a fresh anonymity parameter: the
// family rejects values below the store's validated base k;
// anonylint:k-validated.
func (v *View) Release(k1 int) ([]anonmodel.Partition, error) {
	fam, err := v.Family()
	if err != nil {
		return nil, err
	}
	return fam.Release(k1)
}

// Accel returns the routing accelerator over the release at
// granularity k1 (0 = base k), built lazily once per (epoch, k1) and
// audited by verify.Routing before any reader can observe it. The
// returned Index is immutable and shared; give each reader goroutine
// its own session (Counter / Estimator) or routing.Scratch.
func (v *View) Accel(k1 int) (*routing.Index, error) {
	ps, err := v.Release(k1)
	if err != nil {
		return nil, err
	}
	if k1 == v.baseK {
		k1 = 0
	}
	v.mu.Lock()
	e, ok := v.accel[k1]
	if !ok {
		e = &accelEntry{}
		v.accel[k1] = e // anonylint:pre-publish — v.mu-guarded install of a fresh entry; readers only ever see it through the same lock
	}
	v.mu.Unlock()
	e.once.Do(func() {
		idx, err := routing.Build(ps, routing.Options{})
		if err == nil {
			err = verify.Routing(idx, ps)
		}
		if err != nil {
			e.err = fmt.Errorf("serve: epoch %d accelerator at k1=%d: %w", v.epoch, k1, err)
			return
		}
		e.idx = idx
	})
	return e.idx, e.err
}

// Counter returns a fresh exact-count session (point and range) over
// the accelerated release at granularity k1. The session is owned by
// the caller — one per goroutine — and its warm queries allocate
// nothing.
func (v *View) Counter(k1 int) (*query.Counter, error) {
	idx, err := v.Accel(k1)
	if err != nil {
		return nil, err
	}
	return query.NewCounter(idx.Partitions(), idx), nil
}

// Estimator returns a fresh uniform-assumption estimate session over
// the accelerated release at granularity k1, with the same ownership
// and zero-alloc contract as Counter.
func (v *View) Estimator(k1 int) (*query.Estimator, error) {
	idx, err := v.Accel(k1)
	if err != nil {
		return nil, err
	}
	return query.NewEstimator(idx.Partitions(), idx), nil
}

// Records returns a fresh copy of the view's records in trie order
// (the order the leaf summary concatenates them). It does not go
// through the release family: a store below base k has none, and its
// records must still be exportable.
func (v *View) Records() []attr.Record {
	recs := make([]attr.Record, 0, v.n)
	for _, p := range v.snap.Leaves() {
		for i := range p.Size() {
			recs = append(recs, p.Record(i))
		}
	}
	return recs
}

// Count estimates the number of records in the query box from the
// anonymized base release under the uniformity assumption — the
// serving-path answer to a range count, computed without touching the
// live tree. It routes through the epoch's block-range accelerator
// (bit-identical to the linear query.EstimateUniform), borrowing the
// view's spare session; hot readers should hold their own Estimator.
func (v *View) Count(q attr.Box) (float64, error) {
	est := v.spare.Swap(nil)
	if est == nil {
		var err error
		est, err = v.Estimator(0)
		if err != nil {
			return 0, err
		}
	}
	out := est.Estimate(q)
	v.spare.Store(est)
	return out, nil
}
