package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/serve"
	"spatialanon/internal/verify"
)

// ErrPartial marks a cross-shard read that could not cover every key
// range with a fresh, healthy view. Every *PartialError wraps it, so
// callers branch with errors.Is(err, ErrPartial).
var ErrPartial = errors.New("shard: partial result")

// PartialError names the key ranges a cross-shard read could not
// cover — degraded, recovering, or serving a view older than their
// acknowledged writes. Reads that can tolerate partial coverage (range
// counts) receive it alongside the partial answer; reads that cannot
// (joint releases) are withheld with it as the cause. Either way the
// degraded ranges are named: "which users am I not seeing" must never
// require guessing.
type PartialError struct {
	// Ranges lists the uncovered key ranges in shard order.
	Ranges []verify.KeyRange
	// Shards lists the matching shard indices.
	Shards []int
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("%v: %d of shard ranges unavailable: %v", ErrPartial, len(e.Ranges), e.Ranges)
}

// Unwrap ties the typed detail to the ErrPartial sentinel.
func (e *PartialError) Unwrap() error { return ErrPartial }

// shardView is one shard's frozen read state, captured at one instant.
type shardView struct {
	sh    *shardState
	view  *serve.View
	acked uint64
	state serve.State
}

func (v shardView) degraded() bool { return v.state != serve.StateHealthy }
func (v shardView) stale() bool    { return v.view.Seq() < v.acked }

// collect snapshots every shard's current view, breaker state and
// acked high-water, and reports the shards whose views are unusable
// for a covering read. The acked counter is loaded BEFORE the view so
// freshness errs toward stale: a view published between the two loads
// can only make Seq larger.
func (c *Coordinator) collect() ([]shardView, *PartialError) {
	views := make([]shardView, len(c.fleet))
	var bad *PartialError
	for i, sh := range c.fleet {
		acked := sh.acked.Load()
		views[i] = shardView{sh: sh, view: sh.srv.View(), acked: acked, state: sh.srv.State()}
		if views[i].degraded() || views[i].stale() {
			if bad == nil {
				bad = &PartialError{}
			}
			bad.Ranges = append(bad.Ranges, sh.rng)
			bad.Shards = append(bad.Shards, sh.id)
		}
	}
	if bad != nil {
		c.partials.Add(1)
	}
	return views, bad
}

// Count estimates the number of records inside q across the fleet. It
// sums each covered shard's epoch-cache estimate; when some shards
// are degraded or stale the sum of the healthy ranges is still
// returned, with a *PartialError naming what is missing — a partial
// count over named ranges is useful, a silently low count is a lie.
// A healthy shard holding fewer than base-k records contributes zero
// without error: the estimate is defined over released partitions, and
// a sub-k shard has none to release yet — exactly what a consumer of
// the joint product sees.
func (c *Coordinator) Count(q attr.Box) (float64, error) {
	if len(q) != c.dims {
		return 0, fmt.Errorf("shard: query box has %d dims, want %d", len(q), c.dims)
	}
	views, bad := c.collect()
	sum := 0.0
	for _, v := range views {
		if v.degraded() || v.stale() || v.view.Len() < c.baseK {
			continue
		}
		n, err := v.view.Count(q)
		if err != nil {
			return 0, fmt.Errorf("shard: shard %d %v: %w", v.sh.id, v.sh.rng, err)
		}
		sum += n
	}
	if bad != nil {
		return sum, bad
	}
	return sum, nil
}

// epochMemo is everything the coordinator has computed from one epoch
// vector: the joint release family and the Export cuts by granularity.
// Any shard publishing a new epoch starts a fresh one.
type epochMemo struct {
	epochs  []uint64
	family  *verify.Family
	exports map[int][]anonmodel.Partition
}

// memoAt returns the memo of the views' epoch vector, dropping the
// previous one when any shard has published since. Callers hold
// c.memoMu.
func (c *Coordinator) memoAt(views []shardView) *epochMemo {
	epochs := make([]uint64, len(views))
	for i, v := range views {
		epochs[i] = v.view.Epoch()
	}
	if c.memo == nil || !slices.Equal(c.memo.epochs, epochs) {
		c.memo = &epochMemo{epochs: epochs, exports: make(map[int][]anonmodel.Partition)}
	}
	return c.memo
}

// Release returns the audited joint release at granularity k1 (0 =
// base k) from the fleet's release family: the shards' base releases
// laid end to end, passed through verify.CrossShard (range tiling,
// per-record key containment, global uniqueness, per-view k-anonymity,
// freshness), then scanned and proven like a single store's leaves —
// so a coarser granularity merges seam-adjacent boundary groups like
// any other adjacent pair. A degraded or stale shard withholds the
// release with a *PartialError cause: a joint release is total or it
// is not a release. k1 is a granularity over the per-shard validated
// base k, rejected below it; anonylint:k-validated.
func (c *Coordinator) Release(k1 int) ([]anonmodel.Partition, error) {
	if k1 != 0 && k1 < c.baseK {
		return nil, fmt.Errorf("shard: granularity %d below base k %d", k1, c.baseK)
	}
	views, bad := c.collect()
	if bad != nil {
		return nil, fmt.Errorf("shard: joint release withheld: %w", bad)
	}
	fam, err := c.jointFamily(views)
	if err != nil {
		return nil, err
	}
	return fam.Release(k1)
}

// jointFamily returns the release family of the views' epoch vector,
// auditing the seams and building it on first use.
func (c *Coordinator) jointFamily(views []shardView) (*verify.Family, error) {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	m := c.memoAt(views)
	if m.family != nil {
		return m.family, nil
	}
	audit := make([]verify.ShardView, len(views))
	bases := make([]core.Tiling, len(views))
	for i, v := range views {
		// An empty shard releases nothing — vacuously k-anonymous — and
		// still covers its range in the audit. A shard holding 0 < n < k
		// records is genuinely unreleasable on its own and blocks the
		// joint concatenation (its error names it); Export remains
		// available there, because the global cut merges across seams.
		if v.view.Len() > 0 {
			fam, err := v.view.Family()
			if err != nil {
				return nil, fmt.Errorf("shard: shard %d %v: %w", v.sh.id, v.sh.rng, err)
			}
			bases[i] = fam.Base()
		}
		audit[i] = verify.ShardView{
			Range:    v.sh.rng,
			Parts:    bases[i].Partitions,
			Seq:      int64(v.view.Seq()),
			WantSeq:  int64(v.acked),
			Degraded: v.degraded(),
		}
	}
	if err := verify.CrossShard(audit, c.table, c.quant, routeCurve, c.baseK); err != nil {
		return nil, fmt.Errorf("shard: joint release withheld: %w", err)
	}
	fam, err := verify.NewFamily(core.Concat(bases...), c.baseK)
	if err != nil {
		return nil, fmt.Errorf("shard: joint release withheld: %w", err)
	}
	m.family = fam
	return fam, nil
}

// Export returns the canonical global cut at granularity k1 (0 = base
// k): every shard's records merged, sorted by (curve key, ID), and
// leaf-scanned one record per leaf — consecutive runs of at least k1
// records, a short last run merged back — into a release family of its
// own, proven like any other. The order comes from the coordinator's
// FIXED routing quantizer, so the output is a pure function of the
// record multiset and k1. That makes it byte-identical across shard
// counts and worker counts: the determinism anchor. Like Release it is
// withheld with a *PartialError cause unless every range has a fresh,
// healthy view. The k1 granularity is rejected below the validated
// base k; anonylint:k-validated.
func (c *Coordinator) Export(k1 int) ([]anonmodel.Partition, error) {
	if k1 == 0 {
		k1 = c.baseK
	}
	if k1 < c.baseK {
		return nil, fmt.Errorf("shard: granularity %d below base k %d", k1, c.baseK)
	}
	views, bad := c.collect()
	if bad != nil {
		return nil, fmt.Errorf("shard: export withheld: %w", bad)
	}
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	m := c.memoAt(views)
	if ps, ok := m.exports[k1]; ok {
		return ps, nil
	}
	n := 0
	for _, v := range views {
		n += v.view.Len()
	}
	if n < k1 {
		return nil, fmt.Errorf("shard: fleet holds %d records, below granularity %d", n, k1)
	}
	recs := make([]attr.Record, 0, n)
	for _, v := range views {
		recs = append(recs, v.view.Records()...)
	}
	keys := make([]uint64, len(recs))
	idx := make([]int, len(recs))
	var cell []uint32
	for i, r := range recs {
		keys[i], cell = c.quant.KeyInto(routeCurve, r.QI, cell)
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		if ka != kb {
			return ka < kb
		}
		return recs[idx[a]].ID < recs[idx[b]].ID
	})
	leaves := make([]anonmodel.Partition, len(recs))
	for i, j := range idx {
		leaves[i] = anonmodel.Partition{Box: attr.PointBox(recs[j].QI), Records: recs[j : j+1]}
	}
	fam, err := verify.NewFamily(core.Tiling{Partitions: leaves}, k1)
	if err != nil {
		return nil, fmt.Errorf("shard: export withheld: %w", err)
	}
	m.exports[k1] = fam.Base().Partitions
	return m.exports[k1], nil
}
