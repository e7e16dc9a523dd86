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

// Partition aliases the repository's release vocabulary, like serve.
type Partition = anonmodel.Partition

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

// relEntry memoizes one joint product against the epoch vector it was
// cut from: any shard publishing a new epoch invalidates it.
type relEntry struct {
	epochs []uint64
	ps     []Partition
}

// Release returns the audited joint release at granularity k1 (0 =
// base k): the concatenation of every shard's base release, passed
// through verify.CrossShard (range tiling, per-record key containment,
// global uniqueness, per-view k-anonymity, freshness), then coarsened
// to k1 by a leaf scan over the concatenation when k1 exceeds the base
// — which merges seam-adjacent boundary groups exactly like any other
// adjacent pair. A degraded or stale shard withholds the release with
// a *PartialError cause: a joint release is total or it is not a
// release. The k1 parameter is a granularity over the per-shard
// validated base k, rejected below it like serve.View.Release;
// anonylint:k-validated.
func (c *Coordinator) Release(k1 int) ([]Partition, error) {
	if k1 != 0 && k1 < c.baseK {
		return nil, fmt.Errorf("shard: granularity %d below base k %d", k1, c.baseK)
	}
	views, bad := c.collect()
	if bad != nil {
		return nil, fmt.Errorf("shard: joint release withheld: %w", bad)
	}
	epochs := make([]uint64, len(views))
	for i, v := range views {
		epochs[i] = v.view.Epoch()
	}
	c.relMu.Lock()
	if e, ok := c.relK1[k1]; ok && slices.Equal(e.epochs, epochs) {
		ps := e.ps
		c.relMu.Unlock()
		return ps, nil
	}
	c.relMu.Unlock()

	audit := make([]verify.ShardView, len(views))
	bases := make([]core.Tiling, len(views))
	for i, v := range views {
		// An empty shard releases nothing — vacuously k-anonymous — and
		// still covers its range in the audit. A shard holding 0 < n < k
		// records is genuinely unreleasable on its own and blocks the
		// joint concatenation (its error names it); Export remains
		// available there, because the global cut merges across seams.
		if v.view.Len() > 0 {
			var err error
			bases[i], err = v.view.BaseTiling()
			if err != nil {
				return nil, fmt.Errorf("shard: shard %d %v: %w", v.sh.id, v.sh.rng, err)
			}
		}
		audit[i] = verify.ShardView{
			Range:    v.sh.rng,
			Parts:    bases[i].Partitions,
			Seq:      int64(v.view.Seq()),
			WantSeq:  int64(v.acked),
			Degraded: v.degraded(),
		}
	}
	if err := verify.CrossShard(audit, c.table, c.quant, c.opts.Curve, c.baseK); err != nil {
		return nil, fmt.Errorf("shard: joint release withheld: %w", err)
	}
	joint := core.Concat(bases...)
	if k1 != 0 && k1 != c.baseK {
		coarse, err := joint.Scan(anonmodel.KAnonymity{K: k1}, c.opts.Serve.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("shard: joint release at k1=%d: %w", k1, err)
		}
		if err := verify.Releases([][]Partition{joint.Partitions, coarse.Partitions}, c.baseK); err != nil {
			return nil, fmt.Errorf("shard: joint release at k1=%d failed k-boundness audit: %w", k1, err)
		}
		joint = coarse
	}
	c.relMu.Lock()
	c.relK1[k1] = &relEntry{epochs: epochs, ps: joint.Partitions}
	c.relMu.Unlock()
	return joint.Partitions, nil
}

// Export returns the canonical global cut at granularity k1 (0 = base
// k): every shard's records merged, sorted by (curve key, ID), and cut
// into consecutive runs of at least k1 records, last run merged back
// if short — the same greedy discipline as sfc.Anonymize, but over the
// coordinator's FIXED routing quantizer, so the output is a pure
// function of the record multiset and (curve, bits, k1). That makes
// it byte-identical across shard counts and worker counts: the
// determinism anchor. Like Release it is withheld with a
// *PartialError cause unless every range has a fresh, healthy view.
// The k1 granularity is rejected below the validated base k;
// anonylint:k-validated.
func (c *Coordinator) Export(k1 int) ([]Partition, error) {
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
	epochs := make([]uint64, len(views))
	n := 0
	for i, v := range views {
		epochs[i] = v.view.Epoch()
		n += v.view.Len()
	}
	c.expMu.Lock()
	if e, ok := c.expK1[k1]; ok && slices.Equal(e.epochs, epochs) {
		ps := e.ps
		c.expMu.Unlock()
		return ps, nil
	}
	c.expMu.Unlock()

	constraint := anonmodel.KAnonymity{K: k1}
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
		keys[i], cell = c.quant.KeyInto(c.opts.Curve, r.QI, cell)
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		if ka != kb {
			return ka < kb
		}
		return recs[idx[a]].ID < recs[idx[b]].ID
	})
	var out []Partition
	start := 0
	for start < len(recs) {
		end := start
		var group []attr.Record
		for end < len(recs) && !constraint.Satisfied(group) {
			group = append(group, recs[idx[end]])
			end++
		}
		out = append(out, Partition{Records: group})
		start = end
	}
	if m := len(out); m > 1 && !constraint.Satisfied(out[m-1].Records) {
		out[m-2].Records = append(out[m-2].Records, out[m-1].Records...)
		out = out[:m-1]
	}
	for i := range out {
		box := attr.NewBox(c.dims)
		for _, r := range out[i].Records {
			box.Include(r.QI)
		}
		out[i].Box = box
	}
	if err := verify.Release(out, constraint); err != nil {
		return nil, fmt.Errorf("shard: export failed release audit: %w", err)
	}
	if err := verify.Releases([][]Partition{out}, k1); err != nil {
		return nil, fmt.Errorf("shard: export failed k-boundness audit: %w", err)
	}
	c.expMu.Lock()
	c.expK1[k1] = &relEntry{epochs: epochs, ps: out}
	c.expMu.Unlock()
	return out, nil
}
