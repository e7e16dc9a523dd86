// Cross-shard Lemma-1 seam audit. Sharding the serving layer by SFC
// key ranges introduces a failure mode none of the single-store
// auditors can see: each shard's release can be individually k-bound
// while the *joint* release — the concatenation a consumer actually
// receives — leaks, because a shard published records that belong to a
// sibling's range (mis-routed writes make shard attribution
// informative), because one record surfaced from two shards at once,
// or because a degraded shard quietly served a stale epoch so the
// joint view mixes generations. CrossShard re-derives the joint
// guarantee from raw structure, trusting neither the coordinator's
// routing nor any shard's own bookkeeping.
package verify

import (
	"errors"
	"fmt"
	"math"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/sfc"
)

// ErrShardDegraded marks a joint release rejected because one of its
// constituent shard views came from a degraded shard. The coordinator
// must withhold or re-cut such a release, never publish it.
var ErrShardDegraded = errors.New("verify: shard view is degraded")

// ErrShardStale marks a joint release rejected because one shard's
// view lags the writes that shard has acknowledged: colluding a stale
// view with its siblings' fresh views mixes epochs, and Lemma 1 only
// composes across views of one consistent cut.
var ErrShardStale = errors.New("verify: shard view is stale")

// KeyRange is one shard's contiguous, inclusive SFC key interval
// [Lo, Hi]. Inclusive bounds are deliberate: the full key domain tops
// out at ^uint64(0), which a half-open upper bound cannot express.
type KeyRange struct {
	Lo, Hi uint64
}

// String renders the range in hex, the form operators see in logs.
func (r KeyRange) String() string { return fmt.Sprintf("[%#x, %#x]", r.Lo, r.Hi) }

// Contains reports whether key falls inside the range.
func (r KeyRange) Contains(key uint64) bool { return key >= r.Lo && key <= r.Hi }

// ShardView is one shard's contribution to a joint release, paired
// with the metadata the seam audit needs to distrust it.
type ShardView struct {
	// Range is the SFC key interval this shard claims to own.
	Range KeyRange
	// Parts is the shard's released partition set.
	Parts []anonmodel.Partition
	// Seq is the store sequence number the view was cut at.
	Seq int64
	// WantSeq is the highest sequence the shard has acknowledged to
	// writers; Seq < WantSeq means the view predates acked writes.
	WantSeq int64
	// Degraded reports the shard's circuit breaker was open (degraded
	// or recovering) when the view was collected.
	Degraded bool
}

// CrossShard audits a joint release assembled from per-shard views
// against the full range table it was routed by (Lemma 1 across
// shards). It fails unless:
//
//   - table is non-empty and exactly tiles [0, quant.MaxKey()]:
//     contiguous, no gaps, no overlaps;
//   - the views cover every table range exactly once, so the joint
//     release is total — a missing or doubled range is a partial
//     result wearing a joint release's clothes;
//   - no view is degraded (ErrShardDegraded) or stale
//     (ErrShardStale);
//   - every view's partition set passes the Release audit under
//     k-anonymity on its own, so each seam-adjacent boundary group
//     holds at least k records;
//   - no record ID appears in two shards' views (the same ID index
//     that finds a record twice inside one view finds it across two);
//   - every record's curve key, recomputed through quant and curve,
//     lands inside its publishing shard's range — the seam rule that
//     makes shard attribution harmless: knowing which shard released
//     a record then reveals nothing beyond the record's own QI.
//
// The k parameter is rejected below 2 by the anonmodel.Validate call
// before any partition is inspected; anonylint:k-validated.
func CrossShard(views []ShardView, table []KeyRange, quant *sfc.Quantizer, curve sfc.Curve, k int) error {
	if quant == nil {
		return fmt.Errorf("verify: nil quantizer")
	}
	if err := auditRangeTable(table, quant.MaxKey()); err != nil {
		return err
	}
	// Views must cover the table exactly once each.
	covered := make(map[KeyRange]int, len(table))
	for vi, v := range views {
		pos := -1
		for ti, r := range table {
			if r == v.Range {
				pos = ti
				break
			}
		}
		if pos < 0 {
			return fmt.Errorf("verify: shard view %d claims range %v, not in the table", vi, v.Range)
		}
		if prev, dup := covered[v.Range]; dup {
			return fmt.Errorf("verify: shard views %d and %d both cover range %v", prev, vi, v.Range)
		}
		covered[v.Range] = vi
	}
	if len(covered) != len(table) {
		for _, r := range table {
			if _, ok := covered[r]; !ok {
				return fmt.Errorf("verify: no shard view covers range %v; joint release is partial", r)
			}
		}
	}
	// Health and freshness before structure: a degraded or stale view
	// poisons the joint release no matter how well-formed it looks.
	for vi, v := range views {
		if v.Degraded {
			return fmt.Errorf("%w: shard view %d (range %v)", ErrShardDegraded, vi, v.Range)
		}
		if v.Seq < v.WantSeq {
			return fmt.Errorf("%w: shard view %d (range %v) at seq %d, acked %d", ErrShardStale, vi, v.Range, v.Seq, v.WantSeq)
		}
	}
	var constraint anonmodel.Constraint = anonmodel.KAnonymity{K: k}
	if err := anonmodel.Validate(constraint); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	// One pass, one ID index for the whole joint release: each view's
	// Release audit, the cross-view uniqueness check and the seam rule
	// meet every record once.
	records := 0
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, v := range views {
		records += anonmodel.TotalRecords(v.Parts)
		lo, hi = idRange(v.Parts, lo, hi)
	}
	seen := newIDIndex(lo, hi, records)
	var cell []uint32
	for vi, v := range views {
		for pi, p := range v.Parts {
			if err := publish(&seen, pi, p, constraint); err != nil {
				if twice := (*twiceError)(nil); errors.As(err, &twice) {
					prev, first := firstPublisher(views, twice.id)
					if prev < vi {
						return fmt.Errorf("verify: record %d published by shard views %d and %d", twice.id, prev, vi)
					}
					err = twiceInRelease(twice.id, first, pi)
				}
				return fmt.Errorf("verify: shard view %d (range %v): %w", vi, v.Range, err)
			}
			for i := range p.Size() {
				r := p.Record(i)
				var key uint64
				key, cell = quant.KeyInto(curve, r.QI, cell)
				if !v.Range.Contains(key) {
					return fmt.Errorf("verify: record %d (key %#x) in partition %d of shard view %d escapes range %v", r.ID, key, pi, vi, v.Range)
				}
			}
		}
	}
	return nil
}

// firstPublisher returns the view and partition that hold the first
// record with the given ID in (view, partition, record) order, or -1, -1.
func firstPublisher(views []ShardView, id int64) (vi, pi int) {
	for vi, v := range views {
		if pi := firstHolder(v.Parts, id); pi >= 0 {
			return vi, pi
		}
	}
	return -1, -1
}

// auditRangeTable checks that table exactly tiles [0, maxKey]:
// ascending, contiguous, first Lo zero, last Hi maxKey.
func auditRangeTable(table []KeyRange, maxKey uint64) error {
	if len(table) == 0 {
		return fmt.Errorf("verify: empty shard range table")
	}
	if table[0].Lo != 0 {
		return fmt.Errorf("verify: range table starts at %#x, want 0", table[0].Lo)
	}
	for i, r := range table {
		if r.Hi < r.Lo {
			return fmt.Errorf("verify: range table entry %d inverted: %v", i, r)
		}
		if i > 0 && r.Lo != table[i-1].Hi+1 {
			return fmt.Errorf("verify: range table gap or overlap between %v and %v", table[i-1], r)
		}
	}
	if last := table[len(table)-1]; last.Hi != maxKey {
		return fmt.Errorf("verify: range table ends at %#x, key domain ends at %#x", last.Hi, maxKey)
	}
	return nil
}
