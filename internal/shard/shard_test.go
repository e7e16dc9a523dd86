package shard

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/detrng"
	"spatialanon/internal/fault"
	"spatialanon/internal/retry"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/serve"
	"spatialanon/internal/verify"
	"spatialanon/internal/wal"
)

const testK = 4

// testDomain is the fixed routing domain matching makeRecords' QI
// draw: every dimension in [0, 100).
func testDomain(dims int) attr.Box {
	b := attr.NewBox(dims)
	for i := range b {
		b[i] = attr.Interval{Lo: 0, Hi: 100}
	}
	return b
}

func makeRecords(t testing.TB, n int, seed int64) []attr.Record {
	t.Helper()
	rng := detrng.New(seed)
	dims := dataset.LandsEndSchema().Dims()
	recs := make([]attr.Record, n)
	for i := range recs {
		qi := make([]float64, dims)
		for d := range qi {
			qi[d] = rng.Float64() * 100
		}
		recs[i] = attr.Record{ID: int64(i + 1), QI: qi, Sensitive: fmt.Sprintf("s%d", i)}
	}
	return recs
}

// testOptions is the baseline coordinator configuration the tests
// perturb.
func testOptions(t testing.TB, shards int) Options {
	t.Helper()
	schema := dataset.LandsEndSchema()
	return Options{
		Dir:    t.TempDir(),
		Shards: shards,
		Domain: testDomain(schema.Dims()),
		Tree:   rplustree.Config{Schema: schema, BaseK: testK},
		NoSync: true,
	}
}

func newCoordinator(t testing.TB, opts Options) *Coordinator {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestTableTiling: range tables must exactly tile [0, maxKey] for
// every shard count, including the full 64-bit domain where the key
// COUNT overflows uint64.
func TestTableTiling(t *testing.T) {
	maxKeys := []uint64{0, 1, 5, 1<<16 - 1, 1<<32 - 1, ^uint64(0), ^uint64(0) - 3}
	for _, maxKey := range maxKeys {
		for _, n := range []int{1, 2, 3, 4, 7, 16} {
			table, err := NewTable(maxKey, n)
			// The domain holds maxKey+1 keys; more shards than keys must
			// be rejected (maxKey < n-1 avoids computing the overflowable
			// count).
			if maxKey < uint64(n)-1 {
				if err == nil {
					t.Fatalf("maxKey=%d n=%d: no error for empty ranges", maxKey, n)
				}
				continue
			}
			if err != nil {
				t.Fatalf("maxKey=%d n=%d: %v", maxKey, n, err)
			}
			if len(table) != n {
				t.Fatalf("maxKey=%d n=%d: %d ranges", maxKey, n, len(table))
			}
			if table[0].Lo != 0 {
				t.Fatalf("maxKey=%d n=%d: first Lo %d", maxKey, n, table[0].Lo)
			}
			if table[n-1].Hi != maxKey {
				t.Fatalf("maxKey=%d n=%d: last Hi %#x, want %#x", maxKey, n, table[n-1].Hi, maxKey)
			}
			var sizeLo, sizeHi uint64
			for i, r := range table {
				if r.Hi < r.Lo {
					t.Fatalf("maxKey=%d n=%d: inverted range %v", maxKey, n, r)
				}
				if i > 0 && r.Lo != table[i-1].Hi+1 {
					t.Fatalf("maxKey=%d n=%d: gap/overlap between %v and %v", maxKey, n, table[i-1], r)
				}
				size := r.Hi - r.Lo // size+1 keys; compare without +1 to dodge overflow
				if i == 0 {
					sizeLo, sizeHi = size, size
				}
				if size < sizeLo {
					sizeLo = size
				}
				if size > sizeHi {
					sizeHi = size
				}
			}
			if sizeHi-sizeLo > 1 {
				t.Fatalf("maxKey=%d n=%d: range sizes differ by more than one key", maxKey, n)
			}
			// Spot keys land in exactly one range, and lookup agrees.
			for _, key := range []uint64{0, maxKey, maxKey / 2, maxKey / 3} {
				owners := 0
				want := -1
				for i, r := range table {
					if r.Contains(key) {
						owners++
						want = i
					}
				}
				if owners != 1 {
					t.Fatalf("maxKey=%d n=%d key=%#x: %d owners", maxKey, n, key, owners)
				}
				if got := lookup(table, key); got != want {
					t.Fatalf("maxKey=%d n=%d key=%#x: lookup %d, scan %d", maxKey, n, key, got, want)
				}
			}
		}
	}
	if _, err := NewTable(2, 4); err == nil {
		t.Fatal("4 shards over 3 keys: no error")
	}
	if _, err := NewTable(10, 0); err == nil {
		t.Fatal("0 shards: no error")
	}
}

// TestRoutedMutationsAndJointRelease: the bread-and-butter path —
// records land on the shard owning their key, cross-shard updates
// move them, and the joint release passes the cross-shard audit while
// covering exactly the live set.
func TestRoutedMutationsAndJointRelease(t *testing.T) {
	c := newCoordinator(t, testOptions(t, 3))
	recs := makeRecords(t, 90, 11)
	for _, r := range recs {
		if err := c.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", r.ID, err)
		}
	}
	// Every record sits on the shard its key routes to.
	total := 0
	for _, sh := range c.fleet {
		for _, l := range sh.st.Tree().Leaves() {
			for i := range l.Size() {
				r := l.Record(i)
				if got := c.route(r.QI); got != sh.id {
					t.Fatalf("record %d on shard %d, routes to %d", r.ID, sh.id, got)
				}
				total++
			}
		}
	}
	if total != len(recs) {
		t.Fatalf("fleet holds %d records, inserted %d", total, len(recs))
	}

	joint, err := c.Release(0)
	if err != nil {
		t.Fatalf("joint release: %v", err)
	}
	ids := make(map[int64]bool)
	for _, p := range joint {
		for i := range p.Size() {
			ids[p.Record(i).ID] = true
		}
	}
	if len(ids) != len(recs) {
		t.Fatalf("joint release covers %d records, want %d", len(ids), len(recs))
	}
	// Coarser joint granularity stays k-bound against the base, and is
	// cut from the shards' own record arrays: its first group is a
	// wider window starting where the joint base release starts.
	coarse, err := c.Release(3 * testK)
	if err != nil {
		t.Fatalf("joint release at 3k: %v", err)
	}
	// Reads the Records field: zero-copy sharing is pinned by slice identity.
	if &coarse[0].Records[0] != &joint[0].Records[0] {
		t.Fatal("coarser joint release copied the shards' records")
	}
	if _, err := c.Release(testK - 1); err == nil {
		t.Fatal("granularity below base k accepted")
	}

	// Cross-shard update: move a record to the far corner of the
	// domain (guaranteed different shard for 3 ranges).
	mover := recs[0]
	dest := make([]float64, len(mover.QI))
	for d := range dest {
		dest[d] = 99.9
	}
	if c.route(mover.QI) == c.route(dest) {
		t.Fatalf("test wants a cross-shard move; pick a different dest")
	}
	moved := mover
	moved.QI = dest
	found, err := c.Update(mover.ID, mover.QI, moved)
	if err != nil || !found {
		t.Fatalf("cross-shard update: found=%v err=%v", found, err)
	}
	if got := c.fleet[c.route(dest)]; !chaosIDs(got.st)[mover.ID] {
		t.Fatal("moved record not on destination shard")
	}
	if got := c.fleet[c.route(mover.QI)]; chaosIDs(got.st)[mover.ID] {
		t.Fatal("moved record still on source shard")
	}
	// Updating a missing record reports false and inserts nothing.
	found, err = c.Update(9999, mover.QI, moved)
	if err != nil || found {
		t.Fatalf("update of missing record: found=%v err=%v", found, err)
	}
	// Delete through the coordinator.
	found, err = c.Delete(moved.ID, moved.QI)
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}

	// Count sums the shards (uniform estimate; whole-domain box must
	// see everything).
	n, err := c.Count(testDomain(c.dims))
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if int(n+0.5) != len(recs)-1 {
		t.Fatalf("whole-domain count %.1f, want %d", n, len(recs)-1)
	}
}

// TestJointFamilySharesArraysUntilAWrite: on a quiescent fleet every
// granularity comes out of ONE release family per epoch vector — the
// groups that do not straddle a shard seam are windows of the shards'
// own record arrays, whatever the granularity — and any single
// acknowledged write starts a fresh family for all of them.
func TestJointFamilySharesArraysUntilAWrite(t *testing.T) {
	const shards = 3
	opts := testOptions(t, shards)
	opts.Preload = makeRecords(t, 900, 23)
	c := newCoordinator(t, opts)

	ks := []int{0, 25, 50}
	release := func() [][]anonmodel.Partition {
		t.Helper()
		out := make([][]anonmodel.Partition, len(ks))
		for i, k1 := range ks {
			ps, err := c.Release(k1)
			if err != nil {
				t.Fatalf("Release(%d): %v", k1, err)
			}
			out[i] = ps
		}
		return out
	}
	first := release()

	// Where each shard's own base release starts a partition.
	starts := make(map[*attr.Record]bool)
	for _, sh := range c.fleet {
		base, err := sh.srv.View().Base()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range base {
			// Reads the Records field: zero-copy sharing is pinned by slice identity.
			starts[&p.Records[0]] = true
		}
	}
	for i, ps := range first {
		copied := 0
		for _, p := range ps {
			if !starts[&p.Records[0]] {
				copied++
			}
		}
		if copied > shards-1 {
			t.Fatalf("Release(%d): %d of %d groups are not windows of a shard's array; only the %d seam groups may be copied",
				ks[i], copied, len(ps), shards-1)
		}
		if &ps[0].Records[0] != &first[0][0].Records[0] {
			t.Fatalf("Release(%d) does not start in the array Release(0) starts in", ks[i])
		}
	}
	for i, ps := range release() {
		if &ps[0] != &first[i][0] {
			t.Fatalf("Release(%d) recomputed at an unchanged epoch vector", ks[i])
		}
	}

	extra := makeRecords(t, 901, 23)[900]
	if err := c.Insert(extra); err != nil {
		t.Fatal(err)
	}
	for i, ps := range release() {
		if &ps[0] == &first[i][0] {
			t.Fatalf("Release(%d) served from before an acknowledged write", ks[i])
		}
		if n := anonmodel.TotalRecords(ps); n != 901 {
			t.Fatalf("Release(%d) after the write covers %d records, want 901", ks[i], n)
		}
	}
}

// TestShardFailureIsolation: poisoning one shard's device degrades
// exactly that key range — typed errors with the full sentinel chain
// for its writes, partial counts naming its range, withheld joint
// releases — while sibling shards accept writes and serve reads
// throughout. Recovery of the victim restores joint products. This is
// also the error-taxonomy regression test: every errors.Is chain must
// survive the coordinator boundary.
func TestShardFailureIsolation(t *testing.T) {
	const victim = 1
	opts := testOptions(t, 3)
	// One guaranteed permanent device fault on the victim, budget 1, so
	// the shard degrades deterministically and recovery then succeeds.
	opts.Faults = func(shard int, o *wal.Options) {
		if shard == victim {
			o.AppendFault = fault.NewInjector(7, fault.Config{PermanentWriteRate: 1, After: 2, MaxFaults: 1}).Log
		}
	}
	c := newCoordinator(t, opts)

	recs := makeRecords(t, 200, 23)
	var acked []attr.Record
	var victimErr error
	for _, r := range recs {
		err := c.Insert(r)
		if err == nil {
			acked = append(acked, r)
			continue
		}
		if c.route(r.QI) != victim {
			t.Fatalf("healthy shard %d rejected insert: %v", c.route(r.QI), err)
		}
		victimErr = err
		break
	}
	if victimErr == nil {
		t.Fatal("victim fault never fired")
	}
	// Satellite: the taxonomy chain crosses the coordinator boundary
	// intact — degraded sentinel, poison cause, all errors.Is-visible.
	if !errors.Is(victimErr, serve.ErrDegraded) {
		t.Fatalf("victim error lost serve.ErrDegraded: %v", victimErr)
	}
	if !errors.Is(victimErr, wal.ErrPoisoned) {
		t.Fatalf("victim error lost wal.ErrPoisoned: %v", victimErr)
	}

	// Victim range: further writes fail fast with the same chain.
	if err := c.Insert(recs[len(acked)]); !errors.Is(err, serve.ErrDegraded) {
		t.Fatalf("write to degraded range: %v, want ErrDegraded", err)
	}
	// Sibling ranges: writes keep landing while the victim is down.
	siblingOK := 0
	for _, r := range recs[len(acked)+1:] {
		if c.route(r.QI) == victim {
			continue
		}
		if err := c.Insert(r); err != nil {
			t.Fatalf("sibling insert during degradation: %v", err)
		}
		acked = append(acked, r)
		if siblingOK++; siblingOK == 10 {
			break
		}
	}
	if siblingOK == 0 {
		t.Fatal("workload never hit a sibling shard")
	}

	// Health names the victim.
	for _, h := range c.Health() {
		if h.ID == victim {
			if h.State != serve.StateDegraded || h.Err == nil {
				t.Fatalf("victim health %+v, want degraded with cause", h)
			}
		} else if h.State != serve.StateHealthy {
			t.Fatalf("sibling %d health %v, want healthy", h.ID, h.State)
		}
	}

	// Cross-shard reads: partial count naming exactly the victim
	// range; joint release and export withheld with the same cause.
	_, err := c.Count(testDomain(c.dims))
	var pe *PartialError
	if !errors.As(err, &pe) || !errors.Is(err, ErrPartial) {
		t.Fatalf("count during degradation: %v, want *PartialError", err)
	}
	if len(pe.Shards) != 1 || pe.Shards[0] != victim || pe.Ranges[0] != c.table[victim] {
		t.Fatalf("partial error names %v/%v, want victim %d %v", pe.Shards, pe.Ranges, victim, c.table[victim])
	}
	if _, err := c.Release(0); !errors.Is(err, ErrPartial) {
		t.Fatalf("joint release during degradation: %v, want ErrPartial", err)
	}
	if _, err := c.Export(0); !errors.Is(err, ErrPartial) {
		t.Fatalf("export during degradation: %v, want ErrPartial", err)
	}

	// Recover the victim only; the fault budget is spent, so it lands.
	if err := c.Recover(victim); err != nil {
		t.Fatalf("recover victim: %v", err)
	}
	if got := c.fleet[victim].srv.State(); got != serve.StateHealthy {
		t.Fatalf("victim state %v after recover", got)
	}
	// Refill the victim range past base k — a recovered shard holding
	// fewer than k records cannot contribute a release of its own —
	// then the joint products are back.
	victimOK := 0
	for _, r := range makeRecords(t, 400, 99)[200:] {
		if c.route(r.QI) != victim {
			continue
		}
		if err := c.Insert(r); err != nil {
			t.Fatalf("victim insert after recovery: %v", err)
		}
		acked = append(acked, r)
		if victimOK++; victimOK == 2*testK {
			break
		}
	}
	if victimOK < testK {
		t.Fatalf("could not refill victim range (%d inserts)", victimOK)
	}
	joint, err := c.Release(0)
	if err != nil {
		t.Fatalf("joint release after recovery: %v", err)
	}
	got := make(map[int64]bool)
	for _, p := range joint {
		for i := range p.Size() {
			got[p.Record(i).ID] = true
		}
	}
	for _, r := range acked {
		if !got[r.ID] {
			t.Fatalf("acknowledged record %d missing from post-recovery joint release", r.ID)
		}
	}
	if len(got) != len(acked) {
		t.Fatalf("joint release has %d records, %d acked", len(got), len(acked))
	}
	if _, partials, _ := c.Stats(); partials == 0 {
		t.Fatal("partial counter never incremented")
	}
}

// TestTransientFaultChainSurvivesBoundary: a transient device error
// that exhausts every retry layer still identifies itself as
// transient (retry.IsTransient) through the coordinator's wrapping.
func TestTransientFaultChainSurvivesBoundary(t *testing.T) {
	opts := testOptions(t, 2)
	// All transient sync faults, unlimited budget, and an fsync is never
	// retried: the first insert must surface a transient error end to end.
	opts.Faults = func(shard int, o *wal.Options) {
		o.AppendFault = fault.NewInjector(int64(3+shard), fault.Config{TransientSyncRate: 1, After: 2}).Log
	}
	c := newCoordinator(t, opts)
	rec := makeRecords(t, 1, 5)[0]
	err := c.Insert(rec)
	if err == nil {
		t.Fatal("insert succeeded under a 100% sync-fault schedule")
	}
	if !retry.IsTransient(err) {
		t.Fatalf("transient fault lost its kind across the boundary: %v", err)
	}
	if errors.Is(err, serve.ErrDegraded) {
		t.Fatalf("transient fault degraded the shard: %v", err)
	}
}

// TestCoordinatorRetryAbsorbsTransients: with a bounded transient write
// budget, each shard's log writer — the one retry owner — absorbs every
// fault: every mutation is acknowledged without the caller seeing a
// fault, and the fleet-wide retry counter shows the writers did the work.
func TestCoordinatorRetryAbsorbsTransients(t *testing.T) {
	opts := testOptions(t, 2)
	opts.Faults = func(shard int, o *wal.Options) {
		o.AppendFault = fault.NewInjector(int64(13+shard), fault.Config{TransientWriteRate: 1, After: 2, MaxFaults: 2}).Log
	}
	c := newCoordinator(t, opts)
	for _, r := range makeRecords(t, 8, 17) {
		if err := c.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", r.ID, err)
		}
	}
	if _, _, retries := c.Stats(); retries == 0 {
		t.Fatal("fleet-wide retry counter never moved")
	}
}

// TestJointReleaseDeterminism pins the canonical export byte-identical
// across shard counts {1,2,4} × core counts {1,2,8} (GOMAXPROCS, the
// worker count of the release scans), and the joint concatenation
// release identical across core counts at a fixed shard count. The
// export is the shard-count-invariant product; the concatenation is
// seam-shaped by design and only promises worker-invariance.
func TestJointReleaseDeterminism(t *testing.T) {
	recs := makeRecords(t, 240, 29)
	type run struct {
		shards, workers int
		export          []anonmodel.Partition
		exportCoarse    []anonmodel.Partition
		release         []anonmodel.Partition
	}
	var runs []run
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 8} {
			runs = append(runs, func() run {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				opts := testOptions(t, shards)
				opts.Preload = recs
				c := newCoordinator(t, opts)
				exp, err := c.Export(0)
				if err != nil {
					t.Fatalf("shards=%d workers=%d export: %v", shards, workers, err)
				}
				expC, err := c.Export(3 * testK)
				if err != nil {
					t.Fatalf("shards=%d workers=%d export 3k: %v", shards, workers, err)
				}
				rel, err := c.Release(0)
				if err != nil {
					t.Fatalf("shards=%d workers=%d release: %v", shards, workers, err)
				}
				return run{shards, workers, exp, expC, rel}
			}())
		}
	}
	ref := runs[0]
	for _, r := range runs[1:] {
		if !partitionsEqual(ref.export, r.export) {
			t.Fatalf("export differs between shards=%d/workers=%d and shards=%d/workers=%d",
				ref.shards, ref.workers, r.shards, r.workers)
		}
		if !partitionsEqual(ref.exportCoarse, r.exportCoarse) {
			t.Fatalf("coarse export differs between shards=%d/workers=%d and shards=%d/workers=%d",
				ref.shards, ref.workers, r.shards, r.workers)
		}
	}
	// Concatenation releases: worker-invariant per shard count.
	for i, a := range runs {
		for _, b := range runs[i+1:] {
			if a.shards == b.shards && !partitionsEqual(a.release, b.release) {
				t.Fatalf("joint release differs between workers=%d and workers=%d at shards=%d",
					a.workers, b.workers, a.shards)
			}
		}
	}
}

// partitionsEqual compares two releases structurally: same partitions
// in the same order, same boxes, same records in the same order.
func partitionsEqual(a, b []anonmodel.Partition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Box.Equal(b[i].Box) || a[i].Size() != b[i].Size() {
			return false
		}
		for j := range a[i].Size() {
			ra, rb := a[i].Record(j), b[i].Record(j)
			if ra.ID != rb.ID {
				return false
			}
			for d := range ra.QI {
				if ra.QI[d] != rb.QI[d] {
					return false
				}
			}
		}
	}
	return true
}

// TestOpenRecoversFleet: a coordinator reopened over an existing
// directory serves exactly the acknowledged state, shard by shard.
func TestOpenRecoversFleet(t *testing.T) {
	opts := testOptions(t, 3)
	recs := makeRecords(t, 60, 41)
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := c.Insert(r); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	c2, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c2.Close()
	joint, err := c2.Release(0)
	if err != nil {
		t.Fatalf("release after reopen: %v", err)
	}
	if err := verify.Release(joint, anonmodel.KAnonymity{K: testK}); err != nil {
		t.Fatalf("reopened joint release unaudited: %v", err)
	}
	n := 0
	for _, p := range joint {
		n += p.Size()
	}
	if n != len(recs) {
		t.Fatalf("reopened fleet serves %d records, acked %d", n, len(recs))
	}
}

// chaosIDs snapshots one shard store's record IDs from its live tree.
func chaosIDs(st *wal.Store) map[int64]bool {
	out := make(map[int64]bool)
	for _, l := range st.Tree().Leaves() {
		for i := range l.Size() {
			out[l.Record(i).ID] = true
		}
	}
	return out
}

// TestFleetOfOne: a Shards: 1 coordinator IS the single-store case —
// one range covering every key — so its cross-shard products must be
// its only shard's products: the joint release is the view's release,
// group for group and as windows of the same record array (nothing is
// copied when there is no seam), and the fleet count is the view's
// count bit for bit. Both must survive churn.
func TestFleetOfOne(t *testing.T) {
	opts := testOptions(t, 1)
	recs := makeRecords(t, 2200, 61)
	opts.Preload = recs[:2000]
	c := newCoordinator(t, opts)

	table := c.Table()
	if len(table) != 1 || table[0] != (verify.KeyRange{Lo: 0, Hi: c.Quantizer().MaxKey()}) {
		t.Fatalf("table %v, want the single range [0, %#x]", table, c.Quantizer().MaxKey())
	}

	rng := detrng.New(61)
	boxes := make([]attr.Box, 50)
	for i := range boxes {
		boxes[i] = attr.NewBox(len(recs[0].QI))
		for d := range boxes[i] {
			lo, hi := rng.Float64()*100, rng.Float64()*100
			boxes[i][d] = attr.Interval{Lo: min(lo, hi), Hi: max(lo, hi)}
		}
	}
	check := func(when string) {
		t.Helper()
		v := c.View(0)
		for _, k1 := range []int{0, 25, 50} {
			joint, err := c.Release(k1)
			if err != nil {
				t.Fatalf("%s: Release(%d): %v", when, k1, err)
			}
			own, err := v.Release(k1)
			if err != nil {
				t.Fatalf("%s: View(0).Release(%d): %v", when, k1, err)
			}
			if !partitionsEqual(joint, own) {
				t.Fatalf("%s: Release(%d) differs from the only shard's release", when, k1)
			}
			for i := range joint {
				// Reads the Records field: zero-copy sharing is pinned by slice identity.
				if &joint[i].Records[0] != &own[i].Records[0] {
					t.Fatalf("%s: Release(%d) group %d is a copy, not a window of the view's array", when, k1, i)
				}
			}
		}
		for i, q := range boxes {
			got, err := c.Count(q)
			if err != nil {
				t.Fatalf("%s: Count(box %d): %v", when, i, err)
			}
			want, err := v.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: Count(box %d) = %v, the view's is %v", when, i, got, want)
			}
		}
	}
	check("after preload")

	// 200 mixed calls: inserts of fresh records, then relocations and
	// deletes of preloaded ones.
	for i := 0; i < 200; i++ {
		found, err := true, error(nil)
		switch r := recs[i]; i % 3 {
		case 0:
			err = c.Insert(recs[2000+i])
		case 1:
			moved := attr.Record{ID: r.ID, QI: append([]float64(nil), r.QI...), Sensitive: r.Sensitive}
			moved.QI[0] = 100 - moved.QI[0]
			found, err = c.Update(r.ID, r.QI, moved)
		case 2:
			found, err = c.Delete(r.ID, r.QI)
		}
		if err != nil || !found {
			t.Fatalf("op %d: found=%v err=%v", i, found, err)
		}
	}
	check("after churn")
}
