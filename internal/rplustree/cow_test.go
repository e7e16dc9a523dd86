package rplustree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
)

// fullLeafCopy is the reference SnapshotLeaves must match: Leaves()
// with every box and record slice deep-copied.
func fullLeafCopy(tr *Tree) []anonmodel.Partition {
	ls := tr.Leaves()
	out := make([]anonmodel.Partition, len(ls))
	for i, l := range ls {
		out[i] = anonmodel.Partition{Box: l.Box.Clone(), Records: rows(l)}
	}
	return out
}

// rows copies p's records out.
func rows(p anonmodel.Partition) []attr.Record {
	out := make([]attr.Record, p.Size())
	for i := range out {
		out[i] = p.Record(i)
	}
	return out
}

func samePartitions(a, b []anonmodel.Partition) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d leaves != %d leaves", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Box) != len(b[i].Box) {
			return fmt.Errorf("leaf %d: MBR %v != %v", i, a[i].Box, b[i].Box)
		}
		for d, iv := range a[i].Box {
			if math.Float64bits(iv.Lo) != math.Float64bits(b[i].Box[d].Lo) || math.Float64bits(iv.Hi) != math.Float64bits(b[i].Box[d].Hi) {
				return fmt.Errorf("leaf %d: MBR %v != %v", i, a[i].Box, b[i].Box)
			}
		}
		if a[i].Size() != b[i].Size() {
			return fmt.Errorf("leaf %d: %d records != %d", i, a[i].Size(), b[i].Size())
		}
		for j := range a[i].Size() {
			ra, rb := a[i].Record(j), b[i].Record(j)
			if ra.ID != rb.ID || ra.Sensitive != rb.Sensitive {
				return fmt.Errorf("leaf %d record %d: %+v != %+v", i, j, ra, rb)
			}
			for d := range ra.QI {
				if ra.QI[d] != rb.QI[d] {
					return fmt.Errorf("leaf %d record %d: QI %v != %v", i, j, ra.QI, rb.QI)
				}
			}
		}
	}
	return nil
}

// snapshotLedger is the per-operation snapshot check the fuzz target and
// its seeded twin share: after every operation the tree's snapshot must
// equal its leaves — IDs, order, boxes bitwise — and every snapshot still
// held from an earlier step must equal the deep copy taken when it was
// made, whatever the tree (or a tree reopened from its checkpoint) has
// done since.
type snapshotLedger struct {
	step int
	held []heldSnapshot
}

type heldSnapshot struct {
	step int
	snap *Snapshot
	ref  []anonmodel.Partition
}

func (l *snapshotLedger) check(t *testing.T, tr *Tree) {
	t.Helper()
	snap, ref := tr.Snapshot(), fullLeafCopy(tr)
	if err := samePartitions(snap.Leaves(), ref); err != nil {
		t.Fatalf("step %d: snapshot diverges from the tree's leaves: %v", l.step, err)
	}
	for _, h := range l.held {
		if err := samePartitions(h.snap.Leaves(), h.ref); err != nil {
			t.Fatalf("step %d: the snapshot of step %d changed under later mutation: %v", l.step, h.step, err)
		}
	}
	// Hold every fifth one, eight at a time: enough for a held snapshot to
	// see each of its leaves appended to, deleted from, split and repaired.
	if l.step%5 == 0 {
		if len(l.held) == 8 {
			l.held = l.held[1:]
		}
		l.held = append(l.held, heldSnapshot{l.step, snap, ref})
	}
	l.step++
}

// TestSnapshotEveryStep is FuzzInsertDeleteInvariants' seeded twin for
// the snapshot: a churn of inserts that force splits and deletes that
// force underflow repairs, checked by the ledger after every operation.
func TestSnapshotEveryStep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var ledger snapshotLedger
	var live []attr.Record
	for op := 0; op < 1500; op++ {
		if len(live) > 0 && rng.Float64() < 0.45 {
			i := rng.Intn(len(live))
			victim := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if found, err := tr.Delete(victim.ID, victim.QI); err != nil || !found {
				t.Fatalf("op %d: delete of live record %d: found=%v err=%v", op, victim.ID, found, err)
			}
		} else {
			r := attr.Record{ID: int64(op), QI: []float64{float64(rng.Intn(60)), float64(rng.Intn(2)), float64(52000 + rng.Intn(500))}}
			live = append(live, r)
			if err := tr.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		ledger.check(t, tr)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadersRace is the copy-on-write invariant under the race
// detector: readers range over snapshots' records and boxes while the
// owner inserts into, deletes from and splits the very leaves they read.
// A write below a published length, or into a published box, is a data
// race here and a changed checksum everywhere.
func TestSnapshotReadersRace(t *testing.T) {
	tr, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	checksum := func(s *Snapshot) (sum float64) {
		for _, p := range s.Leaves() {
			for _, iv := range p.Box {
				sum += iv.Lo + iv.Hi
			}
			for i := range p.Size() {
				r := p.Record(i)
				sum += float64(r.ID) + r.QI[0] + r.QI[2]
			}
		}
		return sum
	}
	type published struct {
		snap *Snapshot
		want float64
	}
	var cur atomic.Pointer[published]
	publish := func() {
		s := tr.Snapshot()
		cur.Store(&published{s, checksum(s)})
	}
	next := int64(0)
	insert := func() attr.Record {
		// A narrow domain: every leaf is hit again and again.
		r := attr.Record{ID: next, QI: []float64{float64(next % 12), float64(next % 2), float64(52000 + next%7)}}
		next++
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	var live []attr.Record
	for i := 0; i < 60; i++ {
		live = append(live, insert())
	}
	publish()

	var passes atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := cur.Load()
				if got := checksum(p.snap); got != p.want {
					t.Errorf("a published snapshot changed under the owner's writes: checksum %v, was %v", got, p.want)
					return
				}
				passes.Add(1)
			}
		}()
	}
	for op := 0; op < 3000; op++ {
		if op%3 == 2 {
			victim := live[0]
			live = live[1:]
			if found, err := tr.Delete(victim.ID, victim.QI); err != nil || !found {
				t.Fatalf("op %d: delete of live record %d: found=%v err=%v", op, victim.ID, found, err)
			}
		} else {
			live = append(live, insert())
		}
		if op%4 == 0 {
			publish()
		}
	}
	// The readers must have overlapped the writes and outlive them.
	for after := passes.Load(); passes.Load() < after+2 && !t.Failed(); {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if passes.Load() == 0 {
		t.Fatal("no reader completed a pass")
	}
}

// TestPublishCostIsOChanged is the count that gates the publish path: on
// a store of thousands of leaves, an insert and the snapshot after it
// together allocate a few objects per level — the rebuilt snapshot nodes
// of one root path (two on a level that split) — and the snapshot's
// records are the tree's own arrays.
func TestPublishCostIsOChanged(t *testing.T) {
	tr, recs := benchTree(t, 50200)
	if leaves := len(tr.Snapshot().Leaves()); leaves <= 3000 {
		t.Fatalf("only %d leaves: too small a tree for the bound to mean anything", leaves)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		r := recs[i]
		r.ID = int64(len(recs) + i)
		i++
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
		tr.Snapshot()
	})
	if limit := float64(4*tr.Height() + 8); allocs > limit {
		t.Fatalf("insert + Snapshot costs %.1f allocations on a tree of height %d, want <= %.0f", allocs, tr.Height(), limit)
	}
	snap, live := tr.Snapshot().Leaves(), tr.Leaves()
	if len(snap) != len(live) {
		t.Fatalf("snapshot has %d leaves, tree has %d", len(snap), len(live))
	}
	for j := range snap {
		// Reads the Records field: zero-copy sharing is pinned by slice identity.
		if &snap[j].Records[0] != &live[j].Records[0] {
			t.Fatalf("leaf %d: the snapshot copied the record array", j)
		}
	}
}

// TestSnapshotLeavesCOW drives a churn workload — inserts that force
// splits, deletes that force underflow repairs — and after every
// batch checks that the incremental snapshot is byte-identical to a
// full deep copy, that it actually reuses unchanged leaves, and that
// earlier snapshots stay frozen while the tree keeps mutating. This
// is the test that catches a missed stamp: any mutation site that does
// not stamp its root path would serve stale leaf contents here.
func TestSnapshotLeavesCOW(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	live := map[int64]attr.Record{}
	nextID := int64(0)

	var prev []anonmodel.Partition
	var frozen []struct {
		snap []anonmodel.Partition
		ref  []anonmodel.Partition
	}
	reused := 0

	for batch := 0; batch < 60; batch++ {
		for op := 0; op < 25; op++ {
			if len(live) == 0 || rng.Float64() < 0.6 {
				r := attr.Record{
					ID: nextID,
					QI: []float64{float64(rng.Intn(60)), float64(rng.Intn(2)), float64(52000 + rng.Intn(500))},
				}
				nextID++
				if err := tr.Insert(r); err != nil {
					t.Fatal(err)
				}
				live[r.ID] = r
			} else {
				var victim attr.Record
				for _, r := range live {
					victim = r
					break
				}
				if found, err := tr.Delete(victim.ID, victim.QI); err != nil || !found {
					t.Fatalf("batch %d: delete of live record %d: found=%v err=%v", batch, victim.ID, found, err)
				}
				delete(live, victim.ID)
			}
		}
		snap := tr.SnapshotLeaves(prev)
		ref := fullLeafCopy(tr)
		if err := samePartitions(snap, ref); err != nil {
			t.Fatalf("batch %d: incremental snapshot diverges from full copy: %v", batch, err)
		}
		// Count reuse by backing-array identity with the previous
		// snapshot: a reused leaf shares its records array.
		for _, l := range snap {
			for _, p := range prev {
				// Reads the Records field: zero-copy sharing is pinned by slice identity.
				if len(l.Records) > 0 && len(p.Records) > 0 && &l.Records[0] == &p.Records[0] {
					reused++
					break
				}
			}
		}
		// Keep a few snapshots (with a reference copy taken at the same
		// moment) to check immutability under later churn.
		if batch%17 == 0 {
			refNow := make([]anonmodel.Partition, len(snap))
			for i, l := range snap {
				refNow[i] = anonmodel.Partition{Box: l.Box.Clone(), Records: rows(l)}
			}
			frozen = append(frozen, struct {
				snap []anonmodel.Partition
				ref  []anonmodel.Partition
			}{snap, refNow})
		}
		prev = snap
	}

	if reused == 0 {
		t.Fatal("no leaf was ever reused across 60 snapshots of 25-op batches — copy-on-write is not engaging")
	}
	for i, f := range frozen {
		if err := samePartitions(f.snap, f.ref); err != nil {
			t.Fatalf("frozen snapshot %d changed under later mutation: %v", i, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLeavesFirstCallCopies: the first snapshot of a tree must
// ignore whatever prev it is handed (SnapshotLeaves keeps the parameter
// for its callers; nothing of a foreign slice may be reused).
func TestSnapshotLeavesFirstCallCopies(t *testing.T) {
	tr, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := tr.Insert(attr.Record{ID: int64(i), QI: []float64{float64(i), 0, 52000}}); err != nil {
			t.Fatal(err)
		}
	}
	bogus := []anonmodel.Partition{{Box: attr.NewBox(3), Records: []attr.Record{{ID: 999}}}}
	snap := tr.SnapshotLeaves(bogus)
	if err := samePartitions(snap, fullLeafCopy(tr)); err != nil {
		t.Fatalf("first snapshot trusted a foreign prev: %v", err)
	}
}
