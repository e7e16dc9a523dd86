package rplustree

import (
	"fmt"
	"math/rand"
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
		recs := make([]attr.Record, len(l.Records))
		copy(recs, l.Records)
		out[i] = anonmodel.Partition{Box: l.Box.Clone(), Records: recs}
	}
	return out
}

func samePartitions(a, b []anonmodel.Partition) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d leaves != %d leaves", len(a), len(b))
	}
	for i := range a {
		if !a[i].Box.Equal(b[i].Box) {
			return fmt.Errorf("leaf %d: MBR %v != %v", i, a[i].Box, b[i].Box)
		}
		if len(a[i].Records) != len(b[i].Records) {
			return fmt.Errorf("leaf %d: %d records != %d", i, len(a[i].Records), len(b[i].Records))
		}
		for j := range a[i].Records {
			ra, rb := a[i].Records[j], b[i].Records[j]
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

// TestSnapshotLeavesCOW drives a churn workload — inserts that force
// splits, deletes that force underflow repairs — and after every
// batch checks that the incremental snapshot is byte-identical to a
// full deep copy, that it actually reuses unchanged leaves, and that
// earlier snapshots stay frozen while the tree keeps mutating. This
// is the test that catches a missed version bump: any mutation site
// not counted by node.ver would serve stale leaf contents here.
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
				recs := make([]attr.Record, len(l.Records))
				copy(recs, l.Records)
				refNow[i] = anonmodel.Partition{Box: l.Box.Clone(), Records: recs}
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

// TestSnapshotLeavesFirstCallCopies pins the generation guard: the
// first snapshot of a tree must ignore whatever prev it is handed
// (freshly minted nodes carry zero-valued stamps that must never
// alias a foreign slice).
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
