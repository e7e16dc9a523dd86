package rplustree

import (
	"math"
	"math/rand"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

// continuousRecords generates records with continuous (duplicate-free
// with probability 1) coordinates, so the split policies can always
// keep both halves at k and every under-k leaf is a maintenance bug,
// not a duplicate pile-up.
func continuousRecords(schema *attr.Schema, n int, seed int64) []attr.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]attr.Record, n)
	for i := range recs {
		qi := make([]float64, schema.Dims())
		for d := range qi {
			qi[d] = rng.Float64() * 100
		}
		recs[i] = attr.Record{ID: int64(i + 1), QI: qi}
	}
	return recs
}

// pointBox is the degenerate box containing exactly one point.
func pointBox(qi []float64) attr.Box {
	b := make(attr.Box, len(qi))
	for d, v := range qi {
		b[d] = attr.Interval{Lo: v, Hi: v}
	}
	return b
}

// minLeafCount returns the smallest leaf record count in the tree, empty
// leaves included.
func minLeafCount(tr *Tree) int {
	m := math.MaxInt
	tr.walkLeaves(tr.root, func(l *node) { m = min(m, l.count) })
	return m
}

// assertKBound fails if any leaf of a multi-level tree holds fewer
// than k records (a root-leaf tree is exempt: with fewer than k
// records total there is nothing to publish and nowhere to rehome).
func assertKBound(t *testing.T, tr *Tree, k int, when string) {
	t.Helper()
	if tr.Height() == 1 {
		return
	}
	if m := minLeafCount(tr); m < k {
		t.Fatalf("%s: leaf with %d < %d records", when, m, k)
	}
}

// TestDeleteRepairsUnderflow is the regression test for underflow
// repair: before repair existed, deleting records concentrated in one
// leaf left that leaf below BaseK indefinitely (the old Delete kept
// underfull leaves and deferred k-enforcement to materialization).
func TestDeleteRepairsUnderflow(t *testing.T) {
	const k = 4
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: k}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := continuousRecords(cfg.Schema, 300, 7)
	insertAll(t, tr, recs)
	if tr.Height() < 2 {
		t.Fatal("test needs a multi-level tree")
	}
	assertKBound(t, tr, k, "after load")

	// Drain one leaf: deleting its records one by one must never leave
	// it (or any other leaf) below k — the moment it would dip, it must
	// be dissolved and its survivors rehomed.
	victimLeaf := tr.Leaves()[0]
	victims := rows(victimLeaf)
	for i, r := range victims {
		found, err := tr.Delete(r.ID, r.QI)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			// The leaf was dissolved by an earlier delete and this record
			// rehomed — it must still be somewhere in the tree.
			if len(tr.Search(pointBox(r.QI))) == 0 {
				t.Fatalf("record %d lost after repair", r.ID)
			}
			continue
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
		assertKBound(t, tr, k, "after targeted delete")
	}
}

// TestDeleteChurnStaysKBoundAndConsistent drives sustained random
// churn and holds the tree to its invariants and the k-bound after
// every operation.
func TestDeleteChurnStaysKBoundAndConsistent(t *testing.T) {
	const k = 3
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: k}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := continuousRecords(cfg.Schema, 200, 11)
	insertAll(t, tr, recs)
	live := append([]attr.Record(nil), recs...)
	rng := rand.New(rand.NewSource(13))
	nextID := int64(10_000)

	for op := 0; op < 400; op++ {
		if rng.Intn(3) == 0 || len(live) == 0 {
			qi := make([]float64, cfg.Schema.Dims())
			for d := range qi {
				qi[d] = rng.Float64() * 100
			}
			r := attr.Record{ID: nextID, QI: qi}
			nextID++
			if err := tr.Insert(r); err != nil {
				t.Fatal(err)
			}
			live = append(live, r)
		} else {
			i := rng.Intn(len(live))
			r := live[i]
			live = append(live[:i], live[i+1:]...)
			found, err := tr.Delete(r.ID, r.QI)
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("op %d: live record %d not found", op, r.ID)
			}
		}
		if tr.Len() != len(live) {
			t.Fatalf("op %d: Len = %d, live = %d", op, tr.Len(), len(live))
		}
		assertKBound(t, tr, k, "during churn")
		if op%25 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every live record is still findable at its exact point.
	for _, r := range live {
		ok := false
		for _, hit := range tr.Search(pointBox(r.QI)) {
			ok = ok || hit.ID == r.ID
		}
		if !ok {
			t.Fatalf("record %d vanished during churn", r.ID)
		}
	}
}

// TestDeleteToEmptyResetsTree deletes every record: the repair's
// climb-to-root path must collapse the tree back to a clean empty
// root that accepts fresh inserts.
func TestDeleteToEmptyResetsTree(t *testing.T) {
	const k = 3
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: k}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := continuousRecords(cfg.Schema, 120, 19)
	insertAll(t, tr, recs)

	// Records may be rehomed by repairs mid-loop, so a delete may miss;
	// sweep until the tree is empty.
	for tr.Len() > 0 {
		deleted := false
		for _, l := range tr.Leaves() {
			for i := range l.Size() {
				r := l.Record(i)
				found, err := tr.Delete(r.ID, r.QI)
				if err != nil {
					t.Fatal(err)
				}
				deleted = deleted || found
				break
			}
			break
		}
		if !deleted {
			t.Fatal("no record deletable while tree non-empty")
		}
		assertKBound(t, tr, k, "while emptying")
	}
	if tr.Height() != 1 {
		t.Fatalf("empty tree has height %d", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 50, 23))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 50 {
		t.Fatalf("reloaded Len = %d", tr.Len())
	}
}

// TestUpdateRepairsUnderflow relocates records out of one region; the
// vacated leaves must dissolve rather than linger under k.
func TestUpdateRepairsUnderflow(t *testing.T) {
	const k = 4
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: k}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := continuousRecords(cfg.Schema, 200, 29)
	insertAll(t, tr, recs)
	rng := rand.New(rand.NewSource(31))
	moved := 0
	for _, r := range recs {
		if r.QI[0] >= 30 {
			continue
		}
		dst := make([]float64, len(r.QI))
		for d := range dst {
			dst[d] = 70 + rng.Float64()*30
		}
		found, err := tr.Update(r.ID, r.QI, attr.Record{ID: r.ID, QI: dst})
		if err != nil {
			t.Fatal(err)
		}
		if found {
			moved++
		}
		assertKBound(t, tr, k, "after update")
	}
	if moved == 0 {
		t.Fatal("test moved nothing")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(recs))
	}
}
