package rplustree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

func testConfig(k int) Config {
	return Config{Schema: dataset.PatientsSchema(), BaseK: k}
}

func insertAll(t *testing.T, tr *Tree, recs []attr.Record) {
	t.Helper()
	for _, r := range recs {
		if err := tr.Insert(r); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil schema accepted")
	}
	if _, err := New(Config{Schema: dataset.PatientsSchema(), BaseK: 0}); err == nil {
		t.Fatal("BaseK 0 accepted")
	}
	if _, err := New(Config{Schema: dataset.PatientsSchema(), BaseK: 2, LeafFactor: 1}); err == nil {
		t.Fatal("LeafFactor 1 accepted")
	}
	if _, err := New(Config{Schema: dataset.PatientsSchema(), BaseK: 2, NodeCapacity: 1}); err == nil {
		t.Fatal("NodeCapacity 1 accepted")
	}
	tr, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tr.Config()
	if cfg.LeafFactor != 2 || cfg.NodeCapacity != 8 || cfg.Split == nil {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatal("fresh tree not empty")
	}
	if !tr.root.mbr.IsEmpty() {
		t.Fatal("fresh tree MBR not empty")
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	tr, _ := New(testConfig(2))
	if err := tr.Insert(attr.Record{QI: []float64{1}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestInsertAndInvariants(t *testing.T) {
	tr, _ := New(testConfig(3))
	recs := dataset.GeneratePatients(500, 1)
	for i, r := range recs {
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d after 500 inserts with leaf cap 6", tr.Height())
	}
}

func TestLeavesPartitionRecords(t *testing.T) {
	tr, _ := New(testConfig(4))
	recs := dataset.GeneratePatients(300, 2)
	insertAll(t, tr, recs)
	leaves := tr.Leaves()
	seen := map[int64]bool{}
	total := 0
	for _, l := range leaves {
		total += l.Size()
		for i := range l.Size() {
			r := l.Record(i)
			if seen[r.ID] {
				t.Fatalf("record %d in two leaves", r.ID)
			}
			seen[r.ID] = true
			if !l.Box.Contains(r.QI) {
				t.Fatalf("record %d outside its leaf MBR", r.ID)
			}
		}
	}
	if total != 300 {
		t.Fatalf("leaves hold %d records, want 300", total)
	}
	// Leaf MBRs must be pairwise disjoint is NOT guaranteed (MBRs of
	// disjoint regions are disjoint though) — verify via regions being
	// checked in CheckInvariants; here verify MBR disjointness, which
	// holds because MBR subset of region and regions are disjoint.
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			if leaves[i].Box.Intersects(leaves[j].Box) {
				t.Fatalf("leaf MBRs %d and %d overlap: %v %v", i, j, leaves[i].Box, leaves[j].Box)
			}
		}
	}
}

func TestLeafOccupancyBounds(t *testing.T) {
	k := 5
	tr, _ := New(testConfig(k))
	insertAll(t, tr, dataset.GeneratePatients(2000, 3))
	cap := tr.Config().leafCapacity()
	under := 0
	for _, l := range tr.Leaves() {
		if l.Size() > cap {
			t.Fatalf("leaf holds %d records, cap %d", l.Size(), cap)
		}
		if l.Size() < k {
			under++
		}
	}
	// Median splits keep both halves >= k except when duplicate-heavy
	// axes force unbalanced splits; patients data is diverse enough that
	// underfull leaves must be rare.
	if under > len(tr.Leaves())/10 {
		t.Fatalf("%d of %d leaves underfull", under, len(tr.Leaves()))
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	tr, _ := New(testConfig(3))
	recs := dataset.GeneratePatients(400, 4)
	insertAll(t, tr, recs)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		q := randQuery(rng, recs)
		got := tr.Search(q)
		var want []int64
		for _, r := range recs {
			if q.Contains(r.QI) {
				want = append(want, r.ID)
			}
		}
		gotIDs := make([]int64, len(got))
		for j, r := range got {
			gotIDs[j] = r.ID
		}
		sort.Slice(gotIDs, func(a, b int) bool { return gotIDs[a] < gotIDs[b] })
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(gotIDs) != len(want) {
			t.Fatalf("query %v: got %d records, want %d", q, len(gotIDs), len(want))
		}
		for j := range want {
			if gotIDs[j] != want[j] {
				t.Fatalf("query %v: result mismatch", q)
			}
		}
	}
}

// TestSearchInTrieOrder: Search returns the records of Leaves that fall
// in the query, in the same order — trie order, which a node's children
// follow once internal splits have reordered them against their creation.
func TestSearchInTrieOrder(t *testing.T) {
	tr, _ := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 5})
	recs := dataset.GenerateLandsEnd(5000, 3)
	insertAll(t, tr, recs)
	if tr.Height() < 3 {
		t.Fatalf("height %d: no internal split below the root", tr.Height())
	}
	rng := rand.New(rand.NewSource(9))
	queries := []attr.Box{tr.root.mbr.Clone()}
	for i := 0; i < 50; i++ {
		queries = append(queries, randQuery(rng, recs))
	}
	leaves := tr.Leaves()
	for _, q := range queries {
		var want []int64
		for _, l := range leaves {
			for i := range l.Size() {
				if r := l.Record(i); q.Contains(r.QI) {
					want = append(want, r.ID)
				}
			}
		}
		got := tr.Search(q)
		if len(got) != len(want) {
			t.Fatalf("query %v: %d records, want %d", q, len(got), len(want))
		}
		for i, r := range got {
			if r.ID != want[i] {
				t.Fatalf("query %v: record %d is %d, Leaves order has %d", q, i, r.ID, want[i])
			}
		}
	}
}

func randQuery(rng *rand.Rand, recs []attr.Record) attr.Box {
	a := recs[rng.Intn(len(recs))]
	b := recs[rng.Intn(len(recs))]
	q := attr.PointBox(a.QI)
	q.Include(b.QI)
	return q
}

func TestDelete(t *testing.T) {
	tr, _ := New(testConfig(3))
	recs := dataset.GeneratePatients(200, 6)
	insertAll(t, tr, recs)
	// Delete half.
	for i := 0; i < 100; i++ {
		if found, err := tr.Delete(recs[i].ID, recs[i].QI); err != nil || !found {
			t.Fatalf("Delete of record %d failed", recs[i].ID)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Deleted records are gone; remaining are findable.
	for i, r := range recs {
		hits := tr.Search(attr.PointBox(r.QI))
		found := false
		for _, h := range hits {
			if h.ID == r.ID {
				found = true
			}
		}
		if i < 100 && found {
			t.Fatalf("deleted record %d still present", r.ID)
		}
		if i >= 100 && !found {
			t.Fatalf("surviving record %d lost", r.ID)
		}
	}
	// Delete of unknown ID / wrong dims fails cleanly.
	if found, _ := tr.Delete(9999, recs[0].QI); found {
		t.Fatal("Delete of unknown ID succeeded")
	}
	if found, _ := tr.Delete(recs[150].ID, []float64{1}); found {
		t.Fatal("Delete with bad dims succeeded")
	}
}

func TestUpdate(t *testing.T) {
	tr, _ := New(testConfig(3))
	recs := dataset.GeneratePatients(100, 7)
	insertAll(t, tr, recs)
	moved := recs[42].Clone()
	moved.QI[0] = 99 // relocate on age
	found42, err := tr.Update(recs[42].ID, recs[42].QI, moved)
	if err != nil {
		t.Fatal(err)
	}
	if !found42 {
		t.Fatal("Update failed")
	}
	if tr.Len() != 100 {
		t.Fatalf("Len after update = %d", tr.Len())
	}
	hits := tr.Search(attr.PointBox(moved.QI))
	found := false
	for _, h := range hits {
		if h.ID == moved.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("updated record not at new location")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if found, _ := tr.Update(12345, recs[0].QI, moved); found {
		t.Fatal("Update of unknown record succeeded")
	}
}

// TestUpdateRejectsBadRecordFirst: a new record of the wrong
// dimensionality is refused before the old one is deleted, so a failed
// Update loses nothing.
func TestUpdateRejectsBadRecordFirst(t *testing.T) {
	tr, _ := New(testConfig(3))
	recs := dataset.GeneratePatients(50, 8)
	insertAll(t, tr, recs)
	old := recs[17]
	found, err := tr.Update(old.ID, old.QI, attr.Record{ID: old.ID, QI: []float64{1}})
	if err == nil || found {
		t.Fatalf("Update to a one-attribute record: found=%v err=%v", found, err)
	}
	if tr.Len() != 50 {
		t.Fatalf("Len after a refused Update = %d, want 50", tr.Len())
	}
	hit := false
	for _, h := range tr.Search(attr.PointBox(old.QI)) {
		hit = hit || h.ID == old.ID
	}
	if !hit {
		t.Fatal("a refused Update deleted the old record")
	}
}

// TestNonFinitePointsRefused: a point with an infinite or NaN coordinate
// is refused by Insert, by Update and by the bulk loader's Insert, and
// the tree is left as it was. An infinite point lies outside every leaf
// region a split cuts; a NaN one makes the tree's own checkpoint one
// that DecodeCheckpoint refuses.
func TestNonFinitePointsRefused(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 5}
	recs := dataset.GenerateLandsEnd(200, 7)
	tuple, _ := New(cfg)
	insertAll(t, tuple, recs)
	bulk, _ := New(cfg)
	bl, err := NewBulkLoader(bulk, BulkLoadConfig{RecordBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	old := recs[7]
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		bad := old.Clone()
		bad.QI[0] = v
		if err := tuple.Insert(bad); err == nil {
			t.Errorf("Insert of a point at %v accepted", v)
		}
		if found, err := tuple.Update(old.ID, old.QI, bad); err == nil || found {
			t.Errorf("Update to a point at %v: found=%v err=%v", v, found, err)
		}
		if err := bl.Insert(bad); err == nil {
			t.Errorf("BulkLoader.Insert of a point at %v accepted", v)
		}
	}
	if err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Tree{"tuple": tuple, "bulk": bulk} {
		if tr.Len() != len(recs) {
			t.Errorf("%s: Len %d after refused writes, want %d", name, tr.Len(), len(recs))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLevelViews(t *testing.T) {
	tr, _ := New(testConfig(3))
	insertAll(t, tr, dataset.GeneratePatients(600, 8))
	if _, err := tr.Level(-1); err == nil {
		t.Fatal("negative level accepted")
	}
	if _, err := tr.Level(tr.Height()); err == nil {
		t.Fatal("level past root accepted")
	}
	for lvl := 0; lvl < tr.Height(); lvl++ {
		var leaves [][]attr.Record
		for _, l := range tr.Leaves() {
			leaves = append(leaves, rows(l))
		}
		views, err := tr.Level(lvl)
		if err != nil {
			t.Fatal(err)
		}
		// The records beneath each node, in leaf order: concatenated
		// over the level they are exactly the leaves' records.
		next := 0
		for _, v := range views {
			if err := v.Validate(); err != nil {
				t.Fatalf("level %d: %v", lvl, err)
			}
			for _, r := range rows(v) {
				for next < len(leaves) && len(leaves[next]) == 0 {
					next++
				}
				if next == len(leaves) || leaves[next][0].ID != r.ID {
					t.Fatalf("level %d: record %d out of leaf order", lvl, r.ID)
				}
				leaves[next] = leaves[next][1:]
			}
		}
		if n := anonmodel.TotalRecords(views); n != 600 {
			t.Fatalf("level %d holds %d records", lvl, n)
		}
	}
	rootViews, _ := tr.Level(tr.Height() - 1)
	if len(rootViews) != 1 {
		t.Fatalf("root level has %d views", len(rootViews))
	}
	leafViews, _ := tr.Level(0)
	if len(leafViews) != len(tr.Leaves()) {
		t.Fatalf("level 0 (%d) differs from Leaves() (%d)", len(leafViews), len(tr.Leaves()))
	}
}

func TestDuplicatePointsDoNotLoop(t *testing.T) {
	tr, _ := New(testConfig(2))
	// 50 identical points: unsplittable leaf must simply grow.
	for i := 0; i < 50; i++ {
		if err := tr.Insert(attr.Record{ID: int64(i), QI: []float64{30, 1, 53706}}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d", tr.Len())
	}
	leaves := tr.Leaves()
	if len(leaves) != 1 || leaves[0].Size() != 50 {
		t.Fatalf("duplicates should stay in one oversized leaf, got %d leaves", len(leaves))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Now add diverse points; splits must resume.
	insertAll(t, tr, dataset.GeneratePatients(100, 9))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves()) < 2 {
		t.Fatal("tree failed to split after diversity returned")
	}
}

func TestRandomizedInsertDeleteInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr, _ := New(testConfig(3))
	live := map[int64]attr.Record{}
	nextID := int64(0)
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Float64() < 0.65 {
			r := attr.Record{
				ID: nextID,
				QI: []float64{float64(rng.Intn(80)), float64(rng.Intn(2)), float64(52000 + rng.Intn(2000))},
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
				t.Fatalf("step %d: delete of live record %d failed", step, victim.ID)
			}
			delete(live, victim.ID)
		}
		if step%250 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("step %d: Len %d != live %d", step, tr.Len(), len(live))
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMBRTightAfterDeletes(t *testing.T) {
	tr, _ := New(testConfig(2))
	recs := []attr.Record{
		{ID: 1, QI: []float64{0, 0, 0}},
		{ID: 2, QI: []float64{100, 1, 100}},
		{ID: 3, QI: []float64{50, 0, 50}},
		{ID: 4, QI: []float64{60, 1, 60}},
		{ID: 5, QI: []float64{55, 0, 55}},
	}
	insertAll(t, tr, recs)
	if _, err := tr.Delete(2, recs[1].QI); err != nil { // remove the extreme corner
		t.Fatal(err)
	}
	mbr := tr.root.mbr
	if mbr[0].Hi == 100 || mbr[2].Hi == 100 {
		t.Fatalf("MBR not tightened after delete: %v", mbr)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
