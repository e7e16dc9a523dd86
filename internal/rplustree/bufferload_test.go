package rplustree

import (
	"errors"
	"runtime"
	"sort"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

func newLoader(t *testing.T, k int, cfg BulkLoadConfig) (*Tree, *BulkLoader) {
	t.Helper()
	tr, err := New(testConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	bl, err := NewBulkLoader(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, bl
}

// smallMem is a tight but workable memory budget for tests: 64 pages of
// 256 bytes.
var smallMem = BulkLoadConfig{PageSize: 256, MemoryBytes: 64 * 256, RecordBytes: 16}

func TestBulkLoadMatchesTupleLoad(t *testing.T) {
	recs := dataset.GeneratePatients(2000, 20)

	tuple, _ := New(testConfig(5))
	for _, r := range recs {
		if err := tuple.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	bulk, bl := newLoader(t, 5, smallMem)
	if err := bl.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}

	if bulk.Len() != tuple.Len() {
		t.Fatalf("bulk %d records vs tuple %d", bulk.Len(), tuple.Len())
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatalf("bulk tree invariants: %v", err)
	}
	// Same record multiset.
	collect := func(tr *Tree) []int64 {
		var ids []int64
		for _, l := range tr.Leaves() {
			for i := range l.Size() {
				ids = append(ids, l.Record(i).ID)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	bids, tids := collect(bulk), collect(tuple)
	for i := range bids {
		if bids[i] != tids[i] {
			t.Fatalf("record sets differ at %d: %d vs %d", i, bids[i], tids[i])
		}
	}
}

func TestBulkLoadFlushIdempotent(t *testing.T) {
	_, bl := newLoader(t, 3, smallMem)
	if err := bl.InsertBatch(dataset.GeneratePatients(500, 21)); err != nil {
		t.Fatal(err)
	}
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	n := bl.tree.Len()
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	if bl.tree.Len() != n {
		t.Fatal("second flush changed the tree")
	}
}

func TestBulkLoadIncrementalBatches(t *testing.T) {
	tr, bl := newLoader(t, 5, smallMem)
	s := dataset.PatientsStream(3000, 22)
	total := 0
	for {
		batch := s.NextBatch(500)
		if len(batch) == 0 {
			break
		}
		if err := bl.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := bl.Flush(); err != nil {
			t.Fatal(err)
		}
		total += len(batch)
		if tr.Len() != total {
			t.Fatalf("after batch: Len %d, want %d", tr.Len(), total)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBulkLoadChargesIO(t *testing.T) {
	// A memory budget far below the data size must force buffer spills
	// and hence nonzero I/O; a generous budget must do less I/O.
	run := func(memBytes int) int64 {
		tr, err := New(testConfig(5))
		if err != nil {
			t.Fatal(err)
		}
		bl, err := NewBulkLoader(tr, BulkLoadConfig{
			PageSize: 256, MemoryBytes: memBytes, RecordBytes: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := bl.InsertBatch(dataset.GeneratePatients(4000, 23)); err != nil {
			t.Fatal(err)
		}
		if err := bl.Flush(); err != nil {
			t.Fatal(err)
		}
		st := bl.Stats()
		return st.Reads + st.Writes
	}
	tight := run(16 * 256)   // 16 pages
	roomy := run(4096 * 256) // 4096 pages
	if tight == 0 {
		t.Fatal("tight memory budget produced zero I/O")
	}
	if roomy >= tight {
		t.Fatalf("roomy budget did %d I/Os, tight did %d — want roomy < tight", roomy, tight)
	}
}

func TestBulkLoaderValidation(t *testing.T) {
	tr, _ := New(testConfig(3))
	if _, err := NewBulkLoader(tr, BulkLoadConfig{PageSize: 8, RecordBytes: 16, MemoryBytes: 1024}); err == nil {
		t.Fatal("page smaller than record accepted")
	}
	if _, err := NewBulkLoader(tr, BulkLoadConfig{PageSize: 256, MemoryBytes: 512}); err == nil {
		t.Fatal("sub-4-page pool accepted")
	}
	bl, err := NewBulkLoader(tr, smallMem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBulkLoader(tr, smallMem); err == nil {
		t.Fatal("second loader on same tree accepted")
	}
	if err := bl.Insert(attr.Record{QI: []float64{1}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close a new loader may attach.
	if _, err := NewBulkLoader(tr, smallMem); err != nil {
		t.Fatalf("reattach after Close: %v", err)
	}
}

func TestBulkThenTupleInserts(t *testing.T) {
	tr, bl := newLoader(t, 4, smallMem)
	if err := bl.InsertBatch(dataset.GeneratePatients(1000, 24)); err != nil {
		t.Fatal(err)
	}
	if err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	// Tuple-at-a-time updates after the bulk phase (the incremental
	// maintenance scenario of Section 2.2).
	extra := dataset.GeneratePatients(200, 25)
	for i := range extra {
		extra[i].ID += 10000
		if err := tr.Insert(extra[i]); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 1200 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMaintenanceRefusedWhileLoading: from NewBulkLoader to Close the
// loader is the tree's only writer. Insert, Delete and Update return
// ErrLoading and move nothing; after Close they work.
func TestMaintenanceRefusedWhileLoading(t *testing.T) {
	tr, bl := newLoader(t, 4, smallMem)
	recs := dataset.GeneratePatients(1000, 29)
	if err := bl.InsertBatch(recs[:900]); err != nil {
		t.Fatal(err)
	}
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	before := tr.Leaves()
	r := recs[5]
	moved := r.Clone()
	moved.QI[0]++
	if err := tr.Insert(recs[950]); !errors.Is(err, ErrLoading) {
		t.Fatalf("Insert while loading: %v", err)
	}
	if found, err := tr.Delete(r.ID, r.QI); found || !errors.Is(err, ErrLoading) {
		t.Fatalf("Delete while loading: found=%v err=%v", found, err)
	}
	if found, err := tr.Update(r.ID, r.QI, moved); found || !errors.Is(err, ErrLoading) {
		t.Fatalf("Update while loading: found=%v err=%v", found, err)
	}
	after := tr.Leaves()
	if tr.Len() != 900 || len(after) != len(before) {
		t.Fatalf("refused writes changed the tree: Len %d, %d leaves (was %d)", tr.Len(), len(after), len(before))
	}
	for i := range before {
		if !before[i].Box.Equal(after[i].Box) || before[i].Size() != after[i].Size() {
			t.Fatalf("refused writes changed leaf %d", i)
		}
	}
	if err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(recs[950]); err != nil {
		t.Fatal(err)
	}
	if found, err := tr.Update(r.ID, r.QI, moved); !found || err != nil {
		t.Fatalf("Update after Close: found=%v err=%v", found, err)
	}
	if found, err := tr.Delete(moved.ID, moved.QI); !found || err != nil {
		t.Fatalf("Delete after Close: found=%v err=%v", found, err)
	}
	if tr.Len() != 900 {
		t.Fatalf("Len = %d, want 900", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoaderStatsReset(t *testing.T) {
	_, bl := newLoader(t, 3, smallMem)
	if err := bl.InsertBatch(dataset.GeneratePatients(2000, 28)); err != nil {
		t.Fatal(err)
	}
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	bl.ResetStats()
	if st := bl.Stats(); st.Reads+st.Writes != 0 {
		t.Fatal("stats not reset")
	}
}

// TestLoaderReusesBufferArrays: a load allocates far less than the
// records it moves — every record passes a buffer per level, and those
// arrays are recycled, not regrown. The append-and-drop buffers spent
// over 800 bytes per record on this load.
func TestLoaderReusesBufferArrays(t *testing.T) {
	recs := dataset.GenerateLandsEnd(60000, 34)
	tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 10})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := NewBulkLoader(tr, BulkLoadConfig{MemoryBytes: 1 << 20, RecordBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := bl.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if perRec := (after.TotalAlloc - before.TotalAlloc) / uint64(len(recs)); perRec > 500 {
		t.Fatalf("load allocated %d bytes per record, want <= 500", perRec)
	}
}

// TestBulkLoadAllocsPerRecord pins the objects a buffer-tree load
// allocates per record — what rplustree.bulk_allocs_per_record reports
// at benchmark scale. A node holds no routing region of its own (regions
// are derived from the tries), so a split allocates one array for the two
// halves' MBRs and one for their trie leaves; routing delivers each share
// as its walk cuts it, so a routed batch allocates no list of shares.
func TestBulkLoadAllocsPerRecord(t *testing.T) {
	recs := dataset.GenerateLandsEnd(20000, 1)
	perRec := testing.AllocsPerRun(1, func() {
		tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 10})
		if err != nil {
			t.Fatal(err)
		}
		bl, err := NewBulkLoader(tr, BulkLoadConfig{MemoryBytes: 8 << 20, RecordBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		if err := bl.InsertBatch(recs); err != nil {
			t.Fatal(err)
		}
		if err := bl.Flush(); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(recs))
	t.Logf("%.4f objects allocated per record", perRec)
	if perRec > 0.63 {
		t.Fatalf("bulk load allocates %.4f objects per record, want <= 0.63", perRec)
	}
}

// TestInsertAllocsPerRecord pins the objects a tuple load allocates per
// record, what every durable store's preload pays: a leaf split ranks its
// axes and samples their values on the stack, and its context stays there
// too; of its two halves only the right is copied, and neither regrows
// before it splits.
func TestInsertAllocsPerRecord(t *testing.T) {
	recs := dataset.GenerateLandsEnd(20000, 1)
	perRec := testing.AllocsPerRun(1, func() {
		tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := tr.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(recs))
	t.Logf("%.4f objects allocated per record", perRec)
	if perRec > 0.43 {
		t.Fatalf("tuple insert allocates %.4f objects per record, want <= 0.43", perRec)
	}
}

// TestDeleteInsertAllocs pins a delete and re-insert of one record that
// leaves its leaf at or above BaseK at zero allocations: Delete retightens
// the boxes on its path in place, and the leaf's array has room again.
func TestDeleteInsertAllocs(t *testing.T) {
	recs := dataset.GenerateLandsEnd(20000, 1)
	tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	var rec attr.Record
	for _, l := range tr.Leaves() {
		if l.Size() > 10 {
			rec = l.Record(0)
			break
		}
	}
	if rec.QI == nil || tr.Height() < 3 {
		t.Fatalf("no leaf above BaseK on a path of 3 levels (height %d)", tr.Height())
	}
	allocs := testing.AllocsPerRun(100, func() {
		if found, err := tr.Delete(rec.ID, rec.QI); !found || err != nil {
			t.Fatalf("delete: found %v, %v", found, err)
		}
		if err := tr.Insert(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("delete+insert allocates %v objects, want 0", allocs)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
