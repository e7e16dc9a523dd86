package rplustree

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/fault"
	"spatialanon/internal/pager"
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

// TestLoaderReusesBufferArrays: a streamed load allocates far less than
// the records it moves — every record passes a buffer per level, and
// those arrays are recycled, not regrown. This load allocates 228 bytes
// per record; buffers of records rather than row numbers spent 320, and
// append-and-drop buffers over 800.
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
	if perRec := (after.TotalAlloc - before.TotalAlloc) / uint64(len(recs)); perRec > 408 {
		t.Fatalf("load allocated %d bytes per record, want <= 408", perRec)
	}
}

// TestBulkLoadAllocsPerRecord pins the objects a one-shot buffer-tree
// load allocates per record — what rplustree.bulk_allocs_per_record
// reports at benchmark scale. A node holds no routing region of its own
// (regions are derived from the tries), so a split allocates one array
// for the two halves' MBRs and one for their trie leaves; routing
// delivers each share as its walk cuts it, so a routed batch allocates no
// list of shares, and a delivery bounds its records in the loader's
// scratch box.
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
		if err := bl.Load(recs); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(recs))
	t.Logf("%.4f objects allocated per record", perRec)
	if perRec > 0.578 {
		t.Fatalf("bulk load allocates %.4f objects per record, want <= 0.578", perRec)
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

// leafRecords deep-copies every leaf's records, in leaf and record order.
func leafRecords(tr *Tree) [][]attr.Record {
	var out [][]attr.Record
	for _, l := range tr.Leaves() {
		recs := make([]attr.Record, l.Size())
		for i := range recs {
			recs[i] = l.Record(i).Clone()
		}
		out = append(out, recs)
	}
	return out
}

func sameRecords(a, b []attr.Record) bool {
	return slices.EqualFunc(a, b, func(x, y attr.Record) bool {
		return x.ID == y.ID && x.Sensitive == y.Sensitive && slices.Equal(x.QI, y.QI)
	})
}

// overwrite replaces every record of recs with one no load can route: a
// loader that still read the slice would panic on its nil QI.
func overwrite(recs []attr.Record) {
	for i := range recs {
		recs[i] = attr.Record{ID: -1}
	}
}

// pageFault is a loader disk that fails every access with a permanent
// fault once armed, until repaired.
type pageFault struct {
	pager.Disk
	raw pager.Disk
}

func (d *pageFault) wrap(disk pager.Disk) pager.Disk {
	inj := fault.NewInjector(1, fault.Config{PermanentReadRate: 1, PermanentWriteRate: 1, After: 60})
	d.Disk, d.raw = inj.Disk(disk), disk
	return d
}

// TestLoadBorrowsRows: a one-shot Load reads the caller's slice in place
// and lets go of it when it returns — the slice is unchanged, and
// overwriting it afterwards changes no leaf, also when the load failed
// and is finished later. The tree, its record order and the I/O charged
// are those of InsertBatch and Flush on the same records.
func TestLoadBorrowsRows(t *testing.T) {
	recs := dataset.GeneratePatients(3000, 41)
	orig := make([]attr.Record, len(recs))
	for i, r := range recs {
		orig[i] = r.Clone()
	}

	tr, bl := newLoader(t, 5, smallMem)
	if err := bl.Load(recs); err != nil {
		t.Fatal(err)
	}
	if tr.loader != nil {
		t.Fatal("Load left the loader attached")
	}
	if !sameRecords(recs, orig) {
		t.Fatal("Load changed the caller's slice")
	}
	streamed, sl := newLoader(t, 5, smallMem)
	if err := sl.InsertBatch(orig); err != nil {
		t.Fatal(err)
	}
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
	if bl.Stats() != sl.Stats() {
		t.Fatalf("Load charged %+v, InsertBatch and Flush %+v", bl.Stats(), sl.Stats())
	}
	loaded := leafRecords(tr)
	if !slices.EqualFunc(loaded, leafRecords(streamed), sameRecords) {
		t.Fatal("Load and InsertBatch+Flush built different leaves")
	}
	overwrite(recs)
	if !slices.EqualFunc(loaded, leafRecords(tr), sameRecords) {
		t.Fatal("overwriting the caller's slice changed the leaves")
	}

	// A permanent fault mid-load: the load fails with records still
	// buffered, the caller reuses its array, and once the storage is
	// repaired the load finishes with the original records.
	copy(recs, orig)
	dev := &pageFault{}
	tr, bl = newLoader(t, 5, BulkLoadConfig{PageSize: 256, MemoryBytes: 16 * 256, RecordBytes: 16, Fault: dev.wrap})
	if err := bl.Load(recs); err == nil {
		t.Fatal("Load on a failing disk succeeded")
	}
	if bl.buffered == 0 || tr.loader != bl {
		t.Fatalf("failed Load: %d rows buffered, loader attached %v", bl.buffered, tr.loader == bl)
	}
	overwrite(recs)
	dev.Disk = dev.raw
	if _, err := bl.Pager().Scrub(); err != nil {
		t.Fatal(err)
	}
	if err := bl.Close(); err != nil {
		t.Fatalf("Close after repair: %v", err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []attr.Record
	for _, l := range leafRecords(tr) {
		got = append(got, l...)
	}
	byID := func(a, b attr.Record) int { return int(a.ID - b.ID) }
	slices.SortFunc(got, byID)
	slices.SortFunc(orig, byID)
	if !sameRecords(got, orig) {
		t.Fatalf("recovered tree holds %d records, not the %d loaded", len(got), len(orig))
	}
}

// TestLoadRefusesPastRowNumbers: a load numbers its rows with a uint32;
// rows past that are refused before anything is blocked.
func TestLoadRefusesPastRowNumbers(t *testing.T) {
	tr, bl := newLoader(t, 5, smallMem)
	recs := dataset.GeneratePatients(2, 42)
	bl.rows.n = int(maxRows - 1)
	if err := bl.Load(recs); err == nil {
		t.Fatal("Load past 2^32 rows accepted")
	}
	bl.rows.n = int(maxRows)
	if err := bl.Insert(recs[0]); err == nil {
		t.Fatal("Insert past 2^32 rows accepted")
	}
	if bl.buffered != 0 || tr.Len() != 0 {
		t.Fatalf("refused rows moved: %d buffered, %d in the tree", bl.buffered, tr.Len())
	}
}

// TestBulkLoadBytesPerRecord pins what a one-shot load of 50 000 records
// allocates per record: the leaves' record arrays, the buffers' row
// numbers, one delivery scratch array and the pager's cost pages. Records
// descend as 4-byte row numbers; buffers that copied 48-byte records at
// every level allocated 307.484 B per record on this load. The pin holds
// to a thousandth of a byte: how the proxy-page map grows depends on its
// hash seed, by 16 bytes a load.
func TestBulkLoadBytesPerRecord(t *testing.T) {
	recs := dataset.GenerateLandsEnd(50000, 1)
	var best uint64 = math.MaxUint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 10})
		if err != nil {
			t.Fatal(err)
		}
		bl, err := NewBulkLoader(tr, BulkLoadConfig{MemoryBytes: 8 << 20, RecordBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		if err := bl.Load(recs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	got := float64(best) / float64(len(recs))
	t.Logf("%.5f B/record", got)
	pinned := 182.051
	if raceBuild {
		pinned = 182.933
	}
	if math.Abs(got-pinned) > 0.001 {
		t.Fatalf("a one-shot load allocates %.5f B per record; pinned %.3f", got, pinned)
	}
}
