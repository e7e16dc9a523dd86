package rplustree

import (
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
			for _, r := range l.Records {
				ids = append(ids, r.ID)
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

func TestBufferSplitSafetyNet(t *testing.T) {
	// Force the safety-net path: block records in the root buffer, then
	// split the root directly via tuple inserts. The blocked records
	// must survive into the halves' buffers and flush correctly.
	tr, bl := newLoader(t, 2, smallMem)
	blocked := dataset.GeneratePatients(3, 26)
	for i := range blocked {
		blocked[i].ID += 500
	}
	if err := bl.InsertBatch(blocked); err != nil {
		t.Fatal(err)
	}
	// Direct inserts bypass the buffers and split the root leaf.
	for _, r := range dataset.GeneratePatients(50, 27) {
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 53 {
		t.Fatalf("Len = %d, want 53", tr.Len())
	}
	found := 0
	for _, l := range tr.Leaves() {
		for _, r := range l.Records {
			if r.ID >= 500 && r.ID < 600 {
				found++
			}
		}
	}
	if found != 3 {
		t.Fatalf("blocked records surviving: %d of 3", found)
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

// TestPendingCountsFollowTheBuffers: node.pending — what Flush steers
// by — stays the number of records blocked beneath each node while
// batches descend lazily, while direct inserts split buffered nodes (the
// splitBuffer safety net) and while deletions repair underflows on
// buffered chains. CheckInvariants recomputes it at every node.
func TestPendingCountsFollowTheBuffers(t *testing.T) {
	tr, bl := newLoader(t, 3, smallMem)
	recs := dataset.GeneratePatients(6000, 31)
	check := func(when string) {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for i := 0; i < 5000; i += 250 {
		if err := bl.InsertBatch(recs[i : i+250]); err != nil {
			t.Fatal(err)
		}
		check("between buffered batches")
	}
	if tr.root.pending == 0 {
		t.Fatal("nothing is blocked in a buffer; the test exercises nothing")
	}
	for _, r := range recs[5000:5600] { // direct inserts under pending buffers
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	check("after direct inserts")
	var victims []attr.Record // copied out first: leaf views alias arrays the deletions shift
	for _, l := range tr.Leaves() {
		if victims = append(victims, l.Records...); len(victims) > 400 {
			break
		}
	}
	deleted := len(victims)
	for _, r := range victims {
		if found, err := tr.Delete(r.ID, r.QI); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", r.ID, found, err)
		}
	}
	check("after underflow repairs")
	blocked := tr.root.pending
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after the flush")
	if tr.root.pending != 0 || bl.free != nil {
		t.Fatalf("after a flush: %d records pending, %d arrays kept", tr.root.pending, len(bl.free))
	}
	if want := 5600 - deleted; tr.Len() != want || blocked == 0 {
		t.Fatalf("Len %d, want %d (%d were blocked before the flush)", tr.Len(), want, blocked)
	}
}

// TestInsertFlushesOnePath: with a loader attached, an insert followed by
// a flush — what core.RTreeAnonymizer.Insert does — works along one
// root-to-leaf path. The old walk visited, and allocated a child list
// for, every node of the tree.
func TestInsertFlushesOnePath(t *testing.T) {
	tr, bl := newLoader(t, 5, BulkLoadConfig{})
	if err := bl.InsertBatch(dataset.GeneratePatients(20000, 32)); err != nil {
		t.Fatal(err)
	}
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	nodes := 0
	tr.walkLeaves(tr.root, func(*node) { nodes++ })
	extra := dataset.GeneratePatients(300, 33)
	i := 0
	allocs := testing.AllocsPerRun(len(extra)-1, func() {
		extra[i].ID += 1 << 20
		if err := bl.Insert(extra[i]); err != nil {
			t.Fatal(err)
		}
		if err := bl.Flush(); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if nodes < 1000 || allocs > 60 {
		t.Fatalf("insert + flush allocates %.0f times on a tree of %d leaves; want a path's worth", allocs, nodes)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLoaderReusesBufferArrays: a load allocates far less than the
// records it moves — every record passes a buffer per level, and those
// arrays are recycled, not regrown. The append-and-drop buffers spent
// over 800 bytes per record on this load.
func TestLoaderReusesBufferArrays(t *testing.T) {
	recs := dataset.GenerateLandsEnd(60000, 34)
	tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 10, Parallelism: 1})
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
// are derived from the tries), so a split allocates no box beyond the two
// halves' MBRs.
func TestBulkLoadAllocsPerRecord(t *testing.T) {
	recs := dataset.GenerateLandsEnd(20000, 1)
	perRec := testing.AllocsPerRun(1, func() {
		tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 10, Parallelism: 1})
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
	if perRec > 1.51 {
		t.Fatalf("bulk load allocates %.4f objects per record, want <= 1.51", perRec)
	}
}
