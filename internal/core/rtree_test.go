package core

import (
	"errors"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/fault"
	"spatialanon/internal/pager"
	"spatialanon/internal/quality"
	"spatialanon/internal/rplustree"
)

func newPatientRT(t *testing.T, k int, bulk bool) *RTreeAnonymizer {
	t.Helper()
	cfg := RTreeConfig{Schema: dataset.PatientsSchema(), BaseK: k}
	if bulk {
		cfg.BulkLoad = &rplustree.BulkLoadConfig{PageSize: 256, MemoryBytes: 256 * 256, RecordBytes: 12}
	}
	a, err := NewRTreeAnonymizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRTreeAnonymizerValidation(t *testing.T) {
	if _, err := NewRTreeAnonymizer(RTreeConfig{}); err == nil {
		t.Fatal("nil schema accepted")
	}
	s := dataset.PatientsSchema()
	if _, err := NewRTreeAnonymizer(RTreeConfig{Schema: s}); err == nil {
		t.Fatal("no constraint and no BaseK accepted")
	}
	if _, err := NewRTreeAnonymizer(RTreeConfig{Schema: s, BaseK: 3, Constraint: anonmodel.KAnonymity{K: 10}}); err == nil {
		t.Fatal("BaseK below constraint minimum accepted")
	}
	a, err := NewRTreeAnonymizer(RTreeConfig{Schema: s, BaseK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Constraint().MinSize() != 5 {
		t.Fatalf("derived constraint %v", a.Constraint())
	}
	b, err := NewRTreeAnonymizer(RTreeConfig{Schema: s, Constraint: anonmodel.KAnonymity{K: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Tree().Config().BaseK != 7 {
		t.Fatalf("derived BaseK %d", b.Tree().Config().BaseK)
	}
}

func TestRTreePartitionsSatisfyGranularities(t *testing.T) {
	for _, bulk := range []bool{false, true} {
		a := newPatientRT(t, 5, bulk)
		if err := a.Load(dataset.GeneratePatients(2000, 91)); err != nil {
			t.Fatal(err)
		}
		if a.Len() != 2000 {
			t.Fatalf("Len = %d", a.Len())
		}
		// Granularities derived by leaf scan from the same base-5 index —
		// the exact regime of Figure 7(a).
		for _, k := range []int{5, 10, 25, 50, 100} {
			ps, err := a.Partitions(k)
			if err != nil {
				t.Fatalf("bulk=%v k=%d: %v", bulk, k, err)
			}
			if err := anonmodel.CheckAnonymity(ps, anonmodel.KAnonymity{K: k}); err != nil {
				t.Fatalf("bulk=%v k=%d: %v", bulk, k, err)
			}
			if anonmodel.TotalRecords(ps) != 2000 {
				t.Fatalf("bulk=%v k=%d: lost records", bulk, k)
			}
		}
		if _, err := a.Partitions(3); err == nil {
			t.Fatal("granularity below base k accepted")
		}
	}
}

func TestRTreeIncrementalQualityClose(t *testing.T) {
	// Section 5.3 / Figure 11: incrementally-built index quality is
	// comparable to bulk-built quality. We assert within 40% on CM.
	s := dataset.PatientsSchema()
	recs := dataset.GeneratePatients(3000, 94)

	bulk := newPatientRT(t, 10, false)
	if err := bulk.Load(recs); err != nil {
		t.Fatal(err)
	}
	inc := newPatientRT(t, 10, false)
	for i := 0; i < len(recs); i += 500 {
		if err := inc.Load(recs[i : i+500]); err != nil {
			t.Fatal(err)
		}
	}
	domain := attr.DomainOf(s.Dims(), recs)
	pb, err := bulk.Partitions(0)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := inc.Partitions(0)
	if err != nil {
		t.Fatal(err)
	}
	cmB := quality.Certainty(s, pb, domain)
	cmI := quality.Certainty(s, pi, domain)
	if cmI > cmB*1.4 {
		t.Fatalf("incremental CM %v much worse than bulk %v", cmI, cmB)
	}
	if err := inc.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRTreeDeleteUpdateMaintainsAnonymity(t *testing.T) {
	a := newPatientRT(t, 5, false)
	recs := dataset.GeneratePatients(800, 95)
	if err := a.Load(recs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if found, err := a.Delete(recs[i].ID, recs[i].QI); err != nil || !found {
			t.Fatalf("delete %d failed", recs[i].ID)
		}
	}
	moved := recs[300].Clone()
	moved.QI[0] += 5
	updated, err := a.Update(recs[300].ID, recs[300].QI, moved)
	if err != nil {
		t.Fatal(err)
	}
	if !updated {
		t.Fatal("update failed")
	}
	ps, err := a.Partitions(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(ps, anonmodel.KAnonymity{K: 5}); err != nil {
		t.Fatal(err)
	}
	if anonmodel.TotalRecords(ps) != 600 {
		t.Fatalf("published %d records", anonmodel.TotalRecords(ps))
	}
}

func TestRTreeWithLDiversityGuard(t *testing.T) {
	cons := anonmodel.LDiversity{K: 5, L: 3}
	a, err := NewRTreeAnonymizer(RTreeConfig{Schema: dataset.PatientsSchema(), Constraint: cons})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Load(dataset.GeneratePatients(1000, 96)); err != nil {
		t.Fatal(err)
	}
	ps, err := a.Partitions(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(ps, cons); err != nil {
		t.Fatal(err)
	}
	if err := a.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRTreeBufferedLoadAndSync(t *testing.T) {
	a := newPatientRT(t, 5, true)
	recs := dataset.GeneratePatients(1200, 99)
	// Stream in three pieces without flushing.
	for i := 0; i < 3; i++ {
		if err := a.LoadBuffered(recs[i*400 : (i+1)*400]); err != nil {
			t.Fatal(err)
		}
	}
	// The open load is the tree's only writer until Sync ends it.
	extra := attr.Record{ID: 9999, QI: recs[0].QI}
	if err := a.Tree().Insert(extra); !errors.Is(err, rplustree.ErrLoading) {
		t.Fatalf("tree Insert inside a LoadBuffered span: %v", err)
	}
	if r, w := a.IOStats(); r+w != 0 {
		t.Fatalf("an open load reported %d I/Os", r+w)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if r, w := a.IOStats(); r+w == 0 {
		t.Fatal("the closed load reported no I/O")
	}
	if a.Len() != 1200 {
		t.Fatalf("Len = %d", a.Len())
	}
	ps, err := a.Partitions(0)
	if err != nil {
		t.Fatal(err)
	}
	if anonmodel.TotalRecords(ps) != 1200 {
		t.Fatal("records lost in buffered load")
	}
	if err := a.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := a.Tree().Insert(extra); err != nil {
		t.Fatalf("tree Insert after Sync: %v", err)
	}
	// Without a loader, LoadBuffered degrades to Load and Sync is a
	// no-op.
	b := newPatientRT(t, 5, false)
	if err := b.LoadBuffered(recs[:100]); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 100 {
		t.Fatalf("tuple-path Len = %d", b.Len())
	}
}

func TestRTreeInsertSingle(t *testing.T) {
	for _, bulk := range []bool{false, true} {
		a := newPatientRT(t, 3, bulk)
		if err := a.Load(dataset.GeneratePatients(100, 98)); err != nil {
			t.Fatal(err)
		}
		extra := dataset.GeneratePatients(1, 97)[0]
		extra.ID = 5000
		if err := a.Insert(extra); err != nil {
			t.Fatalf("bulk=%v: %v", bulk, err)
		}
		if a.Len() != 101 {
			t.Fatalf("bulk=%v: Len = %d", bulk, a.Len())
		}
		// Dimension mismatch surfaces on both paths.
		if err := a.Insert(attr.Record{QI: []float64{1}}); err == nil {
			t.Fatalf("bulk=%v: dimension mismatch accepted", bulk)
		}
	}
}

func TestRTreeNames(t *testing.T) {
	if newPatientRT(t, 3, false).Name() != "rtree" {
		t.Fatal("tuple name")
	}
	if newPatientRT(t, 3, true).Name() != "rtree-buffer" {
		t.Fatal("buffer name")
	}
}

func TestRTreeAnonymizeInterface(t *testing.T) {
	a := newPatientRT(t, 5, false)
	ps, err := a.Anonymize(dataset.GeneratePatients(300, 96))
	if err != nil {
		t.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(ps, anonmodel.KAnonymity{K: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestRTreeIOStats(t *testing.T) {
	a := newPatientRT(t, 5, true)
	if err := a.Load(dataset.GeneratePatients(3000, 97)); err != nil {
		t.Fatal(err)
	}
	r, w := a.IOStats()
	if r+w == 0 {
		t.Fatal("bulk load under tiny memory did no I/O")
	}
	b := newPatientRT(t, 5, false)
	if err := b.Load(dataset.GeneratePatients(100, 98)); err != nil {
		t.Fatal(err)
	}
	if r, w := b.IOStats(); r != 0 || w != 0 {
		t.Fatal("tuple load reported I/O")
	}
}

// TestMaintenanceAfterLoadChargesNoIO: the bulk loader is closed when its
// load ends, so tuple-at-a-time maintenance afterwards — 2 000 inserts and
// 1 500 deletes with their underflow repairs — charges no I/O. The leaf
// digest is pinned: maintenance builds the same leaves it built when the
// loader stayed attached and charged for it.
func TestMaintenanceAfterLoadChargesNoIO(t *testing.T) {
	recs := dataset.GenerateLandsEnd(22000, 43)
	a, err := NewRTreeAnonymizer(RTreeConfig{
		Schema: dataset.LandsEndSchema(), BaseK: 10,
		BulkLoad: &rplustree.BulkLoadConfig{MemoryBytes: 1 << 20, RecordBytes: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Load(recs[:20000]); err != nil {
		t.Fatal(err)
	}
	reads, writes := a.IOStats()
	if reads+writes == 0 {
		t.Fatal("the load charged no I/O; the test exercises nothing")
	}
	for _, r := range recs[20000:] {
		if err := a.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range recs[:1500] {
		if found, err := a.Delete(r.ID, r.QI); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", r.ID, found, err)
		}
	}
	r, w := a.IOStats()
	t.Logf("load %d+%d I/Os, after maintenance %d+%d", reads, writes, r, w)
	if r != reads || w != writes {
		t.Errorf("maintenance charged %d reads and %d writes after the load", r-reads, w-writes)
	}
	if err := a.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	const pinned uint64 = 0x8bf98405b6e54104
	if got := releaseDigest(a.Tree().Leaves()); got != pinned {
		t.Errorf("leaf digest %#x, pinned %#x", got, pinned)
	}
}

// readFault is a loader disk whose reads fail permanently once armed,
// until repaired.
type readFault struct {
	pager.Disk
	raw pager.Disk
}

func (d *readFault) wrap(disk pager.Disk) pager.Disk {
	d.Disk, d.raw = fault.NewInjector(1, fault.Config{PermanentReadRate: 1, After: 60}).Disk(disk), disk
	return d
}

// TestFailedLoadSyncsLater: a bulk Load that fails on its disk leaves
// its load open without holding on to the caller's slice; once the
// storage is repaired, Sync finishes the load with the records Load was
// given.
func TestFailedLoadSyncsLater(t *testing.T) {
	dev := &readFault{}
	a, err := NewRTreeAnonymizer(RTreeConfig{
		Schema: dataset.PatientsSchema(), BaseK: 5,
		BulkLoad: &rplustree.BulkLoadConfig{PageSize: 256, MemoryBytes: 16 * 256, RecordBytes: 16, Fault: dev.wrap},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := dataset.GeneratePatients(2000, 44)
	ids := make(map[int64]bool, len(recs))
	for _, r := range recs {
		ids[r.ID] = true
	}
	if err := a.Load(recs); err == nil {
		t.Fatal("Load on a failing disk succeeded")
	}
	for i := range recs {
		recs[i] = attr.Record{ID: -1}
	}
	dev.Disk = dev.raw
	if err := a.Sync(); err != nil {
		t.Fatalf("Sync after repair: %v", err)
	}
	if err := a.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, l := range a.Tree().Leaves() {
		for i := range l.Size() {
			if id := l.Record(i).ID; !ids[id] {
				t.Fatalf("record %d in the tree was never loaded", id)
			}
			delete(ids, l.Record(i).ID)
		}
	}
	if len(ids) > 0 {
		t.Fatalf("%d loaded records missing from the tree", len(ids))
	}
}
