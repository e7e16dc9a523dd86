package wal

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/detrng"
	"spatialanon/internal/fault"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

func testOpts(t *testing.T, k int) Options {
	t.Helper()
	return Options{
		Dir:    t.TempDir(),
		Tree:   rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: k},
		NoSync: true,
	}
}

func makeRecords(schema *attr.Schema, n int, seed int64) []attr.Record {
	rng := detrng.New(seed)
	dims := schema.Dims()
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

func storeRecords(s *Store) map[int64]attr.Record {
	out := make(map[int64]attr.Record)
	for _, l := range s.Tree().Leaves() {
		for _, r := range rows(l) {
			out[r.ID] = r
		}
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

func sameRecords(a, b map[int64]attr.Record) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d records vs %d", len(a), len(b))
	}
	for id, ra := range a {
		rb, ok := b[id]
		if !ok {
			return fmt.Errorf("record %d missing", id)
		}
		if ra.Sensitive != rb.Sensitive || len(ra.QI) != len(rb.QI) {
			return fmt.Errorf("record %d differs", id)
		}
		for d := range ra.QI {
			if ra.QI[d] != rb.QI[d] {
				return fmt.Errorf("record %d QI[%d] differs", id, d)
			}
		}
	}
	return nil
}

func TestStoreCreateReopen(t *testing.T) {
	opts := testOpts(t, 4)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(opts.Tree.Schema, 120, 1)
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if found, err := s.Delete(recs[5].ID, recs[5].QI); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	moved := recs[6]
	moved.QI = append([]float64(nil), recs[6].QI...)
	moved.QI[0] += 17
	if found, err := s.Update(recs[6].ID, recs[6].QI, moved); err != nil || !found {
		t.Fatalf("update: found=%v err=%v", found, err)
	}
	rel, err := s.Release(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Release(rel, anonmodel.KAnonymity{K: 4}); err != nil {
		t.Fatal(err)
	}
	before := storeRecords(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.RecoveryStats()
	if st.Replayed != 122 {
		t.Errorf("replayed %d ops, want 122", st.Replayed)
	}
	if s2.Seq() != 122 {
		t.Errorf("seq %d, want 122", s2.Seq())
	}
	if err := sameRecords(before, storeRecords(s2)); err != nil {
		t.Fatalf("reopened store differs: %v", err)
	}
	// The reopened store is live.
	if err := s2.Insert(attr.Record{ID: 9001, QI: recs[0].QI, Sensitive: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Release(0); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCheckpointTruncatesLog(t *testing.T) {
	opts := testOpts(t, 3)
	opts.CheckpointEvery = 25
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(opts.Tree.Schema, 103, 2)
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	before := storeRecords(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.RecoveryStats()
	// 103 inserts with a checkpoint every 25: the log tail holds only
	// the 3 operations after the last checkpoint.
	if st.Replayed != 3 {
		t.Errorf("replayed %d ops, want 3", st.Replayed)
	}
	if st.CheckpointSeq != 100 {
		t.Errorf("checkpoint folds %d ops, want 100", st.CheckpointSeq)
	}
	if st.SnapshotPages == 0 || st.SnapshotBytes == 0 || st.PagerReads == 0 {
		t.Errorf("recovery read no snapshot: %+v", st)
	}
	if s2.Seq() != 103 {
		t.Errorf("seq %d, want 103", s2.Seq())
	}
	if err := sameRecords(before, storeRecords(s2)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreExplicitCheckpointAndPageReuse(t *testing.T) {
	opts := testOpts(t, 3)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := makeRecords(opts.Tree.Schema, 40, 3)
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Old snapshot pages are freed at each checkpoint, so the disk
	// holds only the live snapshot.
	onDisk, err := s.pg.DiskPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != len(s.live) {
		t.Errorf("disk holds %d pages, live snapshot uses %d", len(onDisk), len(s.live))
	}
}

func TestStoreDeleteAbsent(t *testing.T) {
	opts := testOpts(t, 3)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(opts.Tree.Schema, 20, 4)
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if found, err := s.Delete(777, recs[0].QI); err != nil || found {
		t.Fatalf("absent delete: found=%v err=%v", found, err)
	}
	if found, err := s.Update(888, recs[0].QI, recs[0]); err != nil || found {
		t.Fatalf("absent update: found=%v err=%v", found, err)
	}
	before := storeRecords(s)
	s.Close()
	// The no-op operations are logged (write-ahead logs before it
	// knows); replay tolerates them.
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 22 {
		t.Errorf("seq %d, want 22", s2.Seq())
	}
	if err := sameRecords(before, storeRecords(s2)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReleaseGranularity(t *testing.T) {
	opts := testOpts(t, 3)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range makeRecords(opts.Tree.Schema, 90, 5) {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Release(2); err == nil {
		t.Error("granularity below base k accepted")
	}
	coarse, err := s.Release(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Release(coarse, anonmodel.KAnonymity{K: 9}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreReleaseWithheldOnDuplicateID: a release is proven from the
// leaves it is cut from, on every call — not waved through on the
// verdict of the audit that ran when the store was opened. Two live
// records sharing an ID make every release unsafe (the auditor's
// no-record-twice rule), so the store must withhold them all; after a
// checkpoint the recovery gate proves the same family and refuses the
// reopen outright, so nothing can be released from that state either.
func TestStoreReleaseWithheldOnDuplicateID(t *testing.T) {
	opts := testOpts(t, 2)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(opts.Tree.Schema, 8, 9)
	recs[5].ID = recs[0].ID
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	want := fmt.Sprintf("verify: record %d published in partitions", recs[0].ID)
	withheld := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s served a store holding record %d twice", what, recs[0].ID)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %v, want the auditor's %q", what, err, want)
		}
	}
	_, err = s.Release(0)
	withheld("Release(0)", err)
	_, err = s.Release(4)
	withheld("Release(4)", err)

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err == nil {
		s2.Close()
	}
	withheld("Open after checkpoint", err)
}

func TestStoreCreateRefusesExisting(t *testing.T) {
	opts := testOpts(t, 3)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Create(opts); err == nil {
		t.Fatal("second Create on the same directory accepted")
	}
}

// TestOpenMissingStore: Open of an empty directory, or of an empty FS,
// fails, naming the log's path (with the directory when there is one).
func TestOpenMissingStore(t *testing.T) {
	opts := testOpts(t, 3)
	mem := Options{FS: newMemFS(), Tree: opts.Tree, NoSync: true}
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{opts, "wal: no store: open " + filepath.Join(opts.Dir, logName) + ": "},
		{mem, "wal: no store: open wal.log: "},
	} {
		if _, err := Open(tc.opts); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Open of a missing store: %v, want %q…", err, tc.want)
		}
	}
}

// TestCreateMakesMissingDirectories: Create makes every missing directory
// of its Dir (syncing each one's parent), and the store reopens there.
func TestCreateMakesMissingDirectories(t *testing.T) {
	opts := testOpts(t, 3)
	opts.Dir = filepath.Join(opts.Dir, "a", "b")
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestOpenRejectsDamagedSnapshot(t *testing.T) {
	opts := testOpts(t, 3)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range makeRecords(opts.Tree.Schema, 40, 6) {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Bit rot inside the checkpoint image: the page checksum catches
	// it and recovery refuses to build a tree from it.
	if err := s.pg.FlipBit(s.live[0], 137); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(opts); err == nil {
		t.Fatal("recovery from damaged snapshot accepted")
	}
}

func TestStoreDiesOnCrashAndRefusesService(t *testing.T) {
	opts := testOpts(t, 3)
	crash := &fault.Crash{At: 20}
	opts.AppendFault, opts.PagerFault = crash.Log, crash.Disk
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(opts.Tree.Schema, 60, 7)
	died := false
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			if !crashed(err) {
				t.Fatalf("non-crash failure: %v", err)
			}
			died = true
			break
		}
	}
	if !died {
		t.Fatal("crash point never fired")
	}
	// The store is poisoned: no further operations, no releases.
	if err := s.Insert(recs[0]); !crashed(err) {
		t.Fatalf("insert after crash: %v", err)
	}
	if _, err := s.Release(0); !crashed(err) {
		t.Fatalf("release after crash: %v", err)
	}
	if s.Err() == nil {
		t.Fatal("Err reports healthy after crash")
	}
	s.Close()

	// Recovery without the crash policy converges to an audited state.
	opts.AppendFault, opts.PagerFault = nil, nil
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Release(0); err != nil {
		t.Fatal(err)
	}
}

// TestStoreIngressValidation: nothing the recovery path refuses may
// ever be committed to the WAL. A wrong-dimensionality record would
// fail tree ops on replay; a NaN coordinate would be folded into the
// next checkpoint, which DecodeCheckpoint rejects — making every later
// Open fail permanently. Both must be rejected before the log append,
// leaving the store alive and the log replayable.
func TestStoreIngressValidation(t *testing.T) {
	opts := testOpts(t, 3)
	opts.CheckpointEvery = 4
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(opts.Tree.Schema, 12, 11)
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	seq := s.Seq()

	dims := opts.Tree.Schema.Dims()
	badQI := func(mut func(qi []float64)) []float64 {
		qi := append([]float64(nil), recs[0].QI...)
		mut(qi)
		return qi
	}
	rejected := []struct {
		name string
		op   func() error
	}{
		{"insert short", func() error {
			return s.Insert(attr.Record{ID: 900, QI: make([]float64, dims-1)})
		}},
		{"insert long", func() error {
			return s.Insert(attr.Record{ID: 901, QI: make([]float64, dims+1)})
		}},
		{"insert NaN", func() error {
			return s.Insert(attr.Record{ID: 902, QI: badQI(func(qi []float64) { qi[0] = math.NaN() })})
		}},
		{"insert Inf", func() error {
			return s.Insert(attr.Record{ID: 903, QI: badQI(func(qi []float64) { qi[dims-1] = math.Inf(1) })})
		}},
		{"delete short", func() error {
			_, err := s.Delete(recs[1].ID, make([]float64, dims-1))
			return err
		}},
		{"delete NaN", func() error {
			_, err := s.Delete(recs[1].ID, badQI(func(qi []float64) { qi[0] = math.NaN() }))
			return err
		}},
		{"update bad old", func() error {
			_, err := s.Update(recs[2].ID, make([]float64, dims+1), recs[2])
			return err
		}},
		{"update NaN new", func() error {
			bad := recs[2].Clone()
			bad.QI[0] = math.NaN()
			_, err := s.Update(recs[2].ID, recs[2].QI, bad)
			return err
		}},
	}
	for _, tc := range rejected {
		if err := tc.op(); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	if s.Err() != nil {
		t.Fatalf("store poisoned by rejected input: %v", s.Err())
	}
	if s.Seq() != seq {
		t.Fatalf("rejected operations reached the log: seq %d, want %d", s.Seq(), seq)
	}

	// The store still serves, checkpoints, and — crucially — reopens:
	// no unrecoverable record ever hit the WAL or a checkpoint.
	if err := s.Insert(attr.Record{ID: 904, QI: recs[0].Clone().QI, Sensitive: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := storeRecords(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen after rejected inputs: %v", err)
	}
	defer s2.Close()
	if err := sameRecords(want, storeRecords(s2)); err != nil {
		t.Fatal(err)
	}
	if err := verify.Tree(s2.Tree(), verify.TreeOptions{}); err != nil {
		t.Fatal(err)
	}
}
