package wal

import (
	"testing"

	"spatialanon/internal/attr"
)

// opsFromChurn converts scripted churn operations into batch ops.
func opsFromChurn(ops []churnOp) []Op {
	out := make([]Op, len(ops))
	for i, o := range ops {
		switch o.kind {
		case TypeInsert:
			out[i] = Op{Type: TypeInsert, Rec: o.rec}
		case TypeDelete:
			out[i] = Op{Type: TypeDelete, ID: o.rec.ID, OldQI: o.oldQI}
		case TypeUpdate:
			out[i] = Op{Type: TypeUpdate, ID: o.rec.ID, OldQI: o.oldQI, Rec: o.rec}
		}
	}
	return out
}

// TestBatchCodecRoundTrip pins the TypeBatch frame format: a batch of
// all three op kinds survives Encode/Decode exactly.
func TestBatchCodecRoundTrip(t *testing.T) {
	batch := []Op{
		{Type: TypeInsert, Rec: attr.Record{ID: 7, QI: []float64{1, 2}, Sensitive: "a"}},
		{Type: TypeDelete, ID: 3, OldQI: []float64{4, 5}},
		{Type: TypeUpdate, ID: 9, OldQI: []float64{6, 7}, Rec: attr.Record{ID: 9, QI: []float64{8, 9}, Sensitive: "b"}},
	}
	payload, err := Encode(Record{Type: TypeBatch, Seq: 42, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeBatch || got.Seq != 42 || len(got.Batch) != len(batch) {
		t.Fatalf("decoded %v seq=%d len=%d", got.Type, got.Seq, len(got.Batch))
	}
	for i, op := range got.Batch {
		want := batch[i]
		if op.Type != want.Type || op.ID != want.ID || op.Rec.ID != want.Rec.ID ||
			op.Rec.Sensitive != want.Rec.Sensitive {
			t.Fatalf("op %d decoded as %+v, want %+v", i, op, want)
		}
		for d := range want.OldQI {
			if op.OldQI[d] != want.OldQI[d] {
				t.Fatalf("op %d OldQI[%d] = %v, want %v", i, d, op.OldQI[d], want.OldQI[d])
			}
		}
		for d := range want.Rec.QI {
			if op.Rec.QI[d] != want.Rec.QI[d] {
				t.Fatalf("op %d QI[%d] = %v, want %v", i, d, op.Rec.QI[d], want.Rec.QI[d])
			}
		}
	}
	// Degenerate frames must error, not decode.
	if _, err := Encode(Record{Type: TypeBatch, Seq: 1}); err == nil {
		t.Fatal("encoded an empty batch")
	}
	if _, err := Encode(Record{Type: TypeBatch, Seq: 1, Batch: []Op{{Type: TypeBatch}}}); err == nil {
		t.Fatal("encoded a nested batch")
	}
}

// TestApplyBatchRoundTrip drives a churn workload through ApplyBatch
// in several chunkings and asserts the recovered state matches the
// per-op reference for each.
func TestApplyBatchRoundTrip(t *testing.T) {
	const nOps = 120
	for _, chunk := range []int{1, 7, 16, nOps} {
		opts := testOpts(t, 3)
		ops := churnWorkload(opts.Tree.Schema, 11, nOps)
		s, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		batchOps := opsFromChurn(ops)
		for off := 0; off < len(batchOps); off += chunk {
			end := off + chunk
			if end > len(batchOps) {
				end = len(batchOps)
			}
			found, err := s.ApplyBatch(batchOps[off:end])
			if err != nil {
				t.Fatalf("chunk=%d off=%d: %v", chunk, off, err)
			}
			if len(found) != end-off {
				t.Fatalf("chunk=%d: %d found flags for %d ops", chunk, len(found), end-off)
			}
		}
		if got, want := int(s.Seq()), nOps; got != want {
			t.Fatalf("chunk=%d: seq %d, want %d", chunk, got, want)
		}
		if err := sameRecords(shadowAfter(ops, nOps), storeRecords(s)); err != nil {
			t.Fatalf("chunk=%d before reopen: %v", chunk, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := Open(opts)
		if err != nil {
			t.Fatalf("chunk=%d: reopen: %v", chunk, err)
		}
		if got := int(r.Seq()); got != nOps {
			t.Fatalf("chunk=%d: recovered seq %d, want %d", chunk, got, nOps)
		}
		if err := sameRecords(shadowAfter(ops, nOps), storeRecords(r)); err != nil {
			t.Fatalf("chunk=%d after reopen: %v", chunk, err)
		}
		r.Close()
	}
}

// TestApplyBatchFoundFlags pins the per-op found semantics: inserts
// report true, deletes and updates report whether the target existed.
func TestApplyBatchFoundFlags(t *testing.T) {
	opts := testOpts(t, 2)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	qi := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	found, err := s.ApplyBatch([]Op{
		{Type: TypeInsert, Rec: attr.Record{ID: 1, QI: qi}},
		{Type: TypeDelete, ID: 1, OldQI: qi},
		{Type: TypeDelete, ID: 1, OldQI: qi},                                    // already gone
		{Type: TypeUpdate, ID: 99, OldQI: qi, Rec: attr.Record{ID: 99, QI: qi}}, // never existed
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, false}
	for i := range want {
		if found[i] != want[i] {
			t.Fatalf("found = %v, want %v", found, want)
		}
	}
}

// TestApplyBatchValidation: one malformed op rejects the whole batch
// BEFORE anything reaches the log, so the store stays clean and
// usable.
func TestApplyBatchValidation(t *testing.T) {
	opts := testOpts(t, 2)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	good := attr.Record{ID: 1, QI: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	if _, err := s.ApplyBatch([]Op{
		{Type: TypeInsert, Rec: good},
		{Type: TypeInsert, Rec: attr.Record{ID: 2, QI: []float64{1}}}, // wrong dims
	}); err == nil {
		t.Fatal("batch with invalid op accepted")
	}
	if got := s.Seq(); got != 0 {
		t.Fatalf("failed batch advanced seq to %d", got)
	}
	if s.Err() != nil {
		t.Fatalf("failed validation poisoned the store: %v", s.Err())
	}
	if _, err := s.ApplyBatch([]Op{{Type: TypeInsert, Rec: good}}); err != nil {
		t.Fatalf("store unusable after rejected batch: %v", err)
	}
	if got := s.Seq(); got != 1 {
		t.Fatalf("seq %d after one committed op", got)
	}
}

// TestTornBatchIsAllOrNothing cuts a committed batch frame at every
// byte boundary inside it and asserts recovery NEVER applies a prefix
// of the batch: the store either has all of the batch's ops or none.
func TestTornBatchIsAllOrNothing(t *testing.T) {
	opts := testOpts(t, 2)
	fs := newMemFS()
	opts.FS = fs
	ops := churnWorkload(opts.Tree.Schema, 5, 24)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	batchOps := opsFromChurn(ops)
	// First batch committed; second batch is the one we tear.
	if _, err := s.ApplyBatch(batchOps[:8]); err != nil {
		t.Fatal(err)
	}
	committed := len(fs.read(logName))
	if _, err := s.ApplyBatch(batchOps[8:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := fs.files(false)
	full := files[logName]
	for cut := committed; cut <= len(full); cut += 7 {
		files[logName] = full[:cut]
		o2 := opts
		o2.FS = memFSOf(files)
		r, err := Open(o2)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		seq := int(r.Seq())
		if seq != 8 && seq != 24 {
			t.Fatalf("cut=%d: recovered seq %d — a torn batch was partially applied", cut, seq)
		}
		if err := sameRecords(shadowAfter(ops, seq), storeRecords(r)); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		r.Close()
	}
}
