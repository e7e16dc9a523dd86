package wal

import (
	"reflect"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/pager"
)

func roundTrip(t *testing.T, r Record) Record {
	t.Helper()
	payload, err := Encode(r)
	if err != nil {
		t.Fatalf("encode %v: %v", r.Type, err)
	}
	got, err := Decode(payload)
	if err != nil {
		t.Fatalf("decode %v: %v", r.Type, err)
	}
	return got
}

func TestRecordRoundTrip(t *testing.T) {
	rec := attr.Record{ID: 42, QI: []float64{1.5, -2.25, 0}, Sensitive: "flu"}
	cases := []Record{
		{Type: TypeBatch, Seq: 7, Batch: []Op{{Type: TypeInsert, Rec: rec}}},
		{Type: TypeBatch, Seq: 8, Batch: []Op{{Type: TypeDelete, ID: 42, OldQI: []float64{1.5, -2.25, 0}}}},
		{Type: TypeBatch, Seq: 9, Batch: []Op{{Type: TypeUpdate, ID: 42, OldQI: []float64{1, 2, 3}, Rec: rec}}},
		{Type: TypeCheckpointBegin, Seq: 10},
		{Type: TypeCheckpointEnd, Seq: 11, Manifest: &Manifest{
			Seq: 11, DirLen: 4096, DirCRC: 0xDEADBEEF,
			DirPages: []pager.PageID{3, 1, 9},
		}},
	}
	for _, want := range cases {
		got := roundTrip(t, want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: round trip\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

func TestRecordRoundTripEmptyFields(t *testing.T) {
	got := roundTrip(t, Record{Type: TypeBatch, Seq: 1, Batch: []Op{{Type: TypeInsert, Rec: attr.Record{ID: 1}}}})
	if r := got.Batch[0].Rec; r.ID != 1 || len(r.QI) != 0 || r.Sensitive != "" {
		t.Fatalf("empty-field record mangled: %+v", r)
	}
	got = roundTrip(t, Record{Type: TypeCheckpointEnd, Seq: 0, Manifest: &Manifest{}})
	if got.Manifest == nil || len(got.Manifest.DirPages) != 0 {
		t.Fatalf("empty manifest mangled: %+v", got.Manifest)
	}
}

func TestEncodeRejectsBadRecords(t *testing.T) {
	if _, err := Encode(Record{Type: TypeCheckpointEnd}); err == nil {
		t.Error("checkpoint-end without manifest accepted")
	}
	if _, err := Encode(Record{Type: Type(99)}); err == nil {
		t.Error("unknown type accepted")
	}
	for _, ty := range []Type{TypeInsert, TypeDelete, TypeUpdate} {
		if _, err := Encode(Record{Type: ty, Seq: 1}); err == nil {
			t.Errorf("frame-level %v accepted by Encode", ty)
		}
	}
}

// singleOpFrame hand-assembles the retired frame-level encoding of one
// op: [tag][seq][op body], i.e. a one-op batch minus count and op tag.
func singleOpFrame(t *testing.T, op Op) []byte {
	t.Helper()
	batch, err := Encode(Record{Type: TypeBatch, Seq: 3, Batch: []Op{op}})
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte{byte(op.Type)}, batch[1:9]...)
	return append(frame, batch[9+4+1:]...)
}

// TestDecodeRejectsFrameLevelOps: insert/delete/update are op tags
// inside a batch frame only. A frame whose own type byte is 1, 2 or 3
// — well-formed body or not — is an error, never a panic.
func TestDecodeRejectsFrameLevelOps(t *testing.T) {
	rec := attr.Record{ID: 5, QI: []float64{3, 4}, Sensitive: "x"}
	for _, op := range []Op{
		{Type: TypeInsert, Rec: rec},
		{Type: TypeDelete, ID: 5, OldQI: []float64{1, 2}},
		{Type: TypeUpdate, ID: 5, OldQI: []float64{1, 2}, Rec: rec},
	} {
		frame := singleOpFrame(t, op)
		for cut := 0; cut <= len(frame); cut++ {
			if _, err := Decode(frame[:cut]); err == nil {
				t.Fatalf("frame-level %v (%d of %d bytes) accepted", op.Type, cut, len(frame))
			}
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	payload, err := Encode(Record{Type: TypeBatch, Seq: 3, Batch: []Op{{Type: TypeUpdate, ID: 5,
		OldQI: []float64{1, 2}, Rec: attr.Record{ID: 5, QI: []float64{3, 4}, Sensitive: "x"}}}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, err := Decode(payload[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := Decode(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := Decode([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("unknown type byte accepted")
	}
	// A vector length no payload could hold is rejected before
	// allocation.
	huge, _ := Encode(Record{Type: TypeBatch, Seq: 1, Batch: []Op{{Type: TypeDelete, ID: 1}}})
	huge[len(huge)-4] = 0xFF
	huge[len(huge)-3] = 0xFF
	if _, err := Decode(huge); err == nil {
		t.Error("oversized vector length accepted")
	}
}

func TestTypeString(t *testing.T) {
	for _, ty := range []Type{TypeInsert, TypeDelete, TypeUpdate, TypeCheckpointBegin, TypeCheckpointEnd, TypeBatch} {
		if s := ty.String(); s == "" || s[:4] == "wal." {
			t.Errorf("type %d has no name", byte(ty))
		}
	}
	if Type(200).String() != "wal.Type(200)" {
		t.Errorf("unknown type string: %q", Type(200).String())
	}
}
