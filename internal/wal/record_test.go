package wal

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spatialanon/internal/attr"
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
		{Type: TypeCheckpointEnd, Seq: 11, Manifest: &Manifest{Seq: 11, Root: []byte{7, 0, 0, 0, 0xDE, 0xAD}}},
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
	if got.Manifest == nil || len(got.Manifest.Root) != 0 {
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
// op: [tag][seq][op body], i.e. a one-op batch minus dimensionality,
// count (one varint byte each) and op tag. Where the header ends is
// Encode's to say: a checkpoint-begin frame is the header alone.
func singleOpFrame(t *testing.T, op Op) []byte {
	t.Helper()
	head, err := Encode(Record{Type: TypeCheckpointBegin, Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Encode(Record{Type: TypeBatch, Seq: 3, Batch: []Op{op}})
	if err != nil {
		t.Fatal(err)
	}
	at := len(head)
	if len(batch) < at+3 || batch[at] >= 0x80 || batch[at+1] != 1 || Type(batch[at+2]) != op.Type {
		t.Fatalf("one-op batch frame % x does not follow its %d-byte header with dimensionality, count 1 and the op tag", batch, at)
	}
	frame := append([]byte{byte(op.Type)}, batch[1:at]...)
	return append(frame, batch[at+3:]...)
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
		OldQI: []float64{1, 2}, Rec: attr.Record{ID: 5, QI: []float64{3, 4.5}, Sensitive: "x"}}}})
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
	// The frame is [type][seq][dims][count][tag][id][old row: layout, 2
	// varints][id delta][new row: layout, 2×8][sensitive length]["x"]: a
	// dimensionality, an op count or a sensitive length no payload could
	// hold is rejected before allocation, as is each non-canonical form.
	const dimsAt, countAt, oldRowAt, newRowAt = 2, 3, 6, 10
	slenAt := len(payload) - 2
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	splice := func(at int, with ...byte) []byte {
		out := append([]byte(nil), payload[:at]...)
		return append(append(out, with...), payload[at+1:]...)
	}
	if payload[1] != 3 || payload[dimsAt] != 2 || payload[countAt] != 1 || payload[oldRowAt] != 2 || payload[newRowAt] != 1 || payload[slenAt] != 1 {
		t.Fatalf("frame layout moved: % x", payload)
	}
	for name, damaged := range map[string][]byte{
		"oversized dimensionality":   splice(dimsAt, huge...),
		"oversized op count":         splice(countAt, huge...),
		"zero op count":              splice(countAt, 0),
		"oversized sensitive length": splice(slenAt, huge...),
		"over-long dimensionality":   splice(dimsAt, 0x82, 0x00),
		"over-long sequence number":  splice(1, 0x83, 0x00),
		"unknown row layout":         splice(oldRowAt, 3),
		"varint row read as raw":     splice(oldRowAt, 1),
		"varint row read as fixed":   splice(oldRowAt, 0),
		"over-long varint column":    splice(oldRowAt+1, 0x81, 0x00),
		"op tag that is not an op":   splice(countAt+1, byte(TypeBatch)),
	} {
		if _, err := Decode(damaged); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// An integral row spelled in the raw layout is a second encoding of
	// the same frame: refused, so what decodes re-encodes identically.
	raw, err := Encode(Record{Type: TypeBatch, Seq: 1, Batch: []Op{{Type: TypeDelete, ID: 1, OldQI: []float64{0.5}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(raw); err != nil {
		t.Fatalf("raw row of a fraction refused: %v", err)
	}
	copy(raw[len(raw)-8:], []byte{0, 0, 0, 0, 0, 0, 0x1C, 0x40}) // 7.0
	if _, err := Decode(raw); err == nil {
		t.Error("integral row in the raw layout accepted")
	}
}

// TestEncodeRejectsMixedDimensions: a frame carries its dimensionality
// once, so every row in it must have it.
func TestEncodeRejectsMixedDimensions(t *testing.T) {
	rec := attr.Record{ID: 1, QI: []float64{1, 2}}
	for name, batch := range map[string][]Op{
		"insert after insert": {{Type: TypeInsert, Rec: rec}, {Type: TypeInsert, Rec: attr.Record{ID: 2, QI: []float64{1}}}},
		"delete after insert": {{Type: TypeInsert, Rec: rec}, {Type: TypeDelete, ID: 1, OldQI: []float64{1, 2, 3}}},
		"update old vs new":   {{Type: TypeUpdate, ID: 1, OldQI: []float64{1}, Rec: rec}},
	} {
		if _, err := Encode(Record{Type: TypeBatch, Seq: 1, Batch: batch}); err == nil {
			t.Errorf("%s with another dimensionality accepted", name)
		}
	}
}

// TestFrameSizes pins the bytes an operation costs in the log, so a
// format regression fails here and not in a benchmark: for the paper's
// record — eight integral attributes, 32 bytes in fixed columns — a frame
// payload is 9 bytes of header (type, a sequence number of 2^40 as a
// 6-byte varint, dimensionality, op count) and then tag + ID + 13 bytes
// per row (+ 1 for the sensitive length where there is a record). The
// fixed-column format with a u64 sequence number spent 48, 47, 82 and 80
// bytes, the float64 format 94, 90 and 170.
func TestFrameSizes(t *testing.T) {
	qi := []float64{53706, 1999, 1, 217, 49, 2, 31, 0}
	moved := []float64{53707, 1999, 1, 217, 49, 2, 31, 0}
	const id = 1000 // a two-byte varint
	for _, c := range []struct {
		name string
		op   Op
		want int
	}{
		{"insert", Op{Type: TypeInsert, Rec: attr.Record{ID: id, QI: qi}}, 9 + 1 + 2 + 13 + 1},
		{"delete", Op{Type: TypeDelete, ID: id, OldQI: qi}, 9 + 1 + 2 + 13},
		{"update", Op{Type: TypeUpdate, ID: id, OldQI: qi, Rec: attr.Record{ID: id, QI: moved}}, 9 + 1 + 2 + 13 + 1 + 13 + 1},
		{"fractional insert", Op{Type: TypeInsert, Rec: attr.Record{ID: id, QI: append([]float64{0.5}, qi[1:]...)}}, 9 + 1 + 2 + 65 + 1},
	} {
		payload, err := Encode(Record{Type: TypeBatch, Seq: 1 << 40, Batch: []Op{c.op}})
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != c.want {
			t.Errorf("%s: frame payload of %d bytes, want %d", c.name, len(payload), c.want)
		}
	}
}

// TestDecodeRefusesRetiredBatchFormat: the float64 batch frame (type 6)
// and the fixed-column one with a u64 sequence number (type 7) are refused
// by version, not mis-decoded — the latter would otherwise read as a
// frame of this build's shape with a different sequence number.
func TestDecodeRefusesRetiredBatchFormat(t *testing.T) {
	v1 := []byte{6, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0} // [type][seq][count u32] …
	v1 = append(v1, byte(TypeDelete), 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	v2 := []byte{7, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1} // [type][seq u64][dims][count] …
	v2 = append(v2, byte(TypeDelete), 14, 0, 0, 0, 0, 0)
	for version, old := range [][]byte{v1, v2} {
		want := fmt.Sprintf("format version %d (frame type %d", version+1, old[0])
		if _, err := Decode(old); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("retired batch frame: %v, want an error naming %q", err, want)
		}
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
