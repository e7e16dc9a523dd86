package wal

import (
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/pager"
)

// FuzzDecode holds the record decoder to its contract: arbitrary bytes
// yield either an error or a record that re-encodes to the identical
// payload — never a panic, never an unbounded allocation.
func FuzzDecode(f *testing.F) {
	seedRecords := []Record{
		{Type: TypeBatch, Seq: 1, Batch: []Op{{Type: TypeInsert, Rec: attr.Record{ID: 7, QI: []float64{1, 2}, Sensitive: "s"}}}},
		{Type: TypeBatch, Seq: 2, Batch: []Op{
			{Type: TypeDelete, ID: 7, OldQI: []float64{1, 2}},
			{Type: TypeUpdate, ID: 7, OldQI: []float64{1, 2}, Rec: attr.Record{ID: 7, QI: []float64{3, 4}}},
		}},
		{Type: TypeCheckpointBegin, Seq: 4},
		{Type: TypeCheckpointEnd, Seq: 5, Manifest: &Manifest{Seq: 5, DirLen: 64, DirCRC: 1, DirPages: []pager.PageID{1, 2}}},
	}
	for _, r := range seedRecords {
		payload, err := Encode(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	// Frame-level tags 1/2/3 (insert/delete/update) are op tags only:
	// rejected whatever follows, never a panic.
	for tag := byte(1); tag <= 3; tag++ {
		f.Add([]byte{tag})
		f.Add([]byte{tag, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	}
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data)
		if err != nil {
			return
		}
		if rec.Type.isOp() {
			t.Fatalf("frame-level op tag %v decoded", rec.Type)
		}
		// A successfully decoded record must re-encode byte-identically:
		// Decode accepts exactly the canonical encoding, nothing looser.
		out, err := Encode(rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", data, out)
		}
	})
}
