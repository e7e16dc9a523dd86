package wal

import (
	"encoding/binary"
	"math"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/pager"
	"spatialanon/internal/rplustree"
)

// FuzzDecode holds the record decoder to its contract: arbitrary bytes
// yield either an error or a record that re-encodes to the identical
// payload — never a panic, never an unbounded allocation. The committed
// corpus (testdata/fuzz/FuzzDecode) holds a frame per row-layout boundary
// and one per way a row can spell its values in a layout they do not take.
func FuzzDecode(f *testing.F) {
	seedRecords := []Record{
		{Type: TypeBatch, Seq: 1, Batch: []Op{{Type: TypeInsert, Rec: attr.Record{ID: 7, QI: []float64{1, 2}, Sensitive: "s"}}}},
		{Type: TypeBatch, Seq: 2, Batch: []Op{
			{Type: TypeDelete, ID: 7, OldQI: []float64{1, 2}},
			{Type: TypeUpdate, ID: 7, OldQI: []float64{1, 2}, Rec: attr.Record{ID: 7, QI: []float64{3, 4}}},
		}},
		{Type: TypeCheckpointBegin, Seq: 4},
		{Type: TypeCheckpointEnd, Seq: 5, Manifest: &Manifest{Seq: 5, Root: []byte{8, 0, 0, 0, 8, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 2}}},
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
	f.Add([]byte{byte(TypeCheckpointEnd), 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})

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

// FuzzRowRoundTrip holds the whole durable path to "lossless": any
// finite vector (the fuzz input read as float64 bit patterns, up to
// eight of them) comes back bit for bit from the row codec, from a log
// frame and from a checkpoint image, whichever layout its values take.
// A non-finite vector stops at ingress: ValidateQI refuses it, and so
// does the tree's own Insert, the same rule (attr.ValidateQI) — no such
// point reaches a leaf, an image or the decoder. The committed corpus
// (testdata/fuzz/FuzzRowRoundTrip) holds the rows on either side of each
// layout's limits.
func FuzzRowRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		qi := make([]float64, min(len(data)/8, 8))
		finite := true
		for i := range qi {
			qi[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			finite = finite && !math.IsNaN(qi[i]) && !math.IsInf(qi[i], 0)
		}
		same := func(where string, got []float64) {
			t.Helper()
			if len(got) != len(qi) {
				t.Fatalf("%s: %d values, want %d", where, len(got), len(qi))
			}
			for i := range qi {
				if math.Float64bits(got[i]) != math.Float64bits(qi[i]) {
					t.Fatalf("%s: value %d is %x, want %x", where, i, math.Float64bits(got[i]), math.Float64bits(qi[i]))
				}
			}
		}

		// The row codec and the log frame carry any bit pattern.
		row := make([]float64, len(qi))
		if err := attr.NewReader(attr.AppendRow(nil, qi)).Row(row); err != nil {
			t.Fatal(err)
		}
		same("row", row)
		rec := attr.Record{ID: 7, QI: qi, Sensitive: "s"}
		payload, err := Encode(Record{Type: TypeBatch, Seq: 1, Batch: []Op{
			{Type: TypeInsert, Rec: rec}, {Type: TypeUpdate, ID: 7, OldQI: qi, Rec: rec}, {Type: TypeDelete, ID: 7, OldQI: qi},
		}})
		if err != nil {
			t.Fatal(err)
		}
		frame, err := Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		same("insert", frame.Batch[0].Rec.QI)
		same("update, old row", frame.Batch[1].OldQI)
		same("update, new row", frame.Batch[1].Rec.QI)
		same("delete", frame.Batch[2].OldQI)

		if (ValidateQI(len(qi), qi) == nil) != finite {
			t.Fatalf("ValidateQI(%v) = %v", qi, ValidateQI(len(qi), qi))
		}
		if len(qi) == 0 {
			return
		}
		// The checkpoint image: a one-leaf tree holding the vector.
		schema := &attr.Schema{}
		for i := range qi {
			schema.Attrs = append(schema.Attrs, attr.Attribute{Name: string(rune('a' + i))})
		}
		cfg := rplustree.Config{Schema: schema, BaseK: 2}
		tr, err := rplustree.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(rec); (err == nil) != finite {
			t.Fatalf("tree Insert of %v: %v", qi, err)
		}
		if !finite {
			return
		}
		// A full checkpoint into one byte string, references by offset.
		var objects []byte
		ck, err := tr.EncodeCheckpoint(true, func(enc []byte, _ bool) (rplustree.Ref, error) {
			ref := rplustree.Ref{Pages: []pager.PageID{1}, Off: uint32(len(objects)), Len: uint32(len(enc))}
			objects = append(objects, enc...)
			return ref, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		back, err := rplustree.DecodeCheckpoint(cfg, ck.Root, func(ref rplustree.Ref) ([]byte, error) {
			return objects[ref.Off : ref.Off+ref.Len], nil
		})
		if err != nil {
			t.Fatalf("image of a finite vector does not decode: %v", err)
		}
		same("checkpoint", back.Leaves()[0].Record(0).QI)
	})
}
