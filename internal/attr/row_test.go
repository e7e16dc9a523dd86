package attr

import (
	"math"
	"strings"
	"testing"
)

// edgeRows are the vectors on either side of the fixed layout's limits.
var edgeRows = []struct {
	name  string
	qi    []float64
	fixed bool
}{
	{"empty", []float64{}, true},
	{"zero", []float64{0}, true},
	{"paper record", []float64{53706, 1999, 1, 217, 49, 2, 31, 0}, true},
	{"largest column", []float64{1<<32 - 1, 0}, true},
	{"two to the 32", []float64{1 << 32}, false},
	{"negative zero", []float64{math.Copysign(0, -1)}, false},
	{"half", []float64{0.5}, false},
	{"minus one", []float64{-1}, false},
	{"one fraction among integers", []float64{3, 4, 5.25, 6}, false},
	{"infinities", []float64{math.Inf(1), math.Inf(-1)}, false},
	{"NaN payload", []float64{math.Float64frombits(0x7ff8_0000_dead_beef)}, false},
	{"subnormal", []float64{math.SmallestNonzeroFloat64}, false},
	{"largest exact integer", []float64{1 << 53}, false},
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRowRoundTrip: every vector takes the layout its values decide,
// costs exactly 1 + 4 or 1 + 8 bytes per attribute, and comes back bit
// for bit.
func TestRowRoundTrip(t *testing.T) {
	for _, c := range edgeRows {
		enc := AppendRow(nil, c.qi)
		want := 1 + 8*len(c.qi)
		if c.fixed {
			want = 1 + FixedRowSize(len(c.qi))
		}
		if len(enc) != want {
			t.Errorf("%s: %d bytes, want %d", c.name, len(enc), want)
		}
		got := make([]float64, len(c.qi))
		r := NewReader(enc)
		if err := r.Row(got); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if r.Remaining() != 0 || !sameBits(got, c.qi) {
			t.Errorf("%s: round trip gave %v (%d bytes left), want %v", c.name, got, r.Remaining(), c.qi)
		}
		// The bare fixed layout holds exactly the rows AppendRow gives it.
		buf := make([]byte, FixedRowSize(len(c.qi)))
		if err := PutFixedRow(buf, c.qi); (err == nil) != c.fixed {
			t.Errorf("%s: PutFixedRow error = %v, fixed = %v", c.name, err, c.fixed)
		} else if err == nil {
			if err := FixedRow(got, buf); err != nil || !sameBits(got, c.qi) {
				t.Errorf("%s: bare columns gave %v, %v", c.name, got, err)
			}
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range []Record{
		{ID: 0, QI: []float64{1, 2, 3}},
		{ID: 1000, QI: []float64{7, 0.5, 3}, Sensitive: "flu"},
		{ID: -5, QI: []float64{}, Sensitive: strings.Repeat("s", 300)},
		{ID: math.MaxInt64, QI: []float64{9}},
		{ID: math.MinInt64, QI: []float64{9}},
	} {
		for _, base := range []int64{0, rec.ID, 77, math.MinInt64} {
			enc := AppendRecord(nil, rec, base)
			if size := RecordSize(rec, base); size != len(enc) {
				t.Fatalf("record %d base %d: RecordSize %d, encoding %d bytes", rec.ID, base, size, len(enc))
			}
			r := NewReader(enc)
			got, err := r.Record(make([]float64, len(rec.QI)), base)
			if err != nil || r.Remaining() != 0 {
				t.Fatalf("record %d base %d: %v, %d bytes left", rec.ID, base, err, r.Remaining())
			}
			if got.ID != rec.ID || got.Sensitive != rec.Sensitive || !sameBits(got.QI, rec.QI) {
				t.Fatalf("record %d base %d came back as %+v", rec.ID, base, got)
			}
		}
	}
	// An ID equal to its base is one byte: an update does not repeat it.
	rec := Record{ID: 123456789, QI: []float64{1}}
	if a, b := len(AppendRecord(nil, rec, rec.ID)), len(AppendRecord(nil, rec, 0)); a != 1+5+1 || b <= a {
		t.Fatalf("record relative to its own ID is %d bytes, relative to 0 %d", a, b)
	}
}

// TestReaderRejects: what is not the canonical encoding of something is
// an error — never a panic, never an allocation the input sized.
func TestReaderRejects(t *testing.T) {
	row := AppendRow(nil, []float64{1, 2.5})
	for cut := 0; cut < len(row); cut++ {
		if err := NewReader(row[:cut]).Row(make([]float64, 2)); err == nil {
			t.Errorf("row truncated to %d bytes accepted", cut)
		}
	}
	if err := NewReader([]byte{2, 0, 0, 0, 0}).Row(make([]float64, 1)); err == nil {
		t.Error("unknown layout byte accepted")
	}
	// The layout is decided by the values: integral values in the raw
	// layout are a second encoding of the same row, and refused.
	raw := []byte{rowRaw}
	raw = append(raw, AppendRow(nil, []float64{0.5})[1:]...)
	if err := NewReader(raw).Row(make([]float64, 1)); err != nil {
		t.Errorf("raw row of a fraction refused: %v", err)
	}
	bits := math.Float64bits(7)
	for i := 0; i < 8; i++ {
		raw[1+i] = byte(bits >> (8 * i))
	}
	if err := NewReader(raw).Row(make([]float64, 1)); err == nil {
		t.Error("raw layout holding an integral row accepted")
	}

	for name, in := range map[string][]byte{
		"empty":               {},
		"unterminated varint": {0x80},
		"over-long zero":      {0x80, 0x00},
		"over-long one":       {0x81, 0x80, 0x00},
		"65-bit varint":       {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		if _, err := NewReader(in).Uvarint(); err == nil {
			t.Errorf("varint %s accepted", name)
		}
	}
	// A count is checked against the bytes left before anyone allocates.
	if _, err := NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2, 3}).Count(1); err == nil {
		t.Error("count of 2^32-1 over 3 bytes accepted")
	}
	if n, err := NewReader([]byte{3, 1, 2, 3}).Count(1); err != nil || n != 3 {
		t.Errorf("count of 3 over 3 bytes: %d, %v", n, err)
	}
	if _, err := NewReader([]byte{2, 1, 2, 3}).Count(2); err == nil {
		t.Error("2 elements of 2 bytes over 3 bytes accepted")
	}
	rec := AppendRecord(nil, Record{ID: 4, QI: []float64{1}, Sensitive: "abc"}, 0)
	for cut := 0; cut < len(rec); cut++ {
		if _, err := NewReader(rec[:cut]).Record(make([]float64, 1), 0); err == nil {
			t.Errorf("record truncated to %d bytes accepted", cut)
		}
	}
	if _, err := NewReader(nil).U32(); err == nil {
		t.Error("u32 of nothing accepted")
	}
	if _, err := NewReader([]byte{1, 2, 3, 4, 5, 6, 7}).U64(); err == nil {
		t.Error("u64 of 7 bytes accepted")
	}
}

// TestRowCodecZeroAlloc: encoding into spare capacity and decoding into
// the caller's vector allocate nothing (make zeroalloc).
func TestRowCodecZeroAlloc(t *testing.T) {
	rec := Record{ID: 31337, QI: []float64{53706, 1999, 1, 217, 49, 2, 31, 0}, Sensitive: "flu"}
	frac := []float64{1.5, 2, 3, 4, 5, 6, 7, 8}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendRow(buf[:0], rec.QI)
		buf = AppendRow(buf, frac)
		buf = AppendRecord(buf, rec, 0)
	}); n != 0 {
		t.Errorf("appending into spare capacity allocates %v times", n)
	}
	row := AppendRow(nil, rec.QI)
	qi := make([]float64, len(rec.QI))
	r := NewReader(row)
	if n := testing.AllocsPerRun(100, func() {
		*r = Reader{data: row}
		if err := r.Row(qi); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decoding a row into the caller's vector allocates %v times", n)
	}
}
