package attr

import (
	"math"
	"strings"
	"testing"
)

// edgeRows are the vectors on either side of the varint layout's limits,
// with the bytes their row takes, layout byte included; integral rows are
// the ones the bare fixed columns of the data files hold.
var edgeRows = []struct {
	name     string
	qi       []float64
	size     int
	integral bool
}{
	{"empty", []float64{}, 1, true},
	{"zero", []float64{0}, 1 + 1, true},
	{"paper record", []float64{53706, 1999, 1, 217, 49, 2, 31, 0}, 1 + 3 + 2 + 1 + 2 + 1 + 1 + 1 + 1, true},
	{"largest column", []float64{1<<32 - 1, 0}, 1 + 5 + 1, true},
	{"wide columns", []float64{1 << 31, 1 << 30, 1 << 29, 1 << 28, 1 << 27, 1 << 26, 1 << 25, 1 << 24}, 1 + 4*5 + 4*4, true},
	{"two to the 32", []float64{1 << 32}, 1 + 8, false},
	{"negative zero", []float64{math.Copysign(0, -1)}, 1 + 8, false},
	{"half", []float64{0.5}, 1 + 8, false},
	{"minus one", []float64{-1}, 1 + 8, false},
	{"one fraction among integers", []float64{3, 4, 5.25, 6}, 1 + 32, false},
	{"infinities", []float64{math.Inf(1), math.Inf(-1)}, 1 + 16, false},
	{"NaN payload", []float64{math.Float64frombits(0x7ff8_0000_dead_beef)}, 1 + 8, false},
	{"subnormal", []float64{math.SmallestNonzeroFloat64}, 1 + 8, false},
	{"largest exact integer", []float64{1 << 53}, 1 + 8, false},
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

// TestRowRoundTrip: every vector takes the layout its values decide —
// the paper's record 13 bytes where its fixed columns took 33 — and comes
// back bit for bit.
func TestRowRoundTrip(t *testing.T) {
	for _, c := range edgeRows {
		enc := AppendRow(nil, c.qi)
		if len(enc) != c.size {
			t.Errorf("%s: %d bytes, want %d", c.name, len(enc), c.size)
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
		// The bare fixed columns hold exactly the integral rows.
		buf := make([]byte, FixedRowSize(len(c.qi)))
		if err := PutFixedRow(buf, c.qi); (err == nil) != c.integral {
			t.Errorf("%s: PutFixedRow error = %v, integral = %v", c.name, err, c.integral)
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
	if a, b := len(AppendRecord(nil, rec, rec.ID)), len(AppendRecord(nil, rec, 0)); a != 1+2+1 || b <= a {
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
	if err := NewReader([]byte{3, 0, 0, 0, 0}).Row(make([]float64, 1)); err == nil {
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
}

// TestRowLayoutBoundaries: where the varint layout ends, each varint
// width's edge, what goes raw, and the ways a row can spell its values in
// a layout they do not take — each a decode error.
func TestRowLayoutBoundaries(t *testing.T) {
	for _, c := range []struct {
		name   string
		qi     []float64
		layout byte
	}{
		// Every integer row is varint, even one longer than 4 bytes a column.
		{"varints of 5 bytes a column", []float64{1 << 28, 1<<32 - 1}, rowVarint},
		{"a hyperplane of 4 varint bytes", []float64{1 << 21}, rowVarint},
		{"negative zero", []float64{math.Copysign(0, -1)}, rowRaw},
		{"half", []float64{0.5}, rowRaw},
		{"two to the 32", []float64{1 << 32}, rowRaw},
	} {
		enc := AppendRow(nil, c.qi)
		got := make([]float64, len(c.qi))
		if err := NewReader(enc).Row(got); enc[0] != c.layout || err != nil || !sameBits(got, c.qi) {
			t.Errorf("%s: layout %d (want %d), decoded %v, %v", c.name, enc[0], c.layout, got, err)
		}
	}
	// Each varint width's edges, beside seven one-byte columns: the i-th
	// value's varint is (i+2)/2 bytes long.
	for i, v := range []float64{0, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<28 - 1, 1 << 28, 1<<32 - 1} {
		qi := []float64{v, 0, 0, 0, 0, 0, 0, 0}
		enc := AppendRow(nil, qi)
		got := make([]float64, len(qi))
		if want := 1 + (i+2)/2 + 7; len(enc) != want || enc[0] != rowVarint {
			t.Errorf("column %v: %d bytes in layout %d, want %d varint bytes", v, len(enc), enc[0], want)
		} else if err := NewReader(enc).Row(got); err != nil || !sameBits(got, qi) {
			t.Errorf("column %v: decoded %v, %v", v, got, err)
		}
	}
	for _, c := range []struct {
		name string
		in   []byte
		dims int
	}{
		{"retired fixed layout", []byte{0, 1, 0, 0, 0}, 1},
		{"raw row of an integer", []byte{rowRaw, 0, 0, 0, 0, 0, 0, 0x1c, 0x40}, 1}, // 7.0
		{"varint column of 2^32", []byte{rowVarint, 0x80, 0x80, 0x80, 0x80, 0x10, 0}, 2},
		{"over-long varint column", []byte{rowVarint, 0x81, 0x00}, 1},
	} {
		if err := NewReader(c.in).Row(make([]float64, c.dims)); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// rowLayouts are eight-attribute rows in each layout: the paper's record
// and the widest varints.
var rowLayouts = []struct {
	name string
	qi   []float64
}{
	{"varint", []float64{53706, 1999, 1, 217, 49, 2, 31, 0}},
	{"wide varint", []float64{1 << 31, 1 << 30, 1 << 29, 1 << 28, 1 << 27, 1 << 26, 1 << 25, 1 << 24}},
	{"raw", []float64{1.5, 2, 3, 4, 5, 6, 7, 8}},
}

// TestRowCodecZeroAlloc: encoding into spare capacity and decoding into
// the caller's vector allocate nothing, in every layout (make zeroalloc).
func TestRowCodecZeroAlloc(t *testing.T) {
	rec := Record{ID: 31337, QI: rowLayouts[0].qi, Sensitive: "flu"}
	buf := make([]byte, 0, 256)
	qi := make([]float64, len(rec.QI))
	for _, c := range rowLayouts {
		if n := testing.AllocsPerRun(100, func() {
			buf = AppendRow(buf[:0], c.qi)
			buf = AppendRecord(buf, rec, 0)
		}); n != 0 {
			t.Errorf("%s: appending into spare capacity allocates %v times", c.name, n)
		}
		row := AppendRow(nil, c.qi)
		r := NewReader(row)
		if n := testing.AllocsPerRun(100, func() {
			*r = Reader{data: row}
			if err := r.Row(qi); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: decoding a row into the caller's vector allocates %v times", c.name, n)
		}
	}
}

// BenchmarkRowEncode and BenchmarkRowDecode: one op is one row of eight
// attributes, so ns/op is ns/row; "bare fixed" is the paper's record in
// the data files' 4-byte columns, the baseline the varint rows trade
// decode time against.
func BenchmarkRowEncode(b *testing.B) {
	b.Run("bare fixed", func(b *testing.B) {
		buf := make([]byte, FixedRowSize(len(rowLayouts[0].qi)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = PutFixedRow(buf, rowLayouts[0].qi)
		}
	})
	for _, c := range rowLayouts {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, 128)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = AppendRow(buf[:0], c.qi)
			}
		})
	}
}

func BenchmarkRowDecode(b *testing.B) {
	b.Run("bare fixed", func(b *testing.B) {
		buf := make([]byte, FixedRowSize(len(rowLayouts[0].qi)))
		_ = PutFixedRow(buf, rowLayouts[0].qi)
		qi := make([]float64, len(rowLayouts[0].qi))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = FixedRow(qi, buf)
		}
	})
	for _, c := range rowLayouts {
		b.Run(c.name, func(b *testing.B) {
			row := AppendRow(nil, c.qi)
			qi := make([]float64, len(c.qi))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := NewReader(row).Row(qi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
