package dataset

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/detrng"
)

func TestStreamMatchesMaterialized(t *testing.T) {
	for _, gen := range []struct {
		name string
		mk   func(n int, seed int64) []attr.Record
		st   func(n int, seed int64) *Stream
	}{
		{"landsend", GenerateLandsEnd, LandsEndStream},
		{"agrawal", GenerateAgrawal, AgrawalStream},
		{"patients", GeneratePatients, PatientsStream},
	} {
		t.Run(gen.name, func(t *testing.T) {
			recs := gen.mk(200, 42)
			s := gen.st(200, 42)
			for i, want := range recs {
				got, ok := s.Next()
				if !ok {
					t.Fatalf("stream exhausted at %d", i)
				}
				if got.ID != want.ID || got.Sensitive != want.Sensitive {
					t.Fatalf("record %d differs: %+v vs %+v", i, got, want)
				}
				for d := range want.QI {
					if got.QI[d] != want.QI[d] {
						t.Fatalf("record %d attr %d: %v vs %v", i, d, got.QI[d], want.QI[d])
					}
				}
			}
			if _, ok := s.Next(); ok {
				t.Fatal("stream produced extra record")
			}
		})
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := GenerateLandsEnd(100, 7)
	b := GenerateLandsEnd(100, 7)
	for i := range a {
		for d := range a[i].QI {
			if a[i].QI[d] != b[i].QI[d] {
				t.Fatalf("nondeterministic generation at record %d", i)
			}
		}
	}
	c := GenerateLandsEnd(100, 8)
	same := true
	for i := range a {
		for d := range a[i].QI {
			if a[i].QI[d] != c[i].QI[d] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestPrefixStability(t *testing.T) {
	// The incremental experiments rely on: generating n records yields
	// the same records as the first n of a longer generation.
	long := GenerateLandsEnd(300, 5)
	short := GenerateLandsEnd(100, 5)
	for i := range short {
		for d := range short[i].QI {
			if short[i].QI[d] != long[i].QI[d] {
				t.Fatalf("prefix instability at record %d", i)
			}
		}
	}
}

func TestNextBatch(t *testing.T) {
	s := AgrawalStream(25, 1)
	// A size below one is an empty batch that consumes nothing; a
	// negative one used to panic in make.
	for _, size := range []int{-1, 0, math.MinInt} {
		if b := s.NextBatch(size); len(b) != 0 || s.Remaining() != 25 {
			t.Fatalf("NextBatch(%d) returned %d records, left %d", size, len(b), s.Remaining())
		}
	}
	b1 := s.NextBatch(10)
	b2 := s.NextBatch(10)
	b3 := s.NextBatch(10)
	b4 := s.NextBatch(10)
	if len(b1) != 10 || len(b2) != 10 || len(b3) != 5 || len(b4) != 0 {
		t.Fatalf("batch sizes: %d %d %d %d", len(b1), len(b2), len(b3), len(b4))
	}
	if b3[4].ID != 24 {
		t.Fatalf("last record ID = %d, want 24", b3[4].ID)
	}
	if s.Remaining() != 0 {
		t.Fatalf("Remaining = %d", s.Remaining())
	}
}

// TestNextBatchEqualsNext: the chunked, parallel drain returns what the
// serial Next returns — the same IDs, QI bits and sensitive values —
// for every generator, stream length, batch size and starting point,
// in cap-clipped vectors no two of which share an element.
func TestNextBatchEqualsNext(t *testing.T) {
	for _, set := range sets {
		for _, n := range []int{0, 1, rowBlock - 1, rowBlock, rowBlock + 1, 3*rowBlock + 17} {
			var want []attr.Record
			for s := set.stream(n, 42); ; {
				r, ok := s.Next()
				if !ok {
					break
				}
				want = append(want, r)
			}
			for _, size := range []int{1, 7, rowBlock, 10000, max(n, 1)} {
				for _, pre := range []int{0, min(5, n)} {
					s := set.stream(n, 42)
					got := make([]attr.Record, 0, n)
					for range pre {
						r, _ := s.Next()
						got = append(got, r)
					}
					for b := s.NextBatch(size); len(b) > 0; b = s.NextBatch(size) {
						if len(b) > size {
							t.Fatalf("%s n=%d: NextBatch(%d) returned %d records", set.name, n, size, len(b))
						}
						got = append(got, b...)
					}
					checkSameRecords(t, fmt.Sprintf("%s n=%d size=%d after %d", set.name, n, size, pre), got, want)
				}
			}
		}
	}
}

// checkSameRecords fails unless got and want hold the same records bit
// for bit, and got's vectors are cap-clipped and disjoint. It writes
// into got's vectors.
func checkSameRecords(t *testing.T, name string, got, want []attr.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.Sensitive != w.Sensitive || len(g.QI) != len(w.QI) || cap(g.QI) != len(g.QI) {
			t.Fatalf("%s: record %d is %d %q with %d/%d values, want %d %q with %d", name, i, g.ID, g.Sensitive, len(g.QI), cap(g.QI), w.ID, w.Sensitive, len(w.QI))
		}
		for d := range w.QI {
			if math.Float64bits(g.QI[d]) != math.Float64bits(w.QI[d]) {
				t.Fatalf("%s: record %d attribute %d is %v, want %v", name, i, d, g.QI[d], w.QI[d])
			}
		}
	}
	// Two vectors that share an element would see each other's writes.
	for i, g := range got {
		for d := range g.QI {
			g.QI[d] = float64(i)
		}
	}
	for i, g := range got {
		for _, v := range g.QI {
			if v != float64(i) {
				t.Fatalf("%s: record %d's vector overlaps record %v's", name, i, v)
			}
		}
	}
}

// TestWriteBinaryMatchesNext: WriteBinary, which drains in batches,
// writes the bytes of encoding Next's records one by one.
func TestWriteBinaryMatchesNext(t *testing.T) {
	for _, set := range sets {
		for _, n := range []int{3*rowBlock + 17, writeBatch + 17} {
			c := NewBinaryCodec(set.schema().Dims())
			var got bytes.Buffer
			if written, err := c.WriteBinary(&got, set.stream(n, 42)); err != nil || written != n {
				t.Fatalf("%s n=%d: WriteBinary = %d, %v", set.name, n, written, err)
			}
			want := make([]byte, 0, n*c.RecordSize())
			buf := make([]byte, c.RecordSize())
			for s := set.stream(n, 42); ; {
				r, ok := s.Next()
				if !ok {
					break
				}
				if err := c.Encode(r, buf); err != nil {
					t.Fatal(err)
				}
				want = append(want, buf...)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s n=%d: WriteBinary's %d bytes differ from Next's %d", set.name, n, got.Len(), len(want))
			}
		}
	}
}

// TestCollectAllocsPerChunk: draining a stream allocates per chunk —
// its QI array, its generator and that generator's source — plus the
// batch and par.Do's workers, never per record.
func TestCollectAllocsPerChunk(t *testing.T) {
	const chunks, runs = 4, 10
	streams := make([]*Stream, runs+1)
	for i := range streams {
		streams[i] = LandsEndStream(chunks*rowBlock, 8)
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		Collect(streams[next])
		next++
	})
	if limit := float64(3*chunks + 8); got > limit {
		t.Fatalf("Collect of %d records allocates %v objects, want at most %v", chunks*rowBlock, got, limit)
	}
}

// BenchmarkGenerate drains 500 000 records of each data set, as the
// benchmark's set-up does.
func BenchmarkGenerate(b *testing.B) {
	for _, set := range sets {
		b.Run(set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				generated = Collect(set.stream(500_000, 42))
			}
		})
	}
}

var generated []attr.Record

func TestLandsEndShape(t *testing.T) {
	schema := LandsEndSchema()
	if err := schema.Validate(); err != nil {
		t.Fatal(err)
	}
	if schema.Dims() != 8 {
		t.Fatalf("Lands End dims = %d, want 8", schema.Dims())
	}
	recs := GenerateLandsEnd(5000, 11)
	dom := attr.DomainOf(8, recs)
	zi := schema.AttrIndex("zipcode")
	if dom[zi].Lo < 10000 || dom[zi].Hi > 99999 {
		t.Fatalf("zipcode range %v out of bounds", dom[zi])
	}
	gi := schema.AttrIndex("gender")
	if dom[gi].Lo != 0 || dom[gi].Hi != 1 {
		t.Fatalf("gender range %v, want [0,1]", dom[gi])
	}
	// price/cost correlation: cost must always be below price.
	pi, ci := schema.AttrIndex("price"), schema.AttrIndex("cost")
	for _, r := range recs {
		if r.QI[ci] > r.QI[pi] {
			t.Fatalf("cost %v exceeds price %v", r.QI[ci], r.QI[pi])
		}
	}
	qi := schema.AttrIndex("quantity")
	for _, r := range recs {
		if r.QI[qi] < 1 || r.QI[qi] > 10 {
			t.Fatalf("quantity %v out of [1,10]", r.QI[qi])
		}
	}
	// zipcode must be skewed: top decile of clusters should hold well
	// over a tenth of the mass.
	counts := map[int]int{}
	for _, r := range recs {
		counts[int(r.QI[zi])/1800]++ // coarse buckets
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max) < 1.5*float64(len(recs))/float64(len(counts)) {
		t.Fatalf("zipcode distribution looks uniform: max bucket %d of %d buckets over %d recs", max, len(counts), len(recs))
	}
}

func TestAgrawalShape(t *testing.T) {
	schema := AgrawalSchema()
	if err := schema.Validate(); err != nil {
		t.Fatal(err)
	}
	if schema.Dims() != 9 {
		t.Fatalf("dims = %d, want 9", schema.Dims())
	}
	recs := GenerateAgrawal(5000, 3)
	si := schema.AttrIndex("salary")
	ci := schema.AttrIndex("commission")
	zi := schema.AttrIndex("zipcode")
	hi := schema.AttrIndex("hvalue")
	for _, r := range recs {
		sal, com := r.QI[si], r.QI[ci]
		if sal < 20000 || sal > 150000 {
			t.Fatalf("salary %v out of range", sal)
		}
		// The generator's rule: commission is zero iff salary >= 75k.
		if sal >= 75000 && com != 0 {
			t.Fatalf("salary %v should force commission 0, got %v", sal, com)
		}
		if sal < 75000 && (com < 10000 || com > 75000) {
			t.Fatalf("commission %v out of [10k,75k] for salary %v", com, sal)
		}
		z, hv := r.QI[zi], r.QI[hi]
		if z < 0 || z > 8 {
			t.Fatalf("zipcode %v out of {0..8}", z)
		}
		k := z + 1
		if hv < 0.5*k*100000 || hv > 1.5*k*100000 {
			t.Fatalf("hvalue %v outside zipcode-%v band", hv, z)
		}
	}
}

func TestPatientsShape(t *testing.T) {
	schema := PatientsSchema()
	if err := schema.Validate(); err != nil {
		t.Fatal(err)
	}
	recs := GeneratePatients(500, 9)
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Sensitive == "" {
			t.Fatal("patient record lost its ailment")
		}
		seen[r.Sensitive] = true
		if r.QI[0] < 18 || r.QI[0] > 90 {
			t.Fatalf("age %v out of range", r.QI[0])
		}
	}
	if len(seen) < 5 {
		t.Fatalf("only %d distinct ailments in 500 records", len(seen))
	}
	h := schema.Attrs[1].Hierarchy
	if h == nil || h.LeafCount() != 2 {
		t.Fatal("sex hierarchy missing or wrong")
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a := GenerateLandsEnd(50, 1)
	b := GenerateLandsEnd(50, 1)
	Shuffle(a, 99)
	Shuffle(b, 99)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("Shuffle not deterministic")
		}
	}
	c := GenerateLandsEnd(50, 1)
	Shuffle(c, 100)
	diff := false
	for i := range a {
		if a[i].ID != c[i].ID {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different shuffle seeds gave identical order")
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	c := NewBinaryCodec(8)
	if c.RecordSize() != 32 {
		t.Fatalf("Lands End record size = %d, want 32 (paper)", c.RecordSize())
	}
	if NewBinaryCodec(9).RecordSize() != 36 {
		t.Fatal("Agrawal record size must be 36 (paper)")
	}
	recs := GenerateLandsEnd(100, 4)
	var buf bytes.Buffer
	n, err := c.WriteBinary(&buf, LandsEndStream(100, 4))
	if err != nil || n != 100 {
		t.Fatalf("WriteBinary = %d, %v", n, err)
	}
	if buf.Len() != 3200 {
		t.Fatalf("file size = %d, want 3200", buf.Len())
	}
	back, err := c.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 100 {
		t.Fatalf("read %d records", len(back))
	}
	for i := range recs {
		if back[i].ID != int64(i) {
			t.Fatalf("record %d got id %d", i, back[i].ID)
		}
		for d := range recs[i].QI {
			if back[i].QI[d] != recs[i].QI[d] {
				t.Fatalf("record %d attr %d: %v vs %v", i, d, back[i].QI[d], recs[i].QI[d])
			}
		}
	}
}

func TestBinaryCodecErrors(t *testing.T) {
	c := NewBinaryCodec(3)
	if err := c.Encode(attr.Record{QI: []float64{1}}, make([]byte, 12)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := c.Encode(attr.Record{QI: []float64{1, 2, 3}}, make([]byte, 4)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := c.Decode(make([]byte, 4)); err == nil {
		t.Fatal("short decode accepted")
	}
	if _, err := c.ReadBinary(bytes.NewReader(make([]byte, 13))); err == nil {
		t.Fatal("truncated file accepted")
	}
	// A value the 4-byte layout cannot hold is an error — it used to be
	// written as 3, 4294967295 and 0.
	buf := make([]byte, 12)
	for _, v := range []float64{3.7, -1, 1 << 32, math.Copysign(0, -1), math.NaN()} {
		if err := c.Encode(attr.Record{QI: []float64{1, v, 3}}, buf); err == nil {
			t.Fatalf("value %v encoded as % x", v, buf)
		}
	}
	if err := c.Encode(attr.Record{QI: []float64{0, 1<<32 - 1, 3}}, buf); err != nil {
		t.Fatal(err)
	}
	if rec, err := c.Decode(buf); err != nil || rec.QI[1] != 1<<32-1 {
		t.Fatalf("largest column came back as %v, %v", rec.QI, err)
	}
}

// TestStreamCarvesVectorsFromBlocks: generating a record allocates
// nothing of its own — vectors are cap-clipped windows of one array per
// rowBlock records — so keeping a prefix pins blocks, not the table.
func TestStreamCarvesVectorsFromBlocks(t *testing.T) {
	s := LandsEndStream(3*rowBlock, 8)
	s.Next() // the first block
	if n := testing.AllocsPerRun(rowBlock-2, func() { s.Next() }); n != 0 {
		t.Fatalf("a record inside a block allocates %v times", n)
	}
	recs := GenerateAgrawal(rowBlock+10, 8)
	for i, r := range recs {
		if cap(r.QI) != len(r.QI) {
			t.Fatalf("record %d: vector capacity %d beyond its %d values", i, cap(r.QI), len(r.QI))
		}
	}
	if &recs[0].QI[0] == &recs[1].QI[0] {
		t.Fatal("consecutive records share a vector")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	schema := PatientsSchema()
	recs := GeneratePatients(40, 6)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, schema, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 40 {
		t.Fatalf("read %d rows", len(back))
	}
	for i := range recs {
		if back[i].Sensitive != recs[i].Sensitive {
			t.Fatalf("row %d sensitive %q vs %q", i, back[i].Sensitive, recs[i].Sensitive)
		}
		for d := range recs[i].QI {
			if math.Abs(back[i].QI[d]-recs[i].QI[d]) > 1e-9 {
				t.Fatalf("row %d attr %d: %v vs %v", i, d, back[i].QI[d], recs[i].QI[d])
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	schema := PatientsSchema()
	if _, err := ReadCSV(bytes.NewReader(nil), schema); err == nil {
		t.Fatal("empty CSV accepted")
	}
	if _, err := ReadCSV(bytes.NewReader([]byte("bad,header,row,x\n")), schema); err == nil {
		t.Fatal("mismatched header accepted")
	}
	if _, err := ReadCSV(bytes.NewReader([]byte("age,sex,zipcode,ailment\nnotanumber,0,53706,flu\n")), schema); err == nil {
		t.Fatal("non-numeric value accepted")
	}
	if _, err := ReadCSV(bytes.NewReader([]byte("age,sex,zipcode,ailment\n1,0\n")), schema); err == nil {
		t.Fatal("short row accepted")
	}
	bad := []attr.Record{{QI: []float64{1}}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, schema, bad); err == nil {
		t.Fatal("dimension mismatch accepted on write")
	}
}

func TestZipfIndexBounds(t *testing.T) {
	rng := detrng.New(detrng.Derive(1, 1))
	for i := 0; i < 10000; i++ {
		v := zipfIndex(rng, 10, 0.7)
		if v < 0 || v >= 10 {
			t.Fatalf("zipfIndex out of range: %d", v)
		}
	}
	if zipfIndex(rng, 1, 0.7) != 0 || zipfIndex(rng, 0, 0.7) != 0 {
		t.Fatal("degenerate n must return 0")
	}
}

// TestLookup pins the registry the commands' -dataset flags share:
// every listed name resolves to a schema whose width its stream's
// records have, and an unknown name is refused with the list.
func TestLookup(t *testing.T) {
	for _, name := range []string{"patients", "landsend", "agrawal"} {
		schema, stream, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		recs := Collect(stream(10, 1))
		if len(recs) != 10 || len(recs[0].QI) != schema.Dims() {
			t.Errorf("%s: %d records of width %d under a %d-attribute schema", name, len(recs), len(recs[0].QI), schema.Dims())
		}
	}
	if got, want := Names(), "patients, landsend or agrawal"; got != want {
		t.Errorf("Names() = %q, want %q", got, want)
	}
	if _, _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), Names()) {
		t.Errorf("Lookup(nope) = %v, want an error listing %s", err, Names())
	}
}
