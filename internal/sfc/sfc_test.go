package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

func TestZOrderKey2D(t *testing.T) {
	// Classic 2x2 Morton order: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3 with
	// dimension 0 most significant.
	cases := []struct {
		cell []uint32
		want uint64
	}{
		{[]uint32{0, 0}, 0},
		{[]uint32{0, 1}, 1},
		{[]uint32{1, 0}, 2},
		{[]uint32{1, 1}, 3},
	}
	for _, c := range cases {
		if got := ZOrderKey(c.cell, 1); got != c.want {
			t.Fatalf("ZOrderKey(%v) = %d, want %d", c.cell, got, c.want)
		}
	}
	// Two bits: (2,3) -> binary x=10, y=11 -> interleave 1101 = 13.
	if got := ZOrderKey([]uint32{2, 3}, 2); got != 13 {
		t.Fatalf("ZOrderKey(2,3) = %d, want 13", got)
	}
}

func TestHilbertOrder1Is2DGrayTour(t *testing.T) {
	// The order-1 Hilbert curve in 2D visits (0,0),(0,1),(1,1),(1,0).
	want := [][]uint32{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for key, cell := range want {
		if got := HilbertKey(cell, 1); got != uint64(key) {
			t.Fatalf("HilbertKey(%v) = %d, want %d", cell, got, key)
		}
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, dims := range []int{2, 3, 4, 8} {
		bits := 16 / dims * 2 // keep keys in range
		if bits < 2 {
			bits = 2
		}
		for i := 0; i < 300; i++ {
			cell := make([]uint32, dims)
			for d := range cell {
				cell[d] = uint32(rng.Intn(1 << bits))
			}
			key := HilbertKey(cell, bits)
			back := HilbertCell(key, dims, bits)
			for d := range cell {
				if back[d] != cell[d] {
					t.Fatalf("dims=%d bits=%d: cell %v -> key %d -> %v", dims, bits, cell, key, back)
				}
			}
		}
	}
}

func TestHilbertIsBijectiveAndAdjacent2D(t *testing.T) {
	// Over the full 8x8 grid: keys form a permutation of 0..63, and
	// consecutive keys are Manhattan-adjacent cells — the locality
	// property Z-order lacks.
	const bits = 3
	seen := map[uint64][]uint32{}
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			key := HilbertKey([]uint32{x, y}, bits)
			if key >= 64 {
				t.Fatalf("key %d out of range", key)
			}
			if _, dup := seen[key]; dup {
				t.Fatalf("key %d assigned twice", key)
			}
			seen[key] = []uint32{x, y}
		}
	}
	if len(seen) != 64 {
		t.Fatalf("only %d keys", len(seen))
	}
	for k := uint64(0); k < 63; k++ {
		a, b := seen[k], seen[k+1]
		dist := absDiff(a[0], b[0]) + absDiff(a[1], b[1])
		if dist != 1 {
			t.Fatalf("cells for keys %d,%d not adjacent: %v %v", k, k+1, a, b)
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestQuickZOrderDistinct(t *testing.T) {
	// Distinct cells yield distinct keys (bijectivity of interleaving).
	f := func(a, b [2]uint16) bool {
		ca := []uint32{uint32(a[0]), uint32(a[1])}
		cb := []uint32{uint32(b[0]), uint32(b[1])}
		if a == b {
			return ZOrderKey(ca, 16) == ZOrderKey(cb, 16)
		}
		return ZOrderKey(ca, 16) != ZOrderKey(cb, 16)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizer(t *testing.T) {
	domain := attr.Box{{Lo: 0, Hi: 100}, {Lo: 50, Hi: 50}} // second dim degenerate
	q, err := NewQuantizer(domain, 8)
	if err != nil {
		t.Fatal(err)
	}
	if q.KeyBits() != 16 {
		t.Fatalf("KeyBits = %d", q.KeyBits())
	}
	c := q.AppendCell(nil, []float64{0, 50})
	if c[0] != 0 || c[1] != 0 {
		t.Fatalf("cell at origin = %v", c)
	}
	c = q.AppendCell(c[:0], []float64{100, 50})
	if c[0] != 255 {
		t.Fatalf("cell at max = %v", c)
	}
	// Out-of-domain points clamp.
	c = q.AppendCell(c[:0], []float64{-10, 50})
	if c[0] != 0 {
		t.Fatalf("clamped cell = %v", c)
	}
	c = q.AppendCell(c[:0], []float64{1e9, 50})
	if c[0] != 255 {
		t.Fatalf("clamped cell = %v", c)
	}
}

func TestQuantizerValidation(t *testing.T) {
	if _, err := NewQuantizer(attr.Box{}, 8); err == nil {
		t.Fatal("empty domain accepted")
	}
	domain := attr.NewBox(9)
	if _, err := NewQuantizer(domain, 8); err == nil {
		t.Fatal("9 dims x 8 bits = 72 bits accepted")
	}
	q, err := NewQuantizer(domain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.KeyBits() > 64 || q.KeyBits()%9 != 0 {
		t.Fatalf("auto key width %d does not fit", q.KeyBits())
	}
}

func TestAnonymizeBothCurves(t *testing.T) {
	for _, curve := range []Curve{ZOrder, Hilbert} {
		recs := dataset.GeneratePatients(500, 62)
		cons := anonmodel.KAnonymity{K: 10}
		ps, err := Anonymize(recs, curve, cons)
		if err != nil {
			t.Fatalf("%v: %v", curve, err)
		}
		if err := anonmodel.CheckAnonymity(ps, cons); err != nil {
			t.Fatalf("%v: %v", curve, err)
		}
		if anonmodel.TotalRecords(ps) != 500 {
			t.Fatalf("%v: lost records", curve)
		}
		// Greedy groups stay below 2k except the merged tail.
		for i, p := range ps {
			if i < len(ps)-1 && p.Size() >= 2*10 {
				t.Fatalf("%v: interior group of %d", curve, p.Size())
			}
		}
	}
}

func TestAnonymizeTailMerge(t *testing.T) {
	// 25 records, k=10: greedy would leave a 5-record tail; it must be
	// merged into the previous group (sizes 10, 15).
	recs := dataset.GeneratePatients(25, 63)
	ps, err := Anonymize(recs, Hilbert, anonmodel.KAnonymity{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("got %d partitions", len(ps))
	}
	if ps[0].Size() != 10 || ps[1].Size() != 15 {
		t.Fatalf("sizes %d,%d want 10,15", ps[0].Size(), ps[1].Size())
	}
}

func TestAnonymizeErrors(t *testing.T) {
	recs := dataset.GeneratePatients(5, 64)
	if _, err := Anonymize(recs, Hilbert, nil); err == nil {
		t.Fatal("nil constraint accepted")
	}
	if _, err := Anonymize(recs, Hilbert, anonmodel.KAnonymity{K: 10}); err == nil {
		t.Fatal("infeasible input accepted")
	}
	ps, err := Anonymize(nil, Hilbert, anonmodel.KAnonymity{K: 2})
	if err != nil || ps != nil {
		t.Fatalf("empty input: %v %v", ps, err)
	}
}

func TestHilbertBeatsZOrderLocality(t *testing.T) {
	// The Hilbert anonymization should produce partitions whose total
	// normalized perimeter is no worse than ~ the Z-order one on
	// clustered 2D-ish data. (This is the reason Hilbert packing is
	// preferred in the literature [14].)
	schema := &attr.Schema{Attrs: []attr.Attribute{
		{Name: "x", Kind: attr.Numeric},
		{Name: "y", Kind: attr.Numeric},
	}}
	_ = schema
	rng := rand.New(rand.NewSource(65))
	recs := make([]attr.Record, 2000)
	for i := range recs {
		recs[i] = attr.Record{ID: int64(i), QI: []float64{rng.Float64() * 1000, rng.Float64() * 1000}}
	}
	perim := func(c Curve) float64 {
		cp := make([]attr.Record, len(recs))
		copy(cp, recs)
		ps, err := Anonymize(cp, c, anonmodel.KAnonymity{K: 20})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, p := range ps {
			for _, iv := range p.Box {
				total += iv.Width()
			}
		}
		return total
	}
	h, z := perim(Hilbert), perim(ZOrder)
	if h > z*1.25 {
		t.Fatalf("hilbert perimeter %v much worse than z-order %v", h, z)
	}
}

func TestCurveString(t *testing.T) {
	if ZOrder.String() != "z-order" || Hilbert.String() != "hilbert" {
		t.Fatal("curve names wrong")
	}
	if Curve(9).String() != "Curve(9)" {
		t.Fatal("unknown curve name wrong")
	}
}

func TestAppendCellMatchesCell(t *testing.T) {
	domain := attr.Box{{Lo: -5, Hi: 5}, {Lo: 0, Hi: 1}, {Lo: 100, Hi: 200}}
	q, err := NewQuantizer(domain, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	buf := make([]uint32, 0, 3)
	for i := 0; i < 200; i++ {
		p := []float64{rng.Float64()*20 - 10, rng.Float64() * 2, rng.Float64() * 300}
		want := q.AppendCell(nil, p)
		buf = q.AppendCell(buf[:0], p)
		for d := range want {
			if buf[d] != want[d] {
				t.Fatalf("AppendCell(%v) into a reused buffer = %v, fresh = %v", p, buf, want)
			}
		}
	}
}

func TestKeyIntoMatchesKey(t *testing.T) {
	recs := dataset.GenerateLandsEnd(500, 63)
	domain := attr.DomainOf(len(recs[0].QI), recs)
	q, err := NewQuantizer(domain, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Curve{ZOrder, Hilbert} {
		var buf []uint32
		for _, r := range recs {
			want := q.Key(c, r.QI)
			var got uint64
			got, buf = q.KeyInto(c, r.QI, buf)
			if got != want {
				t.Fatalf("curve=%v KeyInto(%v) = %d, Key = %d", c, r.QI, got, want)
			}
		}
	}
}

func TestKeyPathsZeroAlloc(t *testing.T) {
	recs := dataset.GenerateLandsEnd(64, 64)
	q, err := NewQuantizer(attr.DomainOf(len(recs[0].QI), recs), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Curve{ZOrder, Hilbert} {
		i := 0
		if a := testing.AllocsPerRun(100, func() { q.Key(c, recs[i%len(recs)].QI); i++ }); a != 0 {
			t.Errorf("curve=%v Key: %v allocs/op, want 0", c, a)
		}
		buf := make([]uint32, 0, len(recs[0].QI))
		if a := testing.AllocsPerRun(100, func() { _, buf = q.KeyInto(c, recs[i%len(recs)].QI, buf); i++ }); a != 0 {
			t.Errorf("curve=%v KeyInto: %v allocs/op, want 0", c, a)
		}
	}
}
