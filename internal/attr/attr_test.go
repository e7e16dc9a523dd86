package attr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" {
		t.Fatalf("kind strings wrong: %q %q", Numeric, Categorical)
	}
	if Kind(7).String() != "Kind(7)" {
		t.Fatalf("unknown kind string: %q", Kind(7))
	}
}

func TestSchemaBasics(t *testing.T) {
	s := &Schema{
		Attrs: []Attribute{
			{Name: "age", Kind: Numeric},
			{Name: "sex", Kind: Categorical},
			{Name: "zipcode", Kind: Numeric},
		},
		Sensitive: "ailment",
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if s.Dims() != 3 {
		t.Fatalf("Dims = %d, want 3", s.Dims())
	}
	if got := s.AttrIndex("zipcode"); got != 2 {
		t.Fatalf("AttrIndex(zipcode) = %d, want 2", got)
	}
	if got := s.AttrIndex("nope"); got != -1 {
		t.Fatalf("AttrIndex(nope) = %d, want -1", got)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "age" || names[2] != "zipcode" {
		t.Fatalf("Names = %v", names)
	}
}

func TestSchemaValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		s    Schema
	}{
		{"empty", Schema{}},
		{"dup", Schema{Attrs: []Attribute{{Name: "a"}, {Name: "a"}}}},
		{"unnamed", Schema{Attrs: []Attribute{{Name: ""}}}},
		{"numeric-hierarchy", Schema{Attrs: []Attribute{{Name: "a", Kind: Numeric, Hierarchy: MustFlatHierarchy("r", "x")}}}},
		{"negative-weight", Schema{Attrs: []Attribute{{Name: "a", Weight: -1}}}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid schema", c.name)
		}
	}
}

func TestEffectiveWeight(t *testing.T) {
	if w := (Attribute{}).EffectiveWeight(); w != 1 {
		t.Fatalf("zero weight should default to 1, got %v", w)
	}
	if w := (Attribute{Weight: 2.5}).EffectiveWeight(); w != 2.5 {
		t.Fatalf("explicit weight lost: %v", w)
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{ID: 7, QI: []float64{1, 2, 3}, Sensitive: "flu"}
	c := r.Clone()
	c.QI[0] = 99
	if r.QI[0] != 1 {
		t.Fatal("Clone shares QI slice")
	}
	if c.ID != 7 || c.Sensitive != "flu" {
		t.Fatalf("Clone lost fields: %+v", c)
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 2, Hi: 5}
	if iv.IsEmpty() || iv.Width() != 3 {
		t.Fatalf("interval basics wrong: %+v", iv)
	}
	if !iv.Contains(2) || !iv.Contains(5) || iv.Contains(5.001) {
		t.Fatal("Contains boundary handling wrong")
	}
	e := EmptyInterval()
	if !e.IsEmpty() || e.Width() != 0 {
		t.Fatal("empty interval misbehaves")
	}
	if e.Contains(0) {
		t.Fatal("empty interval contains a point")
	}
}

func TestIntervalSetOps(t *testing.T) {
	a := Interval{Lo: 0, Hi: 10}
	b := Interval{Lo: 5, Hi: 15}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("overlapping intervals report disjoint")
	}
	got := a.Intersect(b)
	if got != (Interval{Lo: 5, Hi: 10}) {
		t.Fatalf("Intersect = %v", got)
	}
	u := a.Union(b)
	if u != (Interval{Lo: 0, Hi: 15}) {
		t.Fatalf("Union = %v", u)
	}
	c := Interval{Lo: 20, Hi: 30}
	if a.Intersects(c) {
		t.Fatal("disjoint intervals report overlap")
	}
	if !a.Intersect(c).IsEmpty() {
		t.Fatal("Intersect of disjoint not empty")
	}
	// Touching intervals share the boundary point (closed intervals).
	d := Interval{Lo: 10, Hi: 12}
	if !a.Intersects(d) {
		t.Fatal("touching closed intervals must intersect")
	}
	if a.Union(EmptyInterval()) != a || EmptyInterval().Union(a) != a {
		t.Fatal("union with empty is not identity")
	}
}

func TestIntervalInclude(t *testing.T) {
	iv := EmptyInterval().Include(5)
	if iv != (Interval{Lo: 5, Hi: 5}) {
		t.Fatalf("Include on empty = %v", iv)
	}
	iv = iv.Include(2).Include(9)
	if iv != (Interval{Lo: 2, Hi: 9}) {
		t.Fatalf("Include grew wrong: %v", iv)
	}
}

func TestIntervalString(t *testing.T) {
	if s := (Interval{Lo: 20, Hi: 30}).String(); s != "[20 - 30]" {
		t.Fatalf("String = %q", s)
	}
	if s := (Interval{Lo: 7, Hi: 7}).String(); s != "7" {
		t.Fatalf("point String = %q", s)
	}
	if s := EmptyInterval().String(); s != "[]" {
		t.Fatalf("empty String = %q", s)
	}
	if s := (Interval{Lo: 1.5, Hi: 2.25}).String(); s != "[1.5 - 2.25]" {
		t.Fatalf("fraction String = %q", s)
	}
}

func TestBoxBasics(t *testing.T) {
	b := NewBox(3)
	if !b.IsEmpty() {
		t.Fatal("NewBox not empty")
	}
	b.Include([]float64{1, 2, 3})
	b.Include([]float64{4, 0, 3})
	if b.IsEmpty() {
		t.Fatal("box still empty after Include")
	}
	if !b.Contains([]float64{2, 1, 3}) {
		t.Fatal("box misses interior point")
	}
	if b.Contains([]float64{2, 1, 4}) {
		t.Fatal("box contains exterior point")
	}
	if b.Contains([]float64{2, 1}) {
		t.Fatal("dimension mismatch should not contain")
	}
	want := Box{{1, 4}, {0, 2}, {3, 3}}
	if !b.Equal(want) {
		t.Fatalf("box = %v, want %v", b, want)
	}
}

func TestBoxIntersection(t *testing.T) {
	a := Box{{0, 10}, {0, 10}}
	b := Box{{5, 15}, {5, 15}}
	if !a.Intersects(b) {
		t.Fatal("overlapping boxes report disjoint")
	}
	got := a.Intersect(b)
	if !got.Equal(Box{{5, 10}, {5, 10}}) {
		t.Fatalf("Intersect = %v", got)
	}
	c := Box{{11, 12}, {0, 10}}
	if a.Intersects(c) {
		t.Fatal("disjoint in one dim must mean disjoint overall")
	}
	if !a.Intersect(c).IsEmpty() {
		t.Fatal("Intersect of disjoint boxes not empty")
	}
}

func TestBoxUnionContains(t *testing.T) {
	a := Box{{0, 1}, {0, 1}}
	b := Box{{5, 6}, {5, 6}}
	u := a.Union(b)
	if !u.Equal(Box{{0, 6}, {0, 6}}) {
		t.Fatalf("Union = %v", u)
	}
	if !a.Union(NewBox(2)).Equal(a) {
		t.Fatal("union with the empty box must change nothing")
	}
	if len(a.Union(Box{})) != 2 || len(Box{}.Union(a)) != 2 {
		t.Fatal("union with zero-dim box should adopt the other box")
	}
}

func TestBoxCenterCloneString(t *testing.T) {
	b := Box{{0, 10}, {4, 4}}
	cl := b.Clone()
	cl[0] = Interval{Lo: 9, Hi: 9}
	if b[0].Lo != 0 {
		t.Fatal("Clone aliases storage")
	}
	if s := b.String(); s != "([0 - 10], 4)" {
		t.Fatalf("String = %q", s)
	}
}

func TestDomainOf(t *testing.T) {
	recs := []Record{
		{QI: []float64{1, 10}},
		{QI: []float64{5, -3}},
		{QI: []float64{2, 7}},
	}
	d := DomainOf(2, recs)
	if !d.Equal(Box{{1, 5}, {-3, 10}}) {
		t.Fatalf("DomainOf = %v", d)
	}
	if !DomainOf(2, nil).IsEmpty() {
		t.Fatal("DomainOf no records should be empty")
	}
}

func TestPointBox(t *testing.T) {
	p := []float64{3, 4}
	b := PointBox(p)
	if !b.Contains(p) || !b.Equal(Box{{3, 3}, {4, 4}}) {
		t.Fatalf("PointBox wrong: %v", b)
	}
}

// Property: union contains both operands and intersection is contained in
// both, for random boxes.
func TestBoxAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randBox := func() Box {
		b := NewBox(3)
		for d := 0; d < 3; d++ {
			a, c := rng.Float64()*100, rng.Float64()*100
			if a > c {
				a, c = c, a
			}
			b[d] = Interval{Lo: a, Hi: c}
		}
		return b
	}
	for i := 0; i < 500; i++ {
		a, b := randBox(), randBox()
		u := a.Union(b)
		if !u.Union(a).Equal(u) || !u.Union(b).Equal(u) {
			t.Fatalf("union violates containment: %v %v %v", a, b, u)
		}
		x := a.Intersect(b)
		if !x.IsEmpty() && (!a.Union(x).Equal(a) || !b.Union(x).Equal(b)) {
			t.Fatalf("intersection escapes operands: %v %v %v", a, b, x)
		}
		if a.Intersects(b) != !x.IsEmpty() {
			t.Fatalf("Intersects disagrees with Intersect emptiness")
		}
		if a.Intersects(b) != b.Intersects(a) {
			t.Fatal("Intersects not symmetric")
		}
	}
}

// Property (testing/quick): for any point set, DomainOf contains every
// point, and including a point never shrinks any interval.
func TestQuickDomainContainsAll(t *testing.T) {
	f := func(raw [][3]float64) bool {
		recs := make([]Record, len(raw))
		for i, p := range raw {
			recs[i] = Record{QI: []float64{p[0], p[1], p[2]}}
		}
		d := DomainOf(3, recs)
		for _, r := range recs {
			ok := true
			for i := range r.QI {
				if math.IsNaN(r.QI[i]) {
					ok = false
				}
			}
			if ok && !d.Contains(r.QI) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): interval union is commutative and associative
// up to exact equality on finite inputs.
func TestQuickIntervalUnionLaws(t *testing.T) {
	mk := func(a, b float64) Interval {
		if a > b {
			a, b = b, a
		}
		return Interval{Lo: a, Hi: b}
	}
	f := func(a1, b1, a2, b2, a3, b3 float64) bool {
		if anyNaN(a1, b1, a2, b2, a3, b3) {
			return true
		}
		x, y, z := mk(a1, b1), mk(a2, b2), mk(a3, b3)
		if x.Union(y) != y.Union(x) {
			return false
		}
		return x.Union(y).Union(z) == x.Union(y.Union(z))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func anyNaN(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}
