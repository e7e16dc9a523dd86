package rplustree

import (
	"runtime"
	"slices"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

func splitCtx() SplitContext {
	return SplitContext{
		Schema: dataset.PatientsSchema(),
		Domain: attr.Box{
			{Lo: 0, Hi: 100},
			{Lo: 0, Hi: 1},
			{Lo: 52000, Hi: 54000},
		},
		MinSide: 2,
	}
}

func recsAt(points ...[]float64) []attr.Record {
	out := make([]attr.Record, len(points))
	for i, p := range points {
		out[i] = attr.Record{ID: int64(i), QI: p}
	}
	return out
}

func TestAxisCandidate(t *testing.T) {
	recs := recsAt(
		[]float64{1, 0, 0}, []float64{2, 0, 0}, []float64{3, 0, 0}, []float64{4, 0, 0},
	)
	v, leftN, ok := axisCandidate(recs, 0)
	if !ok || v != 3 || leftN != 2 {
		t.Fatalf("axisCandidate = %v,%d,%v", v, leftN, ok)
	}
	// All values equal: unusable axis.
	if _, _, ok := axisCandidate(recs, 1); ok {
		t.Fatal("constant axis reported usable")
	}
	// Duplicate-heavy: median equals min, candidate must move past it.
	dup := recsAt(
		[]float64{5, 0, 0}, []float64{5, 0, 0}, []float64{5, 0, 0}, []float64{9, 0, 0},
	)
	v, leftN, ok = axisCandidate(dup, 0)
	if !ok || v != 9 || leftN != 3 {
		t.Fatalf("duplicate-run candidate = %v,%d,%v", v, leftN, ok)
	}
}

func TestMinMarginPolicyPrefersTightSplit(t *testing.T) {
	// Two tight clusters along zipcode (axis 2); age (axis 0) spread
	// mildly. Splitting zipcode separates clusters and yields near-zero
	// margins; splitting age leaves both boxes wide on zipcode.
	recs := recsAt(
		[]float64{10, 0, 52000}, []float64{20, 0, 52001}, []float64{30, 0, 52002},
		[]float64{15, 0, 53900}, []float64{25, 0, 53901}, []float64{35, 0, 53902},
	)
	axis, v, ok := (MinMarginPolicy{}).ChooseSplit(recs, splitCtx())
	if !ok {
		t.Fatal("split not found")
	}
	if axis != 2 {
		t.Fatalf("MinMargin chose axis %d, want 2 (zipcode)", axis)
	}
	if v <= 52002 || v > 53900 {
		t.Fatalf("split value %v does not separate clusters", v)
	}
}

func TestMinMarginPolicyUnsplittable(t *testing.T) {
	recs := recsAt([]float64{1, 1, 1}, []float64{1, 1, 1}, []float64{1, 1, 1})
	if _, _, ok := (MinMarginPolicy{}).ChooseSplit(recs, splitCtx()); ok {
		t.Fatal("identical points reported splittable")
	}
}

func TestWidestAxisPolicy(t *testing.T) {
	// zipcode (axis 2) spans nearly its whole normalized domain; age a
	// sliver; sex held constant (a varying binary attribute would span
	// its entire normalized domain and legitimately win).
	recs := recsAt(
		[]float64{10, 0, 52000}, []float64{11, 0, 52500},
		[]float64{12, 0, 53000}, []float64{13, 0, 53999},
	)
	axis, _, ok := (WidestAxisPolicy{}).ChooseSplit(recs, splitCtx())
	if !ok || axis != 2 {
		t.Fatalf("WidestAxis chose %d, want 2", axis)
	}
	// When the widest axis is constant it must fall through to the next.
	recs2 := recsAt(
		[]float64{10, 0, 53000}, []float64{40, 0, 53000},
		[]float64{70, 0, 53000}, []float64{90, 0, 53000},
	)
	axis, _, ok = (WidestAxisPolicy{}).ChooseSplit(recs2, splitCtx())
	if !ok || axis != 0 {
		t.Fatalf("WidestAxis fallback chose %d, want 0", axis)
	}
	if _, _, ok := (WidestAxisPolicy{}).ChooseSplit(recsAt([]float64{1, 1, 1}, []float64{1, 1, 1}), splitCtx()); ok {
		t.Fatal("identical points reported splittable")
	}
}

func TestBiasedPolicy(t *testing.T) {
	recs := recsAt(
		[]float64{10, 0, 52000}, []float64{20, 1, 52900},
		[]float64{30, 0, 53500}, []float64{40, 1, 53999},
	)
	// Bias to zipcode: every split lands on axis 2 regardless of shape.
	p := BiasedPolicy{Axes: []int{2}}
	axis, _, ok := p.ChooseSplit(recs, splitCtx())
	if !ok || axis != 2 {
		t.Fatalf("biased split on %d, want 2", axis)
	}
	// Preferred axis constant -> falls back.
	flat := recsAt(
		[]float64{10, 0, 53000}, []float64{20, 1, 53000},
		[]float64{30, 0, 53000}, []float64{40, 1, 53000},
	)
	axis, _, ok = p.ChooseSplit(flat, splitCtx())
	if !ok || axis == 2 {
		t.Fatalf("fallback split on %d, want != 2", axis)
	}
	// Priority order respected among preferred axes.
	p2 := BiasedPolicy{Axes: []int{1, 2}}
	axis, _, ok = p2.ChooseSplit(recs, splitCtx())
	if !ok || axis != 1 {
		t.Fatalf("priority split on %d, want 1", axis)
	}
}

func TestWeightedPolicy(t *testing.T) {
	// Square-ish data: unweighted margin ties are broken by axis
	// preference, but a heavy weight on zipcode (axis 2) must force the
	// policy to shorten zipcode, i.e. split it.
	recs := recsAt(
		[]float64{0, 0, 52000}, []float64{100, 0, 52000},
		[]float64{0, 0, 54000}, []float64{100, 0, 54000},
		[]float64{50, 0, 53000}, []float64{50, 0, 53001},
	)
	heavy := WeightedPolicy{Weights: []float64{1, 1, 100}}
	axis, _, ok := heavy.ChooseSplit(recs, splitCtx())
	if !ok || axis != 2 {
		t.Fatalf("weighted split on %d, want 2", axis)
	}
	light := WeightedPolicy{Weights: []float64{100, 1, 1}}
	axis, _, ok = light.ChooseSplit(recs, splitCtx())
	if !ok || axis != 0 {
		t.Fatalf("weighted split on %d, want 0", axis)
	}
}

func TestTreeWithBiasedPolicySplitsOnlyPreferredAxis(t *testing.T) {
	schema := dataset.LandsEndSchema()
	zip := schema.AttrIndex("zipcode")
	tr, err := New(Config{Schema: schema, BaseK: 5, Split: BiasedPolicy{Axes: []int{zip}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range dataset.GenerateLandsEnd(1000, 12) {
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every leaf should be narrow on zipcode relative to the domain —
	// the signature of zipcode-biased splitting (Figure 4(b)).
	dom := tr.root.mbr
	domW := dom[zip].Width()
	leaves := tr.Leaves()
	narrow := 0
	for _, l := range leaves {
		if l.Box[zip].Width() < domW/8 {
			narrow++
		}
	}
	if narrow < len(leaves)*9/10 {
		t.Fatalf("only %d of %d leaves narrow on zipcode", narrow, len(leaves))
	}
}

// callLog is a SplitPolicy that records the size of every record set it
// is asked to split, with no lock, and delegates to MinMarginPolicy.
type callLog struct{ sizes []int }

func (c *callLog) ChooseSplit(recs []attr.Record, ctx SplitContext) (int, float64, bool) {
	c.sizes = append(c.sizes, len(recs))
	return MinMarginPolicy{}.ChooseSplit(recs, ctx)
}

// TestSplitPolicyCallOrder pins that a bulk load calls its SplitPolicy
// from the calling goroutine, in one order at any core count (GOMAXPROCS),
// so a policy need not be safe for concurrent calls. Run it under -race.
func TestSplitPolicyCallOrder(t *testing.T) {
	calls := func(procs int) []int {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		log := &callLog{}
		tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 5, Split: log})
		if err != nil {
			t.Fatal(err)
		}
		bl, err := NewBulkLoader(tr, BulkLoadConfig{RecordBytes: 32})
		if err != nil {
			t.Fatal(err)
		}
		if err := bl.InsertBatch(dataset.GenerateLandsEnd(20000, 1)); err != nil {
			t.Fatal(err)
		}
		if err := bl.Flush(); err != nil {
			t.Fatal(err)
		}
		return log.sizes
	}
	serial, wide := calls(1), calls(8)
	if !slices.Equal(serial, wide) {
		t.Fatalf("GOMAXPROCS 8 made %d split policy calls, GOMAXPROCS 1 %d, or in another order", len(wide), len(serial))
	}
}

func TestCandidateOrdering(t *testing.T) {
	a := candidate{axis: 1, balanced: true, score: 5}
	b := candidate{axis: 0, balanced: false, score: 1}
	if !a.better(b) {
		t.Fatal("balanced candidate must beat unbalanced")
	}
	c := candidate{axis: 0, balanced: true, score: 4}
	if !c.better(a) {
		t.Fatal("lower score must win")
	}
	d := candidate{axis: 2, balanced: true, score: 4}
	if !c.better(d) || d.better(c) {
		t.Fatal("axis index must break ties deterministically")
	}
}
