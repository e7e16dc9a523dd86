package serve

import (
	"math"
	"runtime"
	"testing"
	"time"

	"spatialanon/internal/attr"
	"spatialanon/internal/query"
	"spatialanon/internal/wal"
)

func accelServer(t *testing.T, n int) (*Server, *View) {
	t.Helper()
	st := newStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	recs := makeRecords(t, n, 5)
	ops := make([]wal.Op, len(recs))
	for i, r := range recs {
		ops[i] = wal.Op{Type: wal.TypeInsert, Rec: r}
	}
	if _, err := st.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	s, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, s.View()
}

// TestViewAccelMatchesLinear: the view's accelerated sessions and the
// Count convenience path answer exactly what the linear scans over the same
// release answer — estimates bit-for-bit.
func TestViewAccelMatchesLinear(t *testing.T) {
	_, v := accelServer(t, 3000)
	ps, err := v.Release(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := v.Counter(0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := v.Estimator(0)
	if err != nil {
		t.Fatal(err)
	}
	queries := query.FullRangeWorkload(v.Records(), 60, 6)
	points := query.PointWorkload(v.Records(), 60, 7)
	for _, p := range points {
		if got, want := c.Point(p), query.CountAnonymizedPoint(ps, p); got != want {
			t.Fatalf("Point(%v) = %d, want %d", p, got, want)
		}
	}
	for _, q := range queries {
		if got, want := c.Range(q), query.CountAnonymized(ps, q); got != want {
			t.Fatalf("Range = %d, want %d", got, want)
		}
		want := query.EstimateUniform(ps, q)
		if got := e.Estimate(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Estimate = %v, want %v", got, want)
		}
		got, err := v.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Count = %v, want %v", got, want)
		}
	}
}

// TestAccelMemoization: one accelerator per (epoch, granularity) —
// repeated asks share the build, and the base granularity is one entry
// whether asked for as 0 or as the store's base k.
func TestAccelMemoization(t *testing.T) {
	_, v := accelServer(t, 500)
	a1, err := v.Accel(0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := v.Accel(0)
	if err != nil {
		t.Fatal(err)
	}
	a3, err := v.Accel(v.BaseK())
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || a1 != a3 {
		t.Fatal("Accel must memoize one index per (epoch, granularity)")
	}
	coarse, err := v.Accel(v.BaseK() * 4)
	if err != nil {
		t.Fatal(err)
	}
	if coarse == a1 {
		t.Fatal("coarser granularity must get its own index")
	}
	if coarse.Len() > a1.Len() {
		t.Fatalf("coarse release has %d partitions, base %d", coarse.Len(), a1.Len())
	}
	if _, err := v.Accel(v.BaseK() - 1); err == nil {
		t.Fatal("granularity below base k must be rejected")
	}
}

// TestViewSessionZeroAlloc pins the serving read path's warm
// zero-alloc contract end to end: sessions minted by a View allocate
// nothing per query once warm.
func TestViewSessionZeroAlloc(t *testing.T) {
	_, v := accelServer(t, 3000)
	c, err := v.Counter(0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := v.Estimator(0)
	if err != nil {
		t.Fatal(err)
	}
	queries := query.FullRangeWorkload(v.Records(), 32, 8)
	point := v.Records()[0].QI
	c.Point(point)
	c.Range(queries[0])
	e.Estimate(queries[0])
	i := 0
	if a := testing.AllocsPerRun(200, func() { c.Point(point) }); a != 0 {
		t.Errorf("View Counter.Point: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { c.Range(queries[i%len(queries)]); i++ }); a != 0 {
		t.Errorf("View Counter.Range: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { e.Estimate(queries[i%len(queries)]); i++ }); a != 0 {
		t.Errorf("View Estimator.Estimate: %v allocs/op, want 0", a)
	}
	// The convenience path borrows the view's spare session, so it too
	// allocates nothing once warm, under -race as well.
	if _, err := v.Count(queries[0]); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() { v.Count(queries[i%len(queries)]); i++ }); a != 0 {
		t.Errorf("View.Count: %v allocs/op, want 0", a)
	}
}

// TestDeadViewIsCollected: once a newer epoch is published and no
// reader holds the old view, one collection frees it, with all it
// memoized, even after a Count. A sync.Pool in the view kept it for
// two, so the fewer collections the heap needed, the more dead epochs
// it held.
func TestDeadViewIsCollected(t *testing.T) {
	s, v := accelServer(t, 3000)
	if _, err := v.Count(attr.PointBox(v.Records()[0].QI)); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(v, func(*View) { close(freed) })
	v = nil
	rec := makeRecords(t, 1, 99)[0]
	rec.ID = 1 << 40
	if err := s.Insert(rec); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a dead view outlived a collection")
	}
}
