package query_test

import (
	"math"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/dataset"
	"spatialanon/internal/query"
	"spatialanon/internal/routing"
	"spatialanon/internal/sfc"
)

func sessionRelease(t testing.TB) ([]anonmodel.Partition, *routing.Index, []query.Result) {
	t.Helper()
	recs := dataset.GeneratePatients(2000, 21)
	ps, err := sfc.Anonymize(recs, sfc.Hilbert, anonmodel.KAnonymity{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := routing.Build(ps, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := query.FullRangeWorkload(recs, 100, 22)
	results, err := query.Evaluate(ps, recs, queries)
	if err != nil {
		t.Fatal(err)
	}
	return ps, ix, results
}

// TestSessionsMatchLinear: accelerated and fallback sessions agree
// with the package-level linear scans, estimates bit-for-bit.
func TestSessionsMatchLinear(t *testing.T) {
	ps, ix, results := sessionRelease(t)
	for _, idx := range []*routing.Index{ix, nil} {
		c := query.NewCounter(ps, idx)
		e := query.NewEstimator(ps, idx)
		for _, r := range results {
			if got, want := c.Range(r.Query), query.CountAnonymized(ps, r.Query); got != want {
				t.Fatalf("idx=%v Range: got %d, want %d", idx != nil, got, want)
			}
			p := []float64{r.Query[0].Lo, r.Query[1].Lo, r.Query[2].Lo}
			if got, want := c.Point(p), query.CountAnonymizedPoint(ps, p); got != want {
				t.Fatalf("idx=%v Point: got %d, want %d", idx != nil, got, want)
			}
			got, want := e.Estimate(r.Query), query.EstimateUniform(ps, r.Query)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("idx=%v Estimate: got %v, want %v", idx != nil, got, want)
			}
		}
	}
}

// TestSessionZeroAlloc pins the warm-session zero-allocation contract
// for accelerated point, range and estimate calls — the read-path
// budget CI enforces.
func TestSessionZeroAlloc(t *testing.T) {
	ps, ix, results := sessionRelease(t)
	c := query.NewCounter(ps, ix)
	e := query.NewEstimator(ps, ix)
	point := []float64{results[0].Query[0].Lo, results[0].Query[1].Lo, results[0].Query[2].Lo}
	// Warm the session scratch.
	c.Point(point)
	c.Range(results[0].Query)
	e.Estimate(results[0].Query)
	i := 0
	if a := testing.AllocsPerRun(200, func() { c.Point(point) }); a != 0 {
		t.Errorf("Counter.Point: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { c.Range(results[i%len(results)].Query); i++ }); a != 0 {
		t.Errorf("Counter.Range: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { e.Estimate(results[i%len(results)].Query); i++ }); a != 0 {
		t.Errorf("Estimator.Estimate: %v allocs/op, want 0", a)
	}
}
