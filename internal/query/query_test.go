package query

import (
	"math"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/compact"
	"spatialanon/internal/dataset"
	"spatialanon/internal/mondrian"
)

func TestFullRangeWorkloadContainsSeeds(t *testing.T) {
	recs := dataset.GeneratePatients(200, 80)
	qs := FullRangeWorkload(recs, 100, 1)
	if len(qs) != 100 {
		t.Fatalf("%d queries", len(qs))
	}
	for i, q := range qs {
		if CountOriginal(recs, q) < 1 {
			t.Fatalf("query %d has empty original result", i)
		}
		if len(q) != 3 {
			t.Fatalf("query %d has %d dims", i, len(q))
		}
	}
	// Deterministic under seed.
	qs2 := FullRangeWorkload(recs, 100, 1)
	for i := range qs {
		if !qs[i].Equal(qs2[i]) {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestSingleAttrWorkload(t *testing.T) {
	recs := dataset.GeneratePatients(200, 81)
	domain := attr.DomainOf(3, recs)
	qs := SingleAttrWorkload(recs, 2, 50, 2, domain)
	for _, q := range qs {
		if q[0] != domain[0] || q[1] != domain[1] {
			t.Fatal("unbounded attributes must span the domain")
		}
		if q[2].Lo < domain[2].Lo || q[2].Hi > domain[2].Hi {
			t.Fatal("bounded attribute escapes domain")
		}
		if CountOriginal(recs, q) < 1 {
			t.Fatal("empty original result")
		}
	}
}

func TestCountSemantics(t *testing.T) {
	// Anonymized counting follows the paper's example: a record
	// ([40-50],[53710-53720]) matches ((45<=age<=55) and
	// (53700<=zip<=53715)); ([30-35],[53700-53715]) does not.
	q := attr.Box{{Lo: 45, Hi: 55}, {Lo: 53700, Hi: 53715}}
	match := anonmodel.Partition{
		Box:     attr.Box{{Lo: 40, Hi: 50}, {Lo: 53710, Hi: 53720}},
		Records: make([]attr.Record, 3),
	}
	miss := anonmodel.Partition{
		Box:     attr.Box{{Lo: 30, Hi: 35}, {Lo: 53700, Hi: 53715}},
		Records: make([]attr.Record, 2),
	}
	if got := CountAnonymized([]anonmodel.Partition{match, miss}, q); got != 3 {
		t.Fatalf("CountAnonymized = %d, want 3", got)
	}
}

func TestEstimateUniform(t *testing.T) {
	// Section 2.3's worked example: partition of 10 tuples with age
	// [30-40], query [25-35] -> overlap [30-35]: 10 x 6/11 cells. (The
	// paper's 10 x 5/10 uses continuous widths; the cell version is the
	// discrete analogue.)
	p := anonmodel.Partition{
		Box:     attr.Box{{Lo: 30, Hi: 40}},
		Records: make([]attr.Record, 10),
	}
	q := attr.Box{{Lo: 25, Hi: 35}}
	got := EstimateUniform([]anonmodel.Partition{p}, q)
	want := 10.0 * 6.0 / 11.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("EstimateUniform = %v, want %v", got, want)
	}
	// Disjoint query contributes nothing.
	if EstimateUniform([]anonmodel.Partition{p}, attr.Box{{Lo: 50, Hi: 60}}) != 0 {
		t.Fatal("disjoint partition contributed")
	}
}

func TestEvaluateAndError(t *testing.T) {
	recs := dataset.GeneratePatients(600, 82)
	s := dataset.PatientsSchema()
	ps, err := mondrian.Anonymize(s, recs, mondrian.Options{Constraint: anonmodel.KAnonymity{K: 10}})
	if err != nil {
		t.Fatal(err)
	}
	qs := FullRangeWorkload(recs, 200, 3)
	results, err := Evaluate(ps, recs, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		// The anonymized count can never undercount: every original
		// match's partition intersects the query.
		if r.Anonymized < r.Original {
			t.Fatalf("anonymized count %d below original %d", r.Anonymized, r.Original)
		}
		if r.Err < 0 {
			t.Fatalf("negative error %v", r.Err)
		}
	}
	mean := MeanError(results)
	if mean < 0 {
		t.Fatalf("mean error %v", mean)
	}
	// Compaction must not increase the mean error (Figure 12(a)).
	cres, err := Evaluate(compact.Partitions(ps), recs, qs)
	if err != nil {
		t.Fatal(err)
	}
	if MeanError(cres) > mean+1e-9 {
		t.Fatalf("compaction increased error: %v -> %v", mean, MeanError(cres))
	}
	if MeanError(nil) != 0 {
		t.Fatal("MeanError of empty must be 0")
	}
}

func TestEvaluateRejectsEmptyOriginal(t *testing.T) {
	recs := dataset.GeneratePatients(50, 83)
	q := attr.Box{{Lo: -10, Hi: -5}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}
	if _, err := Evaluate(nil, recs, []attr.Box{q}); err == nil {
		t.Fatal("zero-count query accepted")
	}
}

func TestBySelectivity(t *testing.T) {
	results := []Result{
		{Original: 1, Err: 1.0},   // sel 0.001
		{Original: 50, Err: 0.5},  // sel 0.05
		{Original: 900, Err: 0.1}, // sel 0.9
	}
	buckets := BySelectivity(results, 1000, []float64{0.01, 0.1})
	if len(buckets) != 3 {
		t.Fatalf("%d buckets", len(buckets))
	}
	if buckets[0].Queries != 1 || buckets[0].Mean != 1.0 {
		t.Fatalf("bucket 0: %+v", buckets[0])
	}
	if buckets[1].Queries != 1 || buckets[1].Mean != 0.5 {
		t.Fatalf("bucket 1: %+v", buckets[1])
	}
	if buckets[2].Queries != 1 || buckets[2].Mean != 0.1 {
		t.Fatalf("bucket 2: %+v", buckets[2])
	}
	// Selectivity exactly 1.0 lands in the last bucket.
	full := []Result{{Original: 1000, Err: 0.2}}
	b2 := BySelectivity(full, 1000, []float64{0.5})
	if b2[1].Queries != 1 {
		t.Fatalf("full-table query lost: %+v", b2)
	}
	// Empty buckets retained.
	b3 := BySelectivity(nil, 1000, []float64{0.5})
	if len(b3) != 2 || b3[0].Queries != 0 {
		t.Fatalf("empty buckets: %+v", b3)
	}
}

func TestErrorShrinksWithSelectivity(t *testing.T) {
	// Figure 12(b): larger query results -> smaller normalized error.
	recs := dataset.GeneratePatients(2000, 84)
	s := dataset.PatientsSchema()
	ps, err := mondrian.Anonymize(s, recs, mondrian.Options{Constraint: anonmodel.KAnonymity{K: 20}})
	if err != nil {
		t.Fatal(err)
	}
	qs := FullRangeWorkload(recs, 400, 5)
	results, err := Evaluate(compact.Partitions(ps), recs, qs)
	if err != nil {
		t.Fatal(err)
	}
	buckets := BySelectivity(results, len(recs), []float64{0.05, 0.25})
	lowSel, highSel := buckets[0], buckets[2]
	if lowSel.Queries == 0 || highSel.Queries == 0 {
		t.Skipf("degenerate workload spread: %+v", buckets)
	}
	if highSel.Mean > lowSel.Mean {
		t.Fatalf("error grew with selectivity: low %v high %v", lowSel.Mean, highSel.Mean)
	}
}

// TestBySelectivityGuards: the division-by-zero edges stay finite —
// total <= 0 returns the empty bucket skeleton, empty buckets report a
// zero mean, and an empty result set still yields the full skeleton so
// series line up across anonymizers.
func TestBySelectivityGuards(t *testing.T) {
	some := []Result{{Original: 10, Err: 0.5}, {Original: 900, Err: 0.1}}
	cases := []struct {
		name    string
		results []Result
		total   int
		bounds  []float64
	}{
		{"zero total", some, 0, []float64{0.1}},
		{"negative total", some, -7, []float64{0.1}},
		{"empty results", nil, 1000, []float64{0.01, 0.1}},
		{"no bounds", some, 1000, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			buckets := BySelectivity(c.results, c.total, c.bounds)
			if want := len(c.bounds) + 1; len(buckets) != want {
				t.Fatalf("%d buckets, want %d", len(buckets), want)
			}
			counted := 0
			for _, b := range buckets {
				if math.IsNaN(b.Mean) || math.IsInf(b.Mean, 0) {
					t.Fatalf("bucket [%v,%v) mean %v not finite", b.Lo, b.Hi, b.Mean)
				}
				if b.Queries == 0 && b.Mean != 0 {
					t.Fatalf("empty bucket [%v,%v) has mean %v", b.Lo, b.Hi, b.Mean)
				}
				counted += b.Queries
			}
			if c.total <= 0 && counted != 0 {
				t.Fatalf("total=%d assigned %d queries, want 0", c.total, counted)
			}
		})
	}
}

// TestPointWorkload: points are drawn from real records (so point
// queries always have hits on the original table) and the draw is
// replayable from the seed.
func TestPointWorkload(t *testing.T) {
	recs := dataset.GeneratePatients(200, 80)
	pts := PointWorkload(recs, 50, 81)
	if len(pts) != 50 {
		t.Fatalf("%d points, want 50", len(pts))
	}
	byID := make(map[float64]bool)
	for _, r := range recs {
		byID[r.QI[0]*1e6+r.QI[1]*1e3+r.QI[2]] = true
	}
	for _, p := range pts {
		if len(p) != 3 {
			t.Fatalf("point dims %d", len(p))
		}
		if !byID[p[0]*1e6+p[1]*1e3+p[2]] {
			t.Fatalf("point %v is not a record", p)
		}
	}
	again := PointWorkload(recs, 50, 81)
	for i := range pts {
		for d := range pts[i] {
			if pts[i][d] != again[i][d] {
				t.Fatal("PointWorkload not replayable from seed")
			}
		}
	}
}
