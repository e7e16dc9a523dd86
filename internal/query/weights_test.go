package query

import (
	"math"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
)

func TestWeightsFromWorkloadBasics(t *testing.T) {
	domain := attr.Box{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}}
	// Queries tightly constrain attribute 0, ignore attribute 1.
	queries := []attr.Box{
		{{Lo: 10, Hi: 12}, {Lo: 0, Hi: 100}},
		{{Lo: 40, Hi: 45}, {Lo: 0, Hi: 100}},
	}
	w := WeightsFromWorkload(queries, domain)
	if len(w) != 2 {
		t.Fatalf("weights %v", w)
	}
	if w[0] <= w[1] {
		t.Fatalf("constrained attribute not heavier: %v", w)
	}
	if w[1] != 0 {
		t.Fatalf("unconstrained attribute weight = %v, want 0", w[1])
	}
	// Normalization: mean 1.
	if math.Abs((w[0]+w[1])/2-1) > 1e-12 {
		t.Fatalf("weights not mean-1: %v", w)
	}
}

func TestWeightsFromWorkloadDegenerate(t *testing.T) {
	domain := attr.Box{{Lo: 0, Hi: 100}}
	w := WeightsFromWorkload(nil, domain)
	if len(w) != 1 || w[0] != 1 {
		t.Fatalf("empty workload weights = %v", w)
	}
	// Whole-domain queries constrain nothing: all ones.
	w = WeightsFromWorkload([]attr.Box{domain.Clone()}, domain)
	if w[0] != 1 {
		t.Fatalf("unconstraining workload weights = %v", w)
	}
	// Degenerate domain axis contributes nothing (and no NaNs).
	d2 := attr.Box{{Lo: 0, Hi: 100}, {Lo: 5, Hi: 5}}
	w = WeightsFromWorkload([]attr.Box{{{Lo: 0, Hi: 1}, {Lo: 5, Hi: 5}}}, d2)
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("degenerate domain weights = %v", w)
		}
	}
	// Mismatched query dimensionality is skipped, not fatal.
	w = WeightsFromWorkload([]attr.Box{{{Lo: 0, Hi: 1}}}, d2)
	if len(w) != 2 {
		t.Fatalf("weights %v", w)
	}
}

func TestDerivedWeightsImproveWorkloadAccuracy(t *testing.T) {
	// End-to-end Section 2.4: derive weights from a zipcode-heavy
	// workload, feed them to the weighted split policy, and verify the
	// resulting anonymization answers that workload more accurately
	// than the unweighted tree.
	schema := dataset.LandsEndSchema()
	zip := schema.AttrIndex("zipcode")
	recs := dataset.GenerateLandsEnd(4000, 88)
	domain := attr.DomainOf(schema.Dims(), recs)
	workload := SingleAttrWorkload(recs, zip, 200, 9, domain)

	weights := WeightsFromWorkload(workload, domain)
	if weights[zip] <= 1 {
		t.Fatalf("zipcode weight %v not elevated: %v", weights[zip], weights)
	}

	run := func(split rplustree.SplitPolicy) float64 {
		rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
			Schema: schema, BaseK: 10, Split: split,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Load(recs); err != nil {
			t.Fatal(err)
		}
		ps, err := rt.Partitions(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := anonmodel.CheckAnonymity(ps, anonmodel.KAnonymity{K: 10}); err != nil {
			t.Fatal(err)
		}
		results, err := Evaluate(ps, recs, workload)
		if err != nil {
			t.Fatal(err)
		}
		return MeanError(results)
	}
	weighted := run(rplustree.WeightedPolicy{Weights: weights})
	unweighted := run(nil)
	if weighted >= unweighted {
		t.Fatalf("derived weights did not help: weighted %v vs unweighted %v", weighted, unweighted)
	}
}
