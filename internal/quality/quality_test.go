package quality

import (
	"math"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/compact"
	"spatialanon/internal/dataset"
	"spatialanon/internal/mondrian"
)

func twoPartitions() []anonmodel.Partition {
	return []anonmodel.Partition{
		{
			Box: attr.Box{{Lo: 20, Hi: 30}, {Lo: 0, Hi: 0}},
			Records: []attr.Record{
				{ID: 1, QI: []float64{20, 0}},
				{ID: 2, QI: []float64{30, 0}},
			},
		},
		{
			Box: attr.Box{{Lo: 40, Hi: 60}, {Lo: 0, Hi: 1}},
			Records: []attr.Record{
				{ID: 3, QI: []float64{40, 0}},
				{ID: 4, QI: []float64{50, 1}},
				{ID: 5, QI: []float64{60, 1}},
			},
		},
	}
}

func twoAttrSchema() *attr.Schema {
	return &attr.Schema{Attrs: []attr.Attribute{
		{Name: "age", Kind: attr.Numeric},
		{Name: "sex", Kind: attr.Categorical},
	}}
}

func TestDiscernibilityHandComputed(t *testing.T) {
	ps := twoPartitions()
	if dm := Discernibility(ps); dm != 4+9 {
		t.Fatalf("DM = %v, want 13", dm)
	}
	if Discernibility(nil) != 0 {
		t.Fatal("DM of empty must be 0")
	}
}

func TestCertaintyHandComputed(t *testing.T) {
	ps := twoPartitions()
	s := twoAttrSchema()
	domain := attr.Box{{Lo: 20, Hi: 60}, {Lo: 0, Hi: 1}}
	// P1: age 10/40, sex 0/1 -> ncp 0.25, times 2 tuples = 0.5
	// P2: age 20/40, sex 1/1 -> ncp 1.5, times 3 tuples = 4.5
	want := 0.5 + 4.5
	if cm := Certainty(s, ps, domain); math.Abs(cm-want) > 1e-12 {
		t.Fatalf("CM = %v, want %v", cm, want)
	}
	// Weights double one attribute's contribution.
	s.Attrs[0].Weight = 2
	want = 2*(10.0/40)*2 + (2*(20.0/40)+1)*3
	if cm := Certainty(s, ps, domain); math.Abs(cm-want) > 1e-12 {
		t.Fatalf("weighted CM = %v, want %v", cm, want)
	}
}

func TestCertaintyWithHierarchy(t *testing.T) {
	h, err := attr.BuildHierarchy(attr.Node("*",
		attr.Node("WI", attr.Leaf("53706"), attr.Leaf("53710")),
		attr.Node("IA", attr.Leaf("52100"), attr.Leaf("52108")),
	))
	if err != nil {
		t.Fatal(err)
	}
	s := &attr.Schema{Attrs: []attr.Attribute{
		{Name: "zip", Kind: attr.Categorical, Hierarchy: h},
	}}
	domain := attr.Box{{Lo: 0, Hi: 3}}
	// Codes 0..1 generalize to WI: 2 of 4 leaves -> 0.5 per tuple.
	ps := []anonmodel.Partition{{
		Box: attr.Box{{Lo: 0, Hi: 1}},
		Records: []attr.Record{
			{ID: 1, QI: []float64{0}},
			{ID: 2, QI: []float64{1}},
		},
	}}
	if cm := Certainty(s, ps, domain); math.Abs(cm-1.0) > 1e-12 {
		t.Fatalf("hierarchy CM = %v, want 1.0", cm)
	}
	// Single value: zero contribution.
	single := []anonmodel.Partition{{
		Box:     attr.Box{{Lo: 2, Hi: 2}},
		Records: []attr.Record{{ID: 3, QI: []float64{2}}},
	}}
	if cm := Certainty(s, single, domain); cm != 0 {
		t.Fatalf("single-value CM = %v, want 0", cm)
	}
	// Codes spanning both subtrees generalize to the root: 4/4 leaves.
	wide := []anonmodel.Partition{{
		Box: attr.Box{{Lo: 1, Hi: 2}},
		Records: []attr.Record{
			{ID: 4, QI: []float64{1}},
			{ID: 5, QI: []float64{2}},
		},
	}}
	if cm := Certainty(s, wide, domain); math.Abs(cm-2.0) > 1e-12 {
		t.Fatalf("cross-subtree CM = %v, want 2.0", cm)
	}
}

func TestGlobalCertaintyBounds(t *testing.T) {
	s := twoAttrSchema()
	ps := twoPartitions()
	domain := attr.Box{{Lo: 20, Hi: 60}, {Lo: 0, Hi: 1}}
	g := GlobalCertainty(s, ps, domain)
	if g < 0 || g > 1 {
		t.Fatalf("GCP = %v outside [0,1]", g)
	}
	// Exact single-point partitions score 0.
	exact := []anonmodel.Partition{{
		Box:     attr.Box{{Lo: 25, Hi: 25}, {Lo: 0, Hi: 0}},
		Records: []attr.Record{{ID: 1, QI: []float64{25, 0}}},
	}}
	if g := GlobalCertainty(s, exact, domain); g != 0 {
		t.Fatalf("GCP of exact release = %v", g)
	}
	// Full-domain partitions score 1.
	full := []anonmodel.Partition{{
		Box: domain,
		Records: []attr.Record{
			{ID: 1, QI: []float64{20, 0}},
			{ID: 2, QI: []float64{60, 1}},
		},
	}}
	if g := GlobalCertainty(s, full, domain); math.Abs(g-1) > 1e-12 {
		t.Fatalf("GCP of full-domain release = %v", g)
	}
	if GlobalCertainty(s, nil, domain) != 0 {
		t.Fatal("GCP of empty release must be 0")
	}
}

func TestKLDivergenceHandComputed(t *testing.T) {
	// One partition, box of 2 cells, two distinct single tuples:
	// p1 = 1/2 each; p2 = (2/2)*(1/2) = 1/2 each -> KL = 0.
	ps := []anonmodel.Partition{{
		Box: attr.Box{{Lo: 0, Hi: 1}},
		Records: []attr.Record{
			{ID: 1, QI: []float64{0}},
			{ID: 2, QI: []float64{1}},
		},
	}}
	if kl := KLDivergence(ps); math.Abs(kl) > 1e-12 {
		t.Fatalf("uniform KL = %v, want 0", kl)
	}
	// Box of 3 cells, two tuples at the same point: p1(t)=1, p2(t)=1/3,
	// KL = log 3.
	ps2 := []anonmodel.Partition{{
		Box: attr.Box{{Lo: 0, Hi: 2}},
		Records: []attr.Record{
			{ID: 1, QI: []float64{1}},
			{ID: 2, QI: []float64{1}},
		},
	}}
	if kl := KLDivergence(ps2); math.Abs(kl-math.Log(3)) > 1e-12 {
		t.Fatalf("KL = %v, want log 3", kl)
	}
	if KLDivergence(nil) != 0 {
		t.Fatal("KL of empty must be 0")
	}
}

func TestKLNonNegativeAndCompactionHelps(t *testing.T) {
	recs := dataset.GeneratePatients(1000, 50)
	ps, err := mondrian.Anonymize(dataset.PatientsSchema(), recs, mondrian.Options{
		Constraint: anonmodel.KAnonymity{K: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	klRaw := KLDivergence(ps)
	if klRaw < 0 {
		t.Fatalf("KL negative: %v", klRaw)
	}
	cs := compact.Partitions(ps)
	klCompact := KLDivergence(cs)
	if klCompact < 0 {
		t.Fatalf("compacted KL negative: %v", klCompact)
	}
	if klCompact > klRaw+1e-9 {
		t.Fatalf("compaction worsened KL: %v -> %v", klRaw, klCompact)
	}
	// Certainty must also never get worse under compaction (the paper's
	// Figure 10(b) shows it improving sharply).
	s := dataset.PatientsSchema()
	domain := attr.DomainOf(s.Dims(), recs)
	if cmC, cmR := Certainty(s, cs, domain), Certainty(s, ps, domain); cmC > cmR+1e-9 {
		t.Fatalf("compaction worsened CM: %v -> %v", cmR, cmC)
	}
	// ... while DM is exactly unchanged (Figure 10(a)).
	if Discernibility(cs) != Discernibility(ps) {
		t.Fatal("compaction changed DM")
	}
}

func TestMeasure(t *testing.T) {
	s := twoAttrSchema()
	ps := twoPartitions()
	domain := attr.Box{{Lo: 20, Hi: 60}, {Lo: 0, Hi: 1}}
	r := Measure(s, ps, domain)
	if r.Partitions != 2 {
		t.Fatalf("partitions = %d", r.Partitions)
	}
	if r.Discernibility != Discernibility(ps) ||
		r.Certainty != Certainty(s, ps, domain) ||
		r.KLDivergence != KLDivergence(ps) {
		t.Fatal("Measure disagrees with individual metrics")
	}
}

func TestBoxCells(t *testing.T) {
	if c := (attr.Box{{Lo: 0, Hi: 0}}).Cells(); c != 1 {
		t.Fatalf("point cells = %v", c)
	}
	if c := (attr.Box{{Lo: 0, Hi: 2}, {Lo: 5, Hi: 6}}).Cells(); c != 6 {
		t.Fatalf("cells = %v, want 6", c)
	}
}
