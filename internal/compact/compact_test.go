package compact

import (
	"testing"
	"testing/quick"

	"math/rand"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/mondrian"
)

func TestPartitionShrinksToMBR(t *testing.T) {
	p := anonmodel.Partition{
		Box: attr.Box{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}},
		Records: []attr.Record{
			{ID: 1, QI: []float64{20, 30}},
			{ID: 2, QI: []float64{24, 35}},
		},
	}
	c := Partition(p)
	want := attr.Box{{Lo: 20, Hi: 24}, {Lo: 30, Hi: 35}}
	if !c.Box.Equal(want) {
		t.Fatalf("compacted box = %v, want %v", c.Box, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 {
		t.Fatal("records lost")
	}
	// Original untouched.
	if p.Box[0].Hi != 100 {
		t.Fatal("input partition mutated")
	}
}

func TestEmptyPartition(t *testing.T) {
	c := Partition(anonmodel.Partition{Box: attr.NewBox(2)})
	if !c.Box.IsEmpty() {
		t.Fatalf("empty partition compacted to %v", c.Box)
	}
	// A partition with records but a zero-dim box infers dims.
	c2 := Partition(anonmodel.Partition{Records: []attr.Record{{QI: []float64{3, 4}}}})
	if !c2.Box.Equal(attr.Box{{Lo: 3, Hi: 3}, {Lo: 4, Hi: 4}}) {
		t.Fatalf("inferred box = %v", c2.Box)
	}
}

// Properties, on real Mondrian output: compaction never enlarges any
// interval, still contains all records, preserves record sets exactly,
// and is idempotent.
func TestCompactionProperties(t *testing.T) {
	recs := dataset.GeneratePatients(800, 40)
	ps, err := mondrian.Anonymize(dataset.PatientsSchema(), recs, mondrian.Options{
		Constraint: anonmodel.KAnonymity{K: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := Partitions(ps)
	if len(cs) != len(ps) {
		t.Fatal("partition count changed")
	}
	for i := range ps {
		if !ps[i].Box.Union(cs[i].Box).Equal(ps[i].Box) {
			t.Fatalf("partition %d: compacted box %v escapes original %v", i, cs[i].Box, ps[i].Box)
		}
		for d := range cs[i].Box {
			if cs[i].Box[d].Width() > ps[i].Box[d].Width()+1e-12 {
				t.Fatalf("partition %d dim %d grew", i, d)
			}
		}
		if err := cs[i].Validate(); err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		if cs[i].Size() != ps[i].Size() {
			t.Fatalf("partition %d record count changed", i)
		}
	}
	// Idempotence.
	twice := Partitions(cs)
	for i := range cs {
		if !twice[i].Box.Equal(cs[i].Box) {
			t.Fatalf("compaction not idempotent at %d", i)
		}
	}
	// DM is untouched by construction (same cardinalities) — assert the
	// cardinality multiset explicitly.
	for i := range ps {
		if cs[i].Size() != ps[i].Size() {
			t.Fatal("cardinality changed")
		}
	}
}

// quick-check: compaction of random partitions always yields the exact
// MBR (Lo = min, Hi = max per dimension).
func TestQuickCompactExactMBR(t *testing.T) {
	f := func(pts [][2]int8) bool {
		if len(pts) == 0 {
			return true
		}
		recs := make([]attr.Record, len(pts))
		for i, p := range pts {
			recs[i] = attr.Record{ID: int64(i), QI: []float64{float64(p[0]), float64(p[1])}}
		}
		c := Partition(anonmodel.Partition{Box: attr.NewBox(2), Records: recs})
		for d := 0; d < 2; d++ {
			lo, hi := recs[0].QI[d], recs[0].QI[d]
			for _, r := range recs {
				if r.QI[d] < lo {
					lo = r.QI[d]
				}
				if r.QI[d] > hi {
					hi = r.QI[d]
				}
			}
			if c.Box[d].Lo != lo || c.Box[d].Hi != hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}
