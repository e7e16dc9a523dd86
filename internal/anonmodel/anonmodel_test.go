package anonmodel

import (
	"strings"
	"testing"

	"spatialanon/internal/attr"
)

func recsWithSensitive(vals ...string) []attr.Record {
	out := make([]attr.Record, len(vals))
	for i, v := range vals {
		out[i] = attr.Record{ID: int64(i), QI: []float64{float64(i)}, Sensitive: v}
	}
	return out
}

func TestKAnonymity(t *testing.T) {
	c := KAnonymity{K: 3}
	if c.Satisfied(recsWithSensitive("a", "b")) {
		t.Fatal("2 records satisfied 3-anonymity")
	}
	if !c.Satisfied(recsWithSensitive("a", "a", "a")) {
		t.Fatal("3 records failed 3-anonymity")
	}
	if c.MinSize() != 3 {
		t.Fatalf("MinSize = %d", c.MinSize())
	}
	if !strings.Contains(c.String(), "3-anonymity") {
		t.Fatalf("String = %q", c)
	}
}

func TestLDiversity(t *testing.T) {
	c := LDiversity{K: 2, L: 3}
	if c.Satisfied(recsWithSensitive("flu", "flu", "flu", "flu")) {
		t.Fatal("1 distinct value satisfied 3-diversity")
	}
	if !c.Satisfied(recsWithSensitive("flu", "cancer", "anemia")) {
		t.Fatal("3 distinct values failed 3-diversity")
	}
	if c.Satisfied(recsWithSensitive("flu")) {
		t.Fatal("single record satisfied k=2")
	}
	if c.MinSize() != 3 {
		t.Fatalf("MinSize = %d (max of K and L)", c.MinSize())
	}
	if (LDiversity{K: 5, L: 2}).MinSize() != 5 {
		t.Fatal("MinSize must be max(K,L)")
	}
}

func TestAlphaK(t *testing.T) {
	c := AlphaK{K: 2, Alpha: 0.5}
	if c.Satisfied(recsWithSensitive("flu", "flu", "flu", "cold")) {
		t.Fatal("75% single value satisfied alpha=0.5")
	}
	if !c.Satisfied(recsWithSensitive("flu", "flu", "cold", "cold")) {
		t.Fatal("50/50 failed alpha=0.5")
	}
	if c.Satisfied(recsWithSensitive("flu")) {
		t.Fatal("single record satisfied k=2")
	}
	if c.MinSize() != 2 {
		t.Fatalf("MinSize = %d", c.MinSize())
	}
}

func TestPartitionValidate(t *testing.T) {
	p := Partition{
		Box:     attr.Box{{Lo: 0, Hi: 10}},
		Records: []attr.Record{{ID: 1, QI: []float64{5}}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1 {
		t.Fatalf("Size = %d", p.Size())
	}
	bad := Partition{
		Box:     attr.Box{{Lo: 0, Hi: 10}},
		Records: []attr.Record{{ID: 2, QI: []float64{11}}},
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-box record accepted")
	}
}

func TestCheckAnonymity(t *testing.T) {
	good := []Partition{
		{Box: attr.Box{{Lo: 0, Hi: 10}}, Records: recsAtX(1, 2)},
		{Box: attr.Box{{Lo: 10, Hi: 20}}, Records: recsAtX(11, 12, 13)},
	}
	if err := CheckAnonymity(good, KAnonymity{K: 2}); err != nil {
		t.Fatal(err)
	}
	if err := CheckAnonymity(good, KAnonymity{K: 3}); err == nil {
		t.Fatal("undersized partition accepted")
	}
	if TotalRecords(good) != 5 {
		t.Fatalf("TotalRecords = %d", TotalRecords(good))
	}
	broken := []Partition{{Box: attr.Box{{Lo: 0, Hi: 1}}, Records: recsAtX(5, 6)}}
	if err := CheckAnonymity(broken, KAnonymity{K: 1}); err == nil {
		t.Fatal("inconsistent partition accepted")
	}
}

func TestAllConjunction(t *testing.T) {
	c := All{KAnonymity{K: 2}, LDiversity{K: 2, L: 2}, AlphaK{K: 2, Alpha: 0.9}}
	if !c.Satisfied(recsWithSensitive("flu", "cold", "flu")) {
		t.Fatal("satisfying group rejected")
	}
	// Fails l-diversity only.
	if c.Satisfied(recsWithSensitive("flu", "flu", "flu")) {
		t.Fatal("single-value group satisfied l-diversity conjunct")
	}
	// Fails size only.
	if c.Satisfied(recsWithSensitive("flu")) {
		t.Fatal("undersized group accepted")
	}
	if c.MinSize() != 2 {
		t.Fatalf("MinSize = %d", c.MinSize())
	}
	big := All{KAnonymity{K: 3}, LDiversity{K: 2, L: 7}}
	if big.MinSize() != 7 {
		t.Fatalf("MinSize = %d, want max of conjuncts", big.MinSize())
	}
	if (All{}).MinSize() != 1 {
		t.Fatalf("empty conjunction MinSize = %d", (All{}).MinSize())
	}
	if !(All{}).Satisfied(nil) {
		t.Fatal("empty conjunction must be trivially satisfied")
	}
	s := c.String()
	for _, want := range []string{"2-anonymity", "l-diversity", "(0.9,2)-anonymity", "+"} {
		if !strings.Contains(s, want) {
			t.Fatalf("All.String() = %q missing %q", s, want)
		}
	}
}

func TestConstraintStrings(t *testing.T) {
	if s := (LDiversity{K: 3, L: 2}).String(); !strings.Contains(s, "(3,2)") {
		t.Fatalf("LDiversity.String = %q", s)
	}
	if s := (AlphaK{K: 4, Alpha: 0.25}).String(); s != "(0.25,4)-anonymity" {
		t.Fatalf("AlphaK.String = %q", s)
	}
}

func recsAtX(xs ...float64) []attr.Record {
	out := make([]attr.Record, len(xs))
	for i, x := range xs {
		out[i] = attr.Record{ID: int64(i), QI: []float64{x}}
	}
	return out
}

// scanLeaves builds one leaf per entry of sensitive: leaf i holds one
// record per value, all at x = i. (This package's tests use the Records
// field itself: they test the layout.)
func scanLeaves(sensitive ...[]string) []Partition {
	base := make([]Partition, len(sensitive))
	id := int64(0)
	for i, vals := range sensitive {
		base[i].Box = attr.PointBox([]float64{float64(i)})
		for _, v := range vals {
			base[i].Records = append(base[i].Records, attr.Record{ID: id, QI: []float64{float64(i)}, Sensitive: v})
			id++
		}
	}
	return base
}

// TestLeafScan: the reference scan closes a group as soon as the
// constraint holds, publishes the union of the members' boxes, absorbs
// an unsatisfiable tail (LS4), inspects record contents when the
// constraint does, and copies rather than aliases its input.
func TestLeafScan(t *testing.T) {
	ab := []string{"a", "b", "c"}
	cases := []struct {
		name  string
		base  []Partition
		c     Constraint
		sizes []int
		boxes []attr.Interval
	}{
		{"whole leaves only", scanLeaves(ab, ab, ab, ab), KAnonymity{K: 5}, []int{6, 6}, []attr.Interval{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3}}},
		{"tail absorbed", scanLeaves(ab, ab, ab), KAnonymity{K: 5}, []int{9}, []attr.Interval{{Lo: 0, Hi: 2}}},
		{"empty leaves ride along", scanLeaves(ab, nil, ab, nil), KAnonymity{K: 3}, []int{3, 3}, []attr.Interval{{Lo: 0, Hi: 0}, {Lo: 1, Hi: 2}}},
		{"contents decide", scanLeaves([]string{"a", "a"}, []string{"a", "a"}, []string{"b", "c"}, ab), LDiversity{K: 2, L: 3}, []int{6, 3}, []attr.Interval{{Lo: 0, Hi: 2}, {Lo: 3, Hi: 3}}},
	}
	for _, tc := range cases {
		out, err := LeafScan(tc.base, tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := CheckAnonymity(out, tc.c); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(out) != len(tc.sizes) {
			t.Fatalf("%s: %d groups, want %d", tc.name, len(out), len(tc.sizes))
		}
		next := int64(0)
		for g, p := range out {
			if p.Size() != tc.sizes[g] || p.Box[0] != tc.boxes[g] {
				t.Fatalf("%s: group %d = %d records under %v, want %d under %v", tc.name, g, p.Size(), p.Box, tc.sizes[g], tc.boxes[g])
			}
			for _, r := range p.Records {
				if r.ID != next {
					t.Fatalf("%s: record %d out of scan order", tc.name, r.ID)
				}
				next++
			}
		}
		// The output owns its boxes and records.
		out[0].Box[0] = attr.Interval{Lo: -1, Hi: -1}
		out[0].Records[0].ID = -1
		if tc.base[0].Box[0].Lo == -1 || tc.base[0].Records[0].ID == -1 {
			t.Fatalf("%s: scan output aliases its input", tc.name)
		}
	}
	if out, err := LeafScan(nil, KAnonymity{K: 2}); out != nil || err != nil {
		t.Fatalf("empty base: %v %v", out, err)
	}
	if _, err := LeafScan(scanLeaves(ab), KAnonymity{K: 5}); err == nil {
		t.Fatal("a base too small for the constraint must be an error, not a release")
	}
}
