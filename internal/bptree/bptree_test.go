package bptree

import (
	"math/rand"
	"sort"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

func newAgeTree(t *testing.T, k int) *Tree {
	t.Helper()
	tr, err := New(Config{Schema: dataset.PatientsSchema(), Key: 0, BaseK: k})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	s := dataset.PatientsSchema()
	cases := []Config{
		{},
		{Schema: s, Key: -1, BaseK: 2},
		{Schema: s, Key: 3, BaseK: 2},
		{Schema: s, BaseK: 0},
		{Schema: s, BaseK: 2, LeafFactor: 1},
		{Schema: s, BaseK: 2, Fanout: 2},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	tr := newAgeTree(t, 2)
	if tr.Key() != 0 || tr.Len() != 0 {
		t.Fatal("fresh tree wrong")
	}
}

func TestInsertOrderAndInvariants(t *testing.T) {
	tr := newAgeTree(t, 3)
	recs := dataset.GeneratePatients(1000, 30)
	for i, r := range recs {
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(attr.Record{QI: []float64{1}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}

	// Leaves cover all records in key order with bounded occupancy.
	leaves := tr.Leaves()
	total := 0
	prev := -1.0
	for _, p := range leaves {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if p.Size() > tr.leafCap() {
			// Only legal for a run of identical keys, which no B+-tree
			// can separate.
			for i := range p.Size() {
				if p.Record(i).QI[0] != p.Record(0).QI[0] {
					t.Fatalf("splittable leaf of %d records, cap %d", p.Size(), tr.leafCap())
				}
			}
		}
		for i := range p.Size() {
			r := p.Record(i)
			if r.QI[0] < prev {
				t.Fatal("leaves out of key order")
			}
			prev = r.QI[0]
			total++
		}
	}
	if total != 1000 {
		t.Fatalf("leaves hold %d records", total)
	}
	// Figure 1(c)'s property: most leaves hold >= k records, so leaf
	// groups are (nearly) a k-anonymization of the key column already.
	under := 0
	for _, leaf := range leaves {
		if leaf.Size() < 3 {
			under++
		}
	}
	if under > len(leaves)/10 {
		t.Fatalf("%d of %d leaves underfull", under, len(leaves))
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	tr := newAgeTree(t, 4)
	recs := dataset.GeneratePatients(600, 31)
	for _, r := range recs {
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(32))
	for q := 0; q < 60; q++ {
		lo := float64(18 + rng.Intn(70))
		hi := lo + float64(rng.Intn(20))
		got := tr.Range(lo, hi)
		var want []int64
		for _, r := range recs {
			if r.QI[0] >= lo && r.QI[0] <= hi {
				want = append(want, r.ID)
			}
		}
		gotIDs := make([]int64, len(got))
		for i, r := range got {
			gotIDs[i] = r.ID
		}
		sort.Slice(gotIDs, func(a, b int) bool { return gotIDs[a] < gotIDs[b] })
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if len(gotIDs) != len(want) {
			t.Fatalf("[%v,%v]: got %d want %d", lo, hi, len(gotIDs), len(want))
		}
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Fatalf("[%v,%v]: mismatch", lo, hi)
			}
		}
	}
}

func TestDuplicateKeysGrowLeaf(t *testing.T) {
	tr := newAgeTree(t, 2)
	for i := 0; i < 40; i++ {
		if err := tr.Insert(attr.Record{ID: int64(i), QI: []float64{30, 0, 53706}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves := tr.Leaves()
	if len(leaves) != 1 || leaves[0].Size() != 40 {
		t.Fatalf("duplicate keys should stay in one oversized leaf, got %d leaves", len(leaves))
	}
	// Diversity resumes splitting.
	for i := 40; i < 100; i++ {
		if err := tr.Insert(attr.Record{ID: int64(i), QI: []float64{float64(18 + i%70), 0, 53000}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves()) < 2 {
		t.Fatal("tree failed to split after diversity returned")
	}
}

func TestSortedAndReverseInsertion(t *testing.T) {
	for name, step := range map[string]int{"ascending": 1, "descending": -1} {
		tr := newAgeTree(t, 3)
		for i := 0; i < 500; i++ {
			v := i
			if step < 0 {
				v = 500 - i
			}
			if err := tr.Insert(attr.Record{ID: int64(i), QI: []float64{float64(v), 0, 53000}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Len() != 500 {
			t.Fatalf("%s: Len = %d", name, tr.Len())
		}
	}
}
