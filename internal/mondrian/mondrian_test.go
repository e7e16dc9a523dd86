package mondrian

import (
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

func anonymizePatients(t *testing.T, n, k int, relaxed bool) []anonmodel.Partition {
	t.Helper()
	recs := dataset.GeneratePatients(n, 31)
	ps, err := Anonymize(dataset.PatientsSchema(), recs, Options{
		Constraint: anonmodel.KAnonymity{K: k},
		Relaxed:    relaxed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestAnonymizeBasics(t *testing.T) {
	for _, relaxed := range []bool{false, true} {
		ps := anonymizePatients(t, 500, 5, relaxed)
		if err := anonmodel.CheckAnonymity(ps, anonmodel.KAnonymity{K: 5}); err != nil {
			t.Fatalf("relaxed=%v: %v", relaxed, err)
		}
		if anonmodel.TotalRecords(ps) != 500 {
			t.Fatalf("relaxed=%v: lost records: %d", relaxed, anonmodel.TotalRecords(ps))
		}
		if len(ps) < 500/(5*4) {
			t.Fatalf("relaxed=%v: suspiciously few partitions: %d", relaxed, len(ps))
		}
		// No record appears twice.
		seen := map[int64]bool{}
		for _, p := range ps {
			for i := range p.Size() {
				r := p.Record(i)
				if seen[r.ID] {
					t.Fatalf("record %d in two partitions", r.ID)
				}
				seen[r.ID] = true
			}
		}
	}
}

func TestRelaxedPartitionsAreSmaller(t *testing.T) {
	// Relaxed Mondrian can always cut a partition of >= 2k records (ties
	// never block it), so every relaxed partition lands in [k, 2k+1);
	// strict can be forced to keep larger groups. Partition counts land
	// close to each other, but axis-order interactions mean neither
	// strictly dominates, so only approximate parity is asserted.
	strict := anonymizePatients(t, 1000, 10, false)
	relaxed := anonymizePatients(t, 1000, 10, true)
	if len(relaxed) < len(strict)*8/10 {
		t.Fatalf("relaxed made %d partitions, strict %d", len(relaxed), len(strict))
	}
	// Relaxed with k=10: every partition in [10, 2*10+1).
	for _, p := range relaxed {
		if p.Size() < 10 || p.Size() > 21 {
			t.Fatalf("relaxed partition of size %d", p.Size())
		}
	}
}

func TestUncuttableInput(t *testing.T) {
	// Fewer than 2k records: single partition covering everything.
	recs := dataset.GeneratePatients(7, 32)
	ps, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: anonmodel.KAnonymity{K: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Size() != 7 {
		t.Fatalf("got %d partitions", len(ps))
	}
}

func TestInfeasibleInput(t *testing.T) {
	recs := dataset.GeneratePatients(3, 33)
	if _, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: anonmodel.KAnonymity{K: 5}}); err == nil {
		t.Fatal("3 records satisfied k=5")
	}
}

func TestValidation(t *testing.T) {
	recs := dataset.GeneratePatients(10, 34)
	if _, err := Anonymize(dataset.PatientsSchema(), recs, Options{}); err == nil {
		t.Fatal("nil constraint accepted")
	}
	if _, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: anonmodel.KAnonymity{K: 1}}); err == nil {
		t.Fatal("k=1 accepted")
	}
	bad := []attr.Record{{QI: []float64{1}}}
	if _, err := Anonymize(dataset.PatientsSchema(), bad, Options{Constraint: anonmodel.KAnonymity{K: 2}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	ps, err := Anonymize(dataset.PatientsSchema(), nil, Options{Constraint: anonmodel.KAnonymity{K: 2}})
	if err != nil || ps != nil {
		t.Fatalf("empty input: %v %v", ps, err)
	}
}

func TestDuplicateHeavyData(t *testing.T) {
	// All records identical: no axis can be cut, strict or relaxed; a
	// single partition results.
	recs := make([]attr.Record, 20)
	for i := range recs {
		recs[i] = attr.Record{ID: int64(i), QI: []float64{30, 1, 53706}}
	}
	for _, relaxed := range []bool{false, true} {
		ps, err := Anonymize(dataset.PatientsSchema(), recs, Options{
			Constraint: anonmodel.KAnonymity{K: 5}, Relaxed: relaxed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != 1 || ps[0].Size() != 20 {
			t.Fatalf("relaxed=%v: got %d partitions", relaxed, len(ps))
		}
	}
}

func TestStrictKeepsValueClassesTogether(t *testing.T) {
	// 10 records with age 30 and 10 with age 40, identical otherwise:
	// strict Mondrian must cut between the classes, never inside one.
	var recs []attr.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, attr.Record{ID: int64(i), QI: []float64{30, 0, 53706}})
	}
	for i := 10; i < 20; i++ {
		recs = append(recs, attr.Record{ID: int64(i), QI: []float64{40, 0, 53706}})
	}
	ps, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: anonmodel.KAnonymity{K: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("got %d partitions, want 2", len(ps))
	}
	for _, p := range ps {
		first := p.Record(0).QI[0]
		for i := range p.Size() {
			r := p.Record(i)
			if r.QI[0] != first {
				t.Fatal("strict cut divided a value class")
			}
		}
	}
}

func TestPartitionRegionsTileDomain(t *testing.T) {
	recs := dataset.GeneratePatients(400, 35)
	ps, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: anonmodel.KAnonymity{K: 8}})
	if err != nil {
		t.Fatal(err)
	}
	domain := attr.DomainOf(3, recs)
	for _, p := range ps {
		if !domain.Union(p.Box).Equal(domain) {
			t.Fatalf("partition region %v escapes domain %v", p.Box, domain)
		}
	}
	// Every original point lies in exactly one partition's record set
	// (region boxes share boundaries, so box containment may be
	// ambiguous, but record assignment must not be).
	counts := map[int64]int{}
	for _, p := range ps {
		for i := range p.Size() {
			r := p.Record(i)
			counts[r.ID]++
		}
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("record %d assigned %d times", id, c)
		}
	}
	if len(counts) != 400 {
		t.Fatalf("assigned %d of 400 records", len(counts))
	}
}

func TestWithLDiversity(t *testing.T) {
	recs := dataset.GeneratePatients(600, 36)
	cons := anonmodel.LDiversity{K: 5, L: 3}
	ps, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: cons})
	if err != nil {
		t.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(ps, cons); err != nil {
		t.Fatal(err)
	}
}

func TestMedianWalkBack(t *testing.T) {
	// Values: 1,2,2,2,2,9 — median index 3 holds 2; strict must walk
	// back to cut at value 2 (lhs={1}) rather than divide the 2s.
	recs := []attr.Record{
		{ID: 0, QI: []float64{1, 0, 0}},
		{ID: 1, QI: []float64{2, 0, 0}},
		{ID: 2, QI: []float64{2, 0, 0}},
		{ID: 3, QI: []float64{2, 0, 0}},
		{ID: 4, QI: []float64{2, 0, 0}},
		{ID: 5, QI: []float64{9, 0, 0}},
	}
	m := &state{schema: dataset.PatientsSchema(), domain: attr.DomainOf(3, recs)}
	lhs, rhs, cut, ok := m.cut(recs, 0)
	if !ok {
		t.Fatal("cut failed")
	}
	if cut != 2 || len(lhs) != 1 || len(rhs) != 5 {
		t.Fatalf("cut=%v lhs=%d rhs=%d", cut, len(lhs), len(rhs))
	}
	for _, r := range rhs {
		if r.QI[0] < 2 {
			t.Fatal("rhs holds sub-median value")
		}
	}
}
