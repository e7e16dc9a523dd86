package gridfile

import (
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/compact"
	"spatialanon/internal/dataset"
	"spatialanon/internal/quality"
)

func TestAnonymizeBasics(t *testing.T) {
	recs := dataset.GeneratePatients(1000, 70)
	cons := anonmodel.KAnonymity{K: 10}
	ps, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: cons})
	if err != nil {
		t.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(ps, cons); err != nil {
		t.Fatal(err)
	}
	if anonmodel.TotalRecords(ps) != 1000 {
		t.Fatalf("lost records: %d", anonmodel.TotalRecords(ps))
	}
	seen := map[int64]bool{}
	for _, p := range ps {
		for i := range p.Size() {
			r := p.Record(i)
			if seen[r.ID] {
				t.Fatalf("record %d duplicated", r.ID)
			}
			seen[r.ID] = true
		}
	}
	if len(ps) < 10 {
		t.Fatalf("suspiciously few partitions: %d", len(ps))
	}
}

func TestCompactionHelpsGridFile(t *testing.T) {
	// The whole point of the grid file baseline: cell-union boxes cover
	// empty space, so compaction must cut the certainty penalty.
	recs := dataset.GeneratePatients(2000, 71)
	s := dataset.PatientsSchema()
	ps, err := Anonymize(s, recs, Options{Constraint: anonmodel.KAnonymity{K: 10}})
	if err != nil {
		t.Fatal(err)
	}
	domain := attr.DomainOf(s.Dims(), recs)
	raw := quality.Certainty(s, ps, domain)
	cmp := quality.Certainty(s, compact.Partitions(ps), domain)
	if cmp >= raw {
		t.Fatalf("compaction did not improve grid certainty: %v -> %v", raw, cmp)
	}
	if quality.Discernibility(ps) != quality.Discernibility(compact.Partitions(ps)) {
		t.Fatal("compaction changed DM")
	}
}

func TestExplicitResolution(t *testing.T) {
	recs := dataset.GeneratePatients(500, 72)
	ps, err := Anonymize(dataset.PatientsSchema(), recs, Options{
		Constraint:  anonmodel.KAnonymity{K: 5},
		CellsPerDim: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(ps, anonmodel.KAnonymity{K: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	recs := dataset.GeneratePatients(10, 73)
	if _, err := Anonymize(dataset.PatientsSchema(), recs, Options{}); err == nil {
		t.Fatal("nil constraint accepted")
	}
	if _, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: anonmodel.KAnonymity{K: 50}}); err == nil {
		t.Fatal("infeasible input accepted")
	}
	if _, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: anonmodel.KAnonymity{K: 1}}); err == nil {
		t.Fatal("k=1 accepted")
	}
	bad := []attr.Record{{QI: []float64{1}}, {QI: []float64{2}}}
	if _, err := Anonymize(dataset.PatientsSchema(), bad, Options{Constraint: anonmodel.KAnonymity{K: 2}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	ps, err := Anonymize(dataset.PatientsSchema(), nil, Options{Constraint: anonmodel.KAnonymity{K: 2}})
	if err != nil || ps != nil {
		t.Fatalf("empty input: %v %v", ps, err)
	}
}

func TestSmallInputSinglePartition(t *testing.T) {
	recs := dataset.GeneratePatients(7, 74)
	ps, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: anonmodel.KAnonymity{K: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0].Size() != 7 {
		t.Fatalf("got %d partitions", len(ps))
	}
}

func TestLDiversityConstraint(t *testing.T) {
	recs := dataset.GeneratePatients(800, 75)
	cons := anonmodel.LDiversity{K: 8, L: 3}
	ps, err := Anonymize(dataset.PatientsSchema(), recs, Options{Constraint: cons})
	if err != nil {
		t.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(ps, cons); err != nil {
		t.Fatal(err)
	}
}
