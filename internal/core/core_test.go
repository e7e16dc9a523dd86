package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

func TestLeafScanBasics(t *testing.T) {
	// Base partitions of sizes 3,3,3,3 at k1=5: groups of 6,6 — whole
	// bases only.
	var base []anonmodel.Partition
	for i := 0; i < 4; i++ {
		var recs []attr.Record
		for j := 0; j < 3; j++ {
			recs = append(recs, attr.Record{ID: int64(i*3 + j), QI: []float64{float64(i*10 + j)}})
		}
		base = append(base, anonmodel.Partition{
			Box:     attr.Box{{Lo: float64(i * 10), Hi: float64(i*10 + 2)}},
			Records: recs,
		})
	}
	out, err := LeafScanP(base, anonmodel.KAnonymity{K: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Size() != 6 || out[1].Size() != 6 {
		t.Fatalf("leaf scan groups: %d partitions", len(out))
	}
	// Boxes are unions of member base boxes.
	if !out[0].Box.Equal(attr.Box{{Lo: 0, Hi: 12}}) {
		t.Fatalf("group box %v", out[0].Box)
	}
}

func TestLeafScanTailAbsorption(t *testing.T) {
	// Sizes 3,3,3: k1=5 -> group {3,3}=6, tail {3} unsatisfying -> LS4
	// merges it into the last group: {6+3}=9.
	var base []anonmodel.Partition
	for i := 0; i < 3; i++ {
		var recs []attr.Record
		for j := 0; j < 3; j++ {
			recs = append(recs, attr.Record{ID: int64(i*3 + j), QI: []float64{float64(i)}})
		}
		base = append(base, anonmodel.Partition{Box: attr.PointBox([]float64{float64(i)}), Records: recs})
	}
	out, err := LeafScanP(base, anonmodel.KAnonymity{K: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Size() != 9 {
		t.Fatalf("LS4 absorption failed: %d partitions, first %d", len(out), out[0].Size())
	}
}

func TestLeafScanErrors(t *testing.T) {
	if _, err := LeafScanP(nil, nil, 1); err == nil {
		t.Fatal("nil constraint accepted")
	}
	out, err := LeafScanP(nil, anonmodel.KAnonymity{K: 2}, 1)
	if err != nil || out != nil {
		t.Fatalf("empty base: %v %v", out, err)
	}
	// A base too small for the constraint errors rather than lies.
	tiny := []anonmodel.Partition{{
		Box:     attr.PointBox([]float64{1}),
		Records: []attr.Record{{ID: 1, QI: []float64{1}}},
	}}
	if _, err := LeafScanP(tiny, anonmodel.KAnonymity{K: 5}, 1); err == nil {
		t.Fatal("infeasible base accepted")
	}
}

// TestAnonymizerInterfaces: every registry entry, plain and compacted,
// builds an Anonymizer that keeps every record, satisfies the
// constraint and reports under its own name.
func TestAnonymizerInterfaces(t *testing.T) {
	recs := dataset.GeneratePatients(400, 90)
	s := dataset.PatientsSchema()
	cons := anonmodel.KAnonymity{K: 8}

	names := map[string]bool{}
	for _, alg := range Algorithms {
		for _, doCompact := range []bool{false, true} {
			a, err := alg.New(Params{Schema: s, Constraint: cons, Compact: doCompact})
			if err != nil {
				t.Fatalf("%s: %v", alg.Name, err)
			}
			if _, isIndex := a.(*RTreeAnonymizer); isIndex != (alg.Name == RTree) {
				t.Fatalf("%s builds a %T", alg.Name, a)
			}
			cp := make([]attr.Record, len(recs))
			copy(cp, recs)
			ps, err := a.Anonymize(cp)
			if err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			if err := anonmodel.CheckAnonymity(ps, cons); err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			if anonmodel.TotalRecords(ps) != 400 {
				t.Fatalf("%s: lost records", a.Name())
			}
			if doCompact && strings.HasSuffix(a.Name(), "+compact") != alg.Compacts {
				t.Fatalf("%s: Compacts %v, yet the compacted run reports as %q", alg.Name, alg.Compacts, a.Name())
			}
			names[a.Name()] = true
		}
	}
	for _, want := range []string{
		"rtree", "mondrian", "mondrian+compact", "mondrian-relaxed", "mondrian-relaxed+compact",
		"sfc-hilbert", "sfc-z-order", "gridfile", "gridfile+compact", "quadtree", "bptree[0]",
	} {
		if !names[want] {
			t.Errorf("no anonymizer reports as %q: %v", want, names)
		}
		delete(names, want)
	}
	if len(names) != 0 {
		t.Errorf("unexpected names: %v", names)
	}
	if _, err := New("kd-tree", Params{Schema: s, Constraint: cons}); err == nil || !strings.Contains(err.Error(), strings.Join(AlgorithmNames(), ", ")) {
		t.Fatalf("unknown name: %v", err)
	}
}

func TestQuadAnonymizer(t *testing.T) {
	s := dataset.PatientsSchema()
	cons := anonmodel.LDiversity{K: 6, L: 3}
	quad := func(c anonmodel.Constraint, recs []attr.Record) ([]anonmodel.Partition, error) {
		q, err := New("quad", Params{Schema: s, Constraint: c})
		if err != nil {
			t.Fatal(err)
		}
		return q.Anonymize(recs)
	}
	recs := dataset.GeneratePatients(1200, 77)
	ps, err := quad(cons, recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(ps, cons); err != nil {
		t.Fatal(err)
	}
	if anonmodel.TotalRecords(ps) != 1200 {
		t.Fatal("lost records")
	}
	// Degenerate inputs.
	if _, err := quad(nil, recs); err == nil {
		t.Fatal("nil constraint accepted")
	}
	ps, err = quad(cons, nil)
	if err != nil || ps != nil {
		t.Fatalf("empty input: %v %v", ps, err)
	}
}

// TestBPTreeAnonymizerFigure1 replays the paper's introduction: a
// B⁺-tree on Age over the Figure 1(a) patient table yields a valid
// 2-anonymous table whose Age ranges are compact intervals.
func TestBPTreeAnonymizerFigure1(t *testing.T) {
	s := dataset.PatientsSchema()
	// Figure 1(a): R1..R6.
	recs := []attr.Record{
		{ID: 1, QI: []float64{21, 0, 53706}, Sensitive: "anemia"},
		{ID: 2, QI: []float64{26, 0, 53706}, Sensitive: "flu"},
		{ID: 3, QI: []float64{32, 1, 53710}, Sensitive: "cancer"},
		{ID: 4, QI: []float64{36, 1, 53715}, Sensitive: "torn acl"},
		{ID: 5, QI: []float64{48, 0, 52108}, Sensitive: "flu"},
		{ID: 6, QI: []float64{56, 1, 52100}, Sensitive: "whiplash"},
	}
	cons := anonmodel.KAnonymity{K: 2}
	bptree := func(c anonmodel.Constraint, key int) Anonymizer {
		bp, err := New(BPTree, Params{Schema: s, Constraint: c, Key: key})
		if err != nil {
			t.Fatal(err)
		}
		return bp
	}
	bp := bptree(cons, 0)
	ps, err := bp.Anonymize(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(ps, cons); err != nil {
		t.Fatal(err)
	}
	if anonmodel.TotalRecords(ps) != 6 {
		t.Fatal("lost records")
	}
	if bp.Name() != "bptree[0]" {
		t.Fatalf("Name = %q", bp.Name())
	}
	// Age groups must be contiguous runs of the sorted ages — the
	// defining property of the B+-tree grouping in Figure 1(c).
	for i := 1; i < len(ps); i++ {
		if ps[i].Box[0].Lo < ps[i-1].Box[0].Hi {
			t.Fatalf("age groups overlap: %v then %v", ps[i-1].Box[0], ps[i].Box[0])
		}
	}
	// R1 and R2 (ages 21, 26) must share a partition: with k=2 no valid
	// contiguous grouping separates them without isolating one.
	for _, p := range ps {
		has1, has2 := false, false
		for i := range p.Size() {
			r := p.Record(i)
			if r.ID == 1 {
				has1 = true
			}
			if r.ID == 2 {
				has2 = true
			}
		}
		if has1 != has2 {
			t.Fatal("R1 and R2 separated")
		}
	}
	// Degenerate inputs.
	if _, err := bptree(nil, 0).Anonymize(recs); err == nil {
		t.Fatal("nil constraint accepted")
	}
	out, err := bptree(cons, 0).Anonymize(nil)
	if err != nil || out != nil {
		t.Fatalf("empty input: %v %v", out, err)
	}
	if _, err := bptree(cons, 9).Anonymize(recs); err == nil {
		t.Fatal("bad key accepted")
	}
}

// Property (testing/quick): for random base partition size sequences
// and random k1, leaf scan emits groups that (a) are unions of whole
// base partitions in order, (b) all satisfy k1, and (c) preserve every
// record exactly once.
func TestQuickLeafScanProperties(t *testing.T) {
	f := func(sizes []uint8, kRaw uint8) bool {
		k1 := int(kRaw%20) + 1
		var base []anonmodel.Partition
		id := int64(0)
		total := 0
		for i, s := range sizes {
			n := int(s%7) + 1 // partitions of 1..7 records
			var recs []attr.Record
			for j := 0; j < n; j++ {
				recs = append(recs, attr.Record{ID: id, QI: []float64{float64(i), float64(j)}})
				id++
			}
			total += n
			box := attr.NewBox(2)
			for _, r := range recs {
				box.Include(r.QI)
			}
			base = append(base, anonmodel.Partition{Box: box, Records: recs})
		}
		out, err := LeafScanP(base, anonmodel.KAnonymity{K: k1}, 1)
		if total < k1 {
			// Infeasible input must error (or be empty input).
			return err != nil || (total == 0 && out == nil)
		}
		if err != nil {
			return false
		}
		// All groups satisfy k1 and records are preserved in order.
		seen := int64(0)
		for _, p := range out {
			if p.Size() < k1 {
				return false
			}
			for i := range p.Size() {
				if p.Record(i).ID != seen { // whole partitions, in order
					return false
				}
				seen++
			}
		}
		return seen == id
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(404))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSFCRaggedRecord: a record with fewer attributes than the first is
// an input error, as it is for every index-based algorithm, not an
// index-out-of-range panic.
func TestSFCRaggedRecord(t *testing.T) {
	for _, curve := range []string{"zorder", "hilbert"} {
		recs := dataset.GeneratePatients(50, 3)
		recs[7].QI = recs[7].QI[:1]
		a, err := New(curve, Params{Constraint: anonmodel.KAnonymity{K: 5}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Anonymize(recs); err == nil || !strings.Contains(err.Error(), "record 7 has 1 attributes") {
			t.Fatalf("%s: ragged record: %v", a.Name(), err)
		}
	}
}

// TestNilSchemaIsAnError: the baselines that take a schema reject a
// missing one the way the index packages do.
func TestNilSchemaIsAnError(t *testing.T) {
	cons := anonmodel.KAnonymity{K: 5}
	for _, name := range []string{"grid", Mondrian} {
		a, err := New(name, Params{Constraint: cons})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Anonymize(dataset.GeneratePatients(50, 3)); err == nil || !strings.Contains(err.Error(), "nil schema") {
			t.Fatalf("%s: nil schema: %v", a.Name(), err)
		}
	}
}
