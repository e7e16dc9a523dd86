package spatialanon

import (
	"bytes"
	"strings"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/compact"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/quality"
	"spatialanon/internal/query"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

// TestEndToEndLifecycle drives the full system the way a data owner
// would: bulk load, incremental batches, corrections, multi-granular
// release, adversarial collusion check, query accuracy, and CSV
// publication.
func TestEndToEndLifecycle(t *testing.T) {
	schema := dataset.LandsEndSchema()
	const k = 10
	rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema:   schema,
		BaseK:    k,
		BulkLoad: &rplustree.BulkLoadConfig{RecordBytes: 32},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: bulk anonymize the backlog.
	backlog := dataset.GenerateLandsEnd(6000, 301)
	if err := rt.Load(backlog); err != nil {
		t.Fatal(err)
	}

	// Phase 2: three incremental batches arrive.
	stream := dataset.LandsEndStream(3000, 302)
	var arrived []attr.Record
	for b := 0; b < 3; b++ {
		batch := stream.NextBatch(1000)
		for i := range batch {
			batch[i].ID += 1_000_000 // distinct from the backlog
		}
		arrived = append(arrived, batch...)
		if err := rt.Load(batch); err != nil {
			t.Fatal(err)
		}
		view, err := rt.Partitions(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := anonmodel.CheckAnonymity(view, anonmodel.KAnonymity{K: k}); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if anonmodel.TotalRecords(view) != 6000+(b+1)*1000 {
			t.Fatalf("batch %d: view holds %d records", b, anonmodel.TotalRecords(view))
		}
	}

	// Phase 3: 250 cancellations.
	for i := 0; i < 250; i++ {
		if found, err := rt.Delete(arrived[i].ID, arrived[i].QI); err != nil || !found {
			t.Fatalf("delete %d failed", arrived[i].ID)
		}
	}
	if err := rt.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := verify.Tree(rt.Tree(), verify.TreeOptions{}); err != nil {
		t.Fatal(err)
	}

	// Phase 4: multi-granular release to three trust tiers, then play
	// the colluding adversary.
	releases, err := rt.MultiGranular([]int{k, 3 * k, 10 * k})
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]anonmodel.Partition, len(releases))
	for i, rel := range releases {
		sets[i] = rel.Partitions
		if err := anonmodel.CheckAnonymity(rel.Partitions, anonmodel.KAnonymity{K: rel.Granularity}); err != nil {
			t.Fatalf("granularity %d: %v", rel.Granularity, err)
		}
		if err := verify.Release(rel.Partitions, anonmodel.KAnonymity{K: rel.Granularity}); err != nil {
			t.Fatalf("granularity %d: %v", rel.Granularity, err)
		}
	}
	if err := verify.Releases(sets, k); err != nil {
		t.Fatal(err)
	}
	if err := verify.Releases(sets, k); err != nil {
		t.Fatal(err)
	}

	// Phase 5: query accuracy on the finest release obeys the paper's
	// ordering vs uncompacted Mondrian.
	live := make([]attr.Record, 0, rt.Len())
	for _, p := range sets[0] {
		for i := range p.Size() {
			live = append(live, p.Record(i))
		}
	}
	queries := query.FullRangeWorkload(live, 150, 303)
	rtRes, err := query.Evaluate(sets[0], live, queries)
	if err != nil {
		t.Fatal(err)
	}
	md, err := core.New(core.Mondrian, core.Params{Schema: schema, Constraint: anonmodel.KAnonymity{K: k}})
	if err != nil {
		t.Fatal(err)
	}
	cp := make([]attr.Record, len(live))
	copy(cp, live)
	mdPs, err := md.Anonymize(cp)
	if err != nil {
		t.Fatal(err)
	}
	mdRes, err := query.Evaluate(mdPs, live, queries)
	if err != nil {
		t.Fatal(err)
	}
	if query.MeanError(rtRes) > query.MeanError(mdRes)*1.3 {
		t.Fatalf("rtree error %v far above mondrian %v", query.MeanError(rtRes), query.MeanError(mdRes))
	}

	// Phase 6: publish as CSV; every record appears exactly once.
	var buf bytes.Buffer
	if err := core.WriteCSV(&buf, schema, sets[0]); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+rt.Len() {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+rt.Len())
	}
}

// TestAlgorithmsAgreeOnFundamentals runs every anonymizer on identical
// input and checks the cross-cutting contract: the record multiset is
// preserved, the constraint holds, records sit inside their boxes, and
// compaction never hurts certainty.
func TestAlgorithmsAgreeOnFundamentals(t *testing.T) {
	schema := dataset.LandsEndSchema()
	recs := dataset.GenerateLandsEnd(2500, 310)
	domain := attr.DomainOf(schema.Dims(), recs)
	cons := anonmodel.KAnonymity{K: 12}

	algos := everyAlgorithm(t, schema, cons)
	wantIDs := map[int64]bool{}
	for _, r := range recs {
		wantIDs[r.ID] = true
	}
	for _, a := range algos {
		cp := make([]attr.Record, len(recs))
		copy(cp, recs)
		ps, err := a.Anonymize(cp)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := anonmodel.CheckAnonymity(ps, cons); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := verify.Release(ps, cons); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		got := map[int64]bool{}
		for _, p := range ps {
			for i := range p.Size() {
				r := p.Record(i)
				if got[r.ID] {
					t.Fatalf("%s: record %d duplicated", a.Name(), r.ID)
				}
				got[r.ID] = true
			}
		}
		if len(got) != len(wantIDs) {
			t.Fatalf("%s: %d of %d records survive", a.Name(), len(got), len(wantIDs))
		}
		// Compaction is monotone for every algorithm's output.
		cm := quality.Certainty(schema, ps, domain)
		cmC := quality.Certainty(schema, compact.Partitions(ps), domain)
		if cmC > cm+1e-9 {
			t.Fatalf("%s: compaction worsened CM %v -> %v", a.Name(), cm, cmC)
		}
	}
}

// TestDeterministicRebuild: the same records in the same order produce
// the identical anonymization (partition boxes and membership), which
// the experiment harness and any audit trail rely on.
func TestDeterministicRebuild(t *testing.T) {
	recs := dataset.GeneratePatients(1000, 320)
	build := func() []anonmodel.Partition {
		rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
			Schema: dataset.PatientsSchema(),
			BaseK:  5,
			BulkLoad: &rplustree.BulkLoadConfig{
				PageSize: 512, MemoryBytes: 512 * 64, RecordBytes: 12,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cp := make([]attr.Record, len(recs))
		copy(cp, recs)
		if err := rt.Load(cp); err != nil {
			t.Fatal(err)
		}
		ps, err := rt.Partitions(10)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Tree(rt.Tree(), verify.TreeOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := verify.Release(ps, anonmodel.KAnonymity{K: 10}); err != nil {
			t.Fatal(err)
		}
		return ps
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("partition counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Box.Equal(b[i].Box) || a[i].Size() != b[i].Size() {
			t.Fatalf("partition %d differs between rebuilds", i)
		}
		for j := range a[i].Size() {
			if a[i].Record(j).ID != b[i].Record(j).ID {
				t.Fatalf("partition %d membership differs", i)
			}
		}
	}
}

// TestInfeasibleConstraintSurfacesEverywhere: every algorithm reports
// an error (rather than emitting a violating table) when the input
// cannot satisfy the constraint.
func TestInfeasibleConstraintSurfacesEverywhere(t *testing.T) {
	schema := dataset.PatientsSchema()
	// Three records, all with the same sensitive value: (k=2, l=2) is
	// unsatisfiable no matter the partitioning.
	recs := []attr.Record{
		{ID: 1, QI: []float64{30, 0, 53706}, Sensitive: "flu"},
		{ID: 2, QI: []float64{40, 1, 53710}, Sensitive: "flu"},
		{ID: 3, QI: []float64{50, 0, 53715}, Sensitive: "flu"},
	}
	cons := anonmodel.LDiversity{K: 2, L: 2}
	algos := everyAlgorithm(t, schema, cons)
	for _, a := range algos {
		cp := make([]attr.Record, len(recs))
		copy(cp, recs)
		if ps, err := a.Anonymize(cp); err == nil {
			if cerr := anonmodel.CheckAnonymity(ps, cons); cerr == nil {
				t.Fatalf("%s: emitted a 'valid' table for an unsatisfiable constraint", a.Name())
			} else {
				t.Fatalf("%s: emitted a violating table without error: %v", a.Name(), cerr)
			}
		}
	}
	// A refused publication must not leave the index corrupt: the tree
	// keeps serving (and future feasible releases keep working) after
	// the error.
	if err := verify.Tree(algos[0].(*core.RTreeAnonymizer).Tree(), verify.TreeOptions{}); err != nil {
		t.Fatal(err)
	}
}

// everyAlgorithm builds each registry entry — the R⁺-tree's first —
// under cons.
func everyAlgorithm(t *testing.T, schema *attr.Schema, cons anonmodel.Constraint) []core.Anonymizer {
	t.Helper()
	var algos []core.Anonymizer
	for _, alg := range core.Algorithms {
		a, err := alg.New(core.Params{Schema: schema, Constraint: cons})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		algos = append(algos, a)
	}
	return algos
}
