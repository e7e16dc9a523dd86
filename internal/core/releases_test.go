package core_test

import (
	"strings"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/verify"
)

// These tests live outside package core because they hand the release
// sets to the independent auditor, and verify imports core.

func newPatientRT(t *testing.T, k int) *core.RTreeAnonymizer {
	t.Helper()
	a, err := core.NewRTreeAnonymizer(core.RTreeConfig{Schema: dataset.PatientsSchema(), BaseK: k})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRTreeMultiGranularCollusionSafe(t *testing.T) {
	a := newPatientRT(t, 5)
	if err := a.Load(dataset.GeneratePatients(1500, 92)); err != nil {
		t.Fatal(err)
	}
	// The hospital scenario of Section 3: granularity 5 to local
	// researchers, 10 to outside researchers, 25 to the Internet.
	rels, err := a.MultiGranular([]int{5, 10, 25})
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]anonmodel.Partition, len(rels))
	for i, r := range rels {
		sets[i] = r.Partitions
		if err := anonmodel.CheckAnonymity(r.Partitions, anonmodel.KAnonymity{K: r.Granularity}); err != nil {
			t.Fatalf("granularity %d: %v", r.Granularity, err)
		}
	}
	if err := verify.Releases(sets, 5); err != nil {
		t.Fatalf("multi-granular releases not collusion-safe: %v", err)
	}
}

func TestRTreeHierarchicalReleases(t *testing.T) {
	a := newPatientRT(t, 4)
	if err := a.Load(dataset.GeneratePatients(1000, 93)); err != nil {
		t.Fatal(err)
	}
	rels, err := a.HierarchicalReleases()
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != a.Tree().Height() {
		t.Fatalf("releases %d, height %d", len(rels), a.Tree().Height())
	}
	sets := make([][]anonmodel.Partition, 0, len(rels))
	for lvl, r := range rels {
		if anonmodel.TotalRecords(r.Partitions) != 1000 {
			t.Fatalf("level %d lost records", lvl)
		}
		sets = append(sets, r.Partitions)
	}
	// The root release is one all-records partition.
	top := rels[len(rels)-1]
	if len(top.Partitions) != 1 || top.Partitions[0].Size() != 1000 {
		t.Fatalf("root release: %d partitions", len(top.Partitions))
	}
	// Releases across levels must be jointly safe at the base k... the
	// guarantee only extends to records in leaves holding >= k records,
	// which median splits deliver; verify at k=4.
	if err := verify.Releases(sets, 4); err != nil {
		t.Fatalf("hierarchical releases not collusion-safe: %v", err)
	}
	if _, err := a.HierarchicalRelease(99); err == nil {
		t.Fatal("bad level accepted")
	}
}

// TestHierarchicalReleaseWithholdsUnderfullLevels: ten copies of one
// point and one neighbour leave a split no balanced candidate, so the
// leaf level holds the neighbour alone. The leaf scan merges it
// (Partitions(0) is one partition of 11); the hierarchical release must
// withhold that level instead of publishing record 99 by itself.
func TestHierarchicalReleaseWithholdsUnderfullLevels(t *testing.T) {
	a, err := core.NewRTreeAnonymizer(core.RTreeConfig{Schema: dataset.LandsEndSchema(), BaseK: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := dataset.GenerateLandsEnd(1, 3)[0]
	recs := make([]attr.Record, 0, 11)
	for id := int64(0); id < 10; id++ {
		recs = append(recs, attr.Record{ID: id, QI: base.QI})
	}
	odd := append([]float64(nil), base.QI...)
	odd[0]++
	recs = append(recs, attr.Record{ID: 99, QI: odd})
	if err := a.Load(recs); err != nil {
		t.Fatal(err)
	}
	if ps, err := a.Partitions(0); err != nil || len(ps) != 1 || ps[0].Size() != 11 {
		t.Fatalf("leaf scan: %v partitions, err %v; want one of 11", len(ps), err)
	}
	leaves, err := a.Tree().Level(0)
	if err != nil || len(leaves) != 2 {
		t.Fatalf("want the leaf level split in two, got %d partitions (%v)", len(leaves), err)
	}
	ps, err := a.HierarchicalRelease(0)
	if err == nil || !strings.Contains(err.Error(), "level 0") || !strings.Contains(err.Error(), "smallest partition 1 records") {
		t.Fatalf("level 0 released as %d partitions, err %v; want it withheld naming its partition of 1", len(ps), err)
	}
	if rels, err := a.HierarchicalReleases(); err == nil {
		t.Fatalf("HierarchicalReleases published %d levels with an underfull one", len(rels))
	}
	if ps, err := a.HierarchicalRelease(1); err != nil || len(ps) != 1 || ps[0].Size() != 11 {
		t.Fatalf("level 1: %d partitions, err %v; want one of 11", len(ps), err)
	}
}
