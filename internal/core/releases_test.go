package core_test

import (
	"testing"

	"spatialanon/internal/anonmodel"
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
