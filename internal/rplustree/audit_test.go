package rplustree_test

import (
	"testing"

	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

// TestAuditsSeeTheTrie moves one hyperplane so that it misroutes most of
// a leaf's records, and requires both audits — the tree's own and the
// independent one — to refuse the tree: both must check the regions that
// routing derives from the tries.
func TestAuditsSeeTheTrie(t *testing.T) {
	tr, err := rplustree.New(rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range dataset.GenerateLandsEnd(200, 11) {
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := verify.Tree(tr, verify.TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	misrouted, of := tr.MoveBottomPlane()
	if 2*misrouted <= of {
		t.Fatalf("the moved plane misroutes %d of %d records; want most", misrouted, of)
	}
	t.Logf("the moved plane misroutes %d of %d records", misrouted, of)
	if err := tr.CheckInvariants(); err == nil {
		t.Errorf("CheckInvariants accepts a plane that misroutes %d of %d records", misrouted, of)
	} else {
		t.Log(err)
	}
	if err := verify.Tree(tr, verify.TreeOptions{}); err == nil {
		t.Errorf("verify.Tree accepts a plane that misroutes %d of %d records", misrouted, of)
	} else {
		t.Log(err)
	}
}
