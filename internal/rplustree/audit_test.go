package rplustree_test

import (
	"strings"
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

// auditTree is the break table's tree: 200 Lands End records in three
// levels, accepted by the audit.
func auditTree(t *testing.T) *rplustree.Tree {
	t.Helper()
	tr, err := rplustree.New(rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range dataset.GenerateLandsEnd(200, 11) {
		if err := tr.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d, want at least 3", tr.Height())
	}
	if err := verify.Tree(tr, verify.TreeOptions{}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestAuditRefusesEachBreak breaks one thing per row and requires the
// audit to refuse the tree, for the reason the row names.
func TestAuditRefusesEachBreak(t *testing.T) {
	for _, row := range []struct {
		name  string
		brk   func(*rplustree.Tree)
		floor bool // audit with an occupancy floor above the smallest leaf
		want  string
	}{
		{"leaf count", (*rplustree.Tree).BreakLeafCount, false, "leaf count"},
		{"leaf MBR not tight", (*rplustree.Tree).BreakLeafMBR, false, "not tight"},
		{"internal MBR not the union", (*rplustree.Tree).BreakRootMBR, false, "not union of children"},
		{"record outside its region", func(tr *rplustree.Tree) { tr.MoveBottomPlane() }, false, "escapes region"},
		{"plane outside its region", func(tr *rplustree.Tree) {
			if !tr.BreakPlane() {
				t.Fatal("no hyperplane with a bounded region")
			}
		}, false, "outside region"},
		{"trie references a child twice", (*rplustree.Tree).BreakTrieTwice, false, "twice"},
		{"wrong parent pointer", (*rplustree.Tree).BreakParent, false, "parent pointer"},
		{"unequal leaf depth", (*rplustree.Tree).BreakDepth, false, "leaf at depth"},
		{"leaf under the occupancy floor", func(*rplustree.Tree) {}, true, "occupancy floor"},
	} {
		t.Run(row.name, func(t *testing.T) {
			tr := auditTree(t)
			var opt verify.TreeOptions
			if row.floor {
				opt.MinLeafOccupancy = tr.Len()
				for _, l := range tr.Leaves() {
					opt.MinLeafOccupancy = min(opt.MinLeafOccupancy, l.Size()+1)
				}
			}
			row.brk(tr)
			err := verify.Tree(tr, opt)
			if err == nil {
				t.Fatal("verify.Tree accepts the tree")
			}
			if !strings.Contains(err.Error(), row.want) {
				t.Fatalf("refused for another reason than %q: %v", row.want, err)
			}
			t.Log(err)
		})
	}
}

// TestAuditAllocations pins what an audit allocates: scratch per tree
// level, not per node, so one bound holds at 20 000 and 100 000 records
// (5 and 6 levels). It was 5 406 and 27 384 objects when verify.Tree
// walked a copy of the tree, 1 706 and 8 628 for CheckInvariants alone.
func TestAuditAllocations(t *testing.T) {
	const bound = 24 // four objects per level of the larger tree
	for _, n := range []int{20000, 100000} {
		tr, err := rplustree.New(rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range dataset.GenerateLandsEnd(n, 1) {
			if err := tr.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := verify.Tree(tr, verify.TreeOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d records, height %d: %v objects per audit", n, tr.Height(), allocs)
		if allocs > bound {
			t.Errorf("%d records: an audit allocates %v objects, want <= %v", n, allocs, bound)
		}
	}
}
