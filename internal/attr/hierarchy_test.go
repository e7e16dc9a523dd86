package attr

import (
	"strings"
	"testing"
)

// testHierarchy builds the running example: a small geography taxonomy.
//
//	World
//	├── USA
//	│   ├── WI: 53706, 53710, 53715
//	│   └── IA: 52100, 52108
//	└── CA
//	    └── ON: M5V
func testHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	root := Node("World",
		Node("USA",
			Node("WI", Leaf("53706"), Leaf("53710"), Leaf("53715")),
			Node("IA", Leaf("52100"), Leaf("52108")),
		),
		Node("CA",
			Node("ON", Leaf("M5V")),
		),
	)
	h, err := BuildHierarchy(root)
	if err != nil {
		t.Fatalf("BuildHierarchy: %v", err)
	}
	return h
}

func TestHierarchyCodes(t *testing.T) {
	h := testHierarchy(t)
	if h.LeafCount() != 6 {
		t.Fatalf("LeafCount = %d, want 6", h.LeafCount())
	}
	for i, want := range []string{"53706", "53710", "53715", "52100", "52108", "M5V"} {
		got, span, err := h.GeneralizeInterval(Interval{Lo: float64(i), Hi: float64(i)})
		if err != nil || got != want || span != 1 {
			t.Fatalf("code %d = %q/%d,%v want %q", i, got, span, err, want)
		}
	}
	if _, _, err := h.GeneralizeInterval(Interval{Lo: 6, Hi: 6}); err == nil {
		t.Fatal("a code past the last leaf should error")
	}
}

func TestHierarchyLCA(t *testing.T) {
	h := testHierarchy(t)
	cases := []struct {
		lo, hi int
		want   string
		leaves int
	}{
		{0, 0, "53706", 1},
		{0, 2, "WI", 3},
		{3, 4, "IA", 2},
		{0, 4, "USA", 5},
		{0, 5, "World", 6},
		{2, 3, "USA", 5}, // spans WI and IA -> USA
		{4, 5, "World", 6},
	}
	for _, c := range cases {
		n, err := h.LCA(c.lo, c.hi)
		if err != nil {
			t.Fatalf("LCA(%d,%d): %v", c.lo, c.hi, err)
		}
		if n.Label != c.want || n.LeafCount() != c.leaves {
			t.Fatalf("LCA(%d,%d) = %q/%d, want %q/%d", c.lo, c.hi, n.Label, n.LeafCount(), c.want, c.leaves)
		}
	}
	if _, err := h.LCA(3, 1); err == nil {
		t.Fatal("LCA with inverted range should error")
	}
	if _, err := h.LCA(-1, 2); err == nil {
		t.Fatal("LCA below range should error")
	}
	if _, err := h.LCA(0, 99); err == nil {
		t.Fatal("LCA above range should error")
	}
}

func TestGeneralizeInterval(t *testing.T) {
	h := testHierarchy(t)
	label, span, err := h.GeneralizeInterval(Interval{Lo: 0, Hi: 2})
	if err != nil || label != "WI" || span != 3 {
		t.Fatalf("GeneralizeInterval = %q/%d/%v", label, span, err)
	}
	label, span, err = h.GeneralizeInterval(Interval{Lo: 1, Hi: 1})
	if err != nil || label != "53710" || span != 1 {
		t.Fatalf("single-leaf generalize = %q/%d/%v", label, span, err)
	}
	if _, _, err := h.GeneralizeInterval(EmptyInterval()); err == nil {
		t.Fatal("generalizing empty interval should error")
	}
}

func TestHierarchyLevelsAndParents(t *testing.T) {
	h := testHierarchy(t)
	// Walk the parent chain up from the first leaf: four levels, the
	// root last and parentless.
	n, err := h.LCA(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var chain []string
	for ; n != nil; n = n.Parent() {
		chain = append(chain, n.Label)
	}
	if got := strings.Join(chain, "/"); got != "53706/WI/USA/World" {
		t.Fatalf("parent chain = %s", got)
	}
	wi, err := h.LCA(0, 2)
	if err != nil || wi.Label != "WI" || wi.IsLeaf() || wi.LeafCount() != 3 {
		t.Fatalf("WI node wrong: %+v (%v)", wi, err)
	}
}

func TestBuildHierarchyErrors(t *testing.T) {
	if _, err := BuildHierarchy(nil); err == nil {
		t.Fatal("nil root accepted")
	}
	if _, err := BuildHierarchy(Node("r", Leaf("a"), Leaf("a"))); err == nil {
		t.Fatal("duplicate leaf accepted")
	}
}

func TestFlatHierarchy(t *testing.T) {
	h := MustFlatHierarchy("sex", "M", "F")
	if h.LeafCount() != 2 {
		t.Fatalf("LeafCount = %d", h.LeafCount())
	}
	n, err := h.LCA(0, 1)
	if err != nil || n.Label != "sex" {
		t.Fatalf("LCA = %v/%v", n, err)
	}
	// Generalizing the full domain yields the root — the paper renders
	// this as "*" in Figure 1(b); callers decide the rendering.
	label, span, err := h.GeneralizeInterval(Interval{Lo: 0, Hi: 1})
	if err != nil || label != "sex" || span != 2 {
		t.Fatalf("full-domain generalize = %q/%d/%v", label, span, err)
	}
}

func TestHierarchyLeafOrderingIsDocumentOrder(t *testing.T) {
	h := testHierarchy(t)
	var labels []string
	for i := 0; i < h.LeafCount(); i++ {
		l, _, _ := h.GeneralizeInterval(Interval{Lo: float64(i), Hi: float64(i)})
		labels = append(labels, l)
	}
	got := strings.Join(labels, ",")
	want := "53706,53710,53715,52100,52108,M5V"
	if got != want {
		t.Fatalf("leaf order = %s, want %s", got, want)
	}
}

func TestFlatHierarchyDuplicateValues(t *testing.T) {
	if _, err := FlatHierarchy("sex", "M", "M"); err == nil {
		t.Fatal("duplicate values accepted")
	}
	if h := MustFlatHierarchy("sex", "M", "F"); h.LeafCount() != 2 {
		t.Fatal("MustFlatHierarchy built wrong hierarchy")
	}
}
