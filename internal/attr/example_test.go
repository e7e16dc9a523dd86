package attr_test

import (
	"fmt"

	"spatialanon/internal/attr"
)

// Generalization hierarchies turn coded categorical ranges into the
// lowest common ancestor label, as the compaction procedure requires.
func ExampleHierarchy_GeneralizeInterval() {
	h, err := attr.BuildHierarchy(attr.Node("USA",
		attr.Node("WI", attr.Leaf("53706"), attr.Leaf("53710"), attr.Leaf("53715")),
		attr.Node("IA", attr.Leaf("52100"), attr.Leaf("52108")),
	))
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, iv := range []attr.Interval{
		{Lo: 0, Hi: 0}, // one leaf
		{Lo: 0, Hi: 2}, // all of WI
		{Lo: 1, Hi: 4}, // spans WI and IA
	} {
		label, span, _ := h.GeneralizeInterval(iv)
		fmt.Printf("%s covers %d base values\n", label, span)
	}
	// Output:
	// 53706 covers 1 base values
	// WI covers 3 base values
	// USA covers 5 base values
}

// Boxes render as the paper prints generalized records.
func ExampleBox_String() {
	b := attr.Box{{Lo: 20, Hi: 30}, {Lo: 53706, Hi: 53706}}
	fmt.Println(b)
	// Output:
	// ([20 - 30], 53706)
}
