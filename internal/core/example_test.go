package core_test

import (
	"fmt"
	"os"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/verify"
)

// The paper's Figure 1(a) patient table.
func figure1Records() []attr.Record {
	return []attr.Record{
		{ID: 1, QI: []float64{21, 0, 53706}, Sensitive: "anemia"},
		{ID: 2, QI: []float64{26, 0, 53706}, Sensitive: "flu"},
		{ID: 3, QI: []float64{32, 1, 53710}, Sensitive: "cancer"},
		{ID: 4, QI: []float64{36, 1, 53715}, Sensitive: "torn acl"},
		{ID: 5, QI: []float64{48, 0, 52108}, Sensitive: "flu"},
		{ID: 6, QI: []float64{56, 1, 52100}, Sensitive: "whiplash"},
	}
}

// Anonymizing is building an index: load records, then materialize a
// k-anonymous view at any granularity with one leaf scan.
func ExampleRTreeAnonymizer() {
	rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema: dataset.PatientsSchema(),
		BaseK:  2,
	})
	if err != nil {
		panic(err)
	}
	if err := rt.Load(figure1Records()); err != nil {
		panic(err)
	}
	view, err := rt.Partitions(2)
	if err != nil {
		panic(err)
	}
	fmt.Println("records:", rt.Len())
	fmt.Println("2-anonymous:", anonmodel.CheckAnonymity(view, anonmodel.KAnonymity{K: 2}) == nil)
	// Output:
	// records: 6
	// 2-anonymous: true
}

// The leaf-scan algorithm (Figure 5) groups whole base partitions until
// each group satisfies the requested granularity.
func ExampleLeafScanP() {
	base := []anonmodel.Partition{
		{Box: attr.Box{{Lo: 20, Hi: 26}}, Records: make([]attr.Record, 2)},
		{Box: attr.Box{{Lo: 32, Hi: 36}}, Records: make([]attr.Record, 2)},
		{Box: attr.Box{{Lo: 48, Hi: 56}}, Records: make([]attr.Record, 2)},
	}
	groups, err := core.LeafScanP(base, anonmodel.KAnonymity{K: 4}, 1)
	if err != nil {
		panic(err)
	}
	for _, g := range groups {
		fmt.Printf("%d records in %v\n", g.Size(), g.Box)
	}
	// Output:
	// 6 records in ([20 - 56])
}

// Releases derived from one index are jointly collusion-safe: the
// auditor checks that correlating them never isolates fewer than k
// records.
func ExampleRTreeAnonymizer_MultiGranular() {
	rt, _ := core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema: dataset.PatientsSchema(),
		BaseK:  5,
	})
	if err := rt.Load(dataset.GeneratePatients(500, 1)); err != nil {
		panic(err)
	}
	releases, err := rt.MultiGranular([]int{5, 25})
	if err != nil {
		panic(err)
	}
	err = verify.Releases(
		[][]anonmodel.Partition{releases[0].Partitions, releases[1].Partitions}, 5)
	fmt.Println("safe:", err == nil)
	// Output:
	// safe: true
}

// WriteCSV renders generalized values the way the paper's Figure 1(b)
// prints them: ranges for numeric attributes, hierarchy labels (with
// "*" at the root) for categorical ones.
func ExampleWriteCSV() {
	ps := []anonmodel.Partition{{
		Box: attr.Box{{Lo: 20, Hi: 30}, {Lo: 0, Hi: 0}, {Lo: 53706, Hi: 53706}},
		Records: []attr.Record{
			{ID: 1, QI: []float64{21, 0, 53706}, Sensitive: "anemia"},
			{ID: 2, QI: []float64{26, 0, 53706}, Sensitive: "flu"},
		},
	}}
	if err := core.WriteCSV(os.Stdout, dataset.PatientsSchema(), ps); err != nil {
		panic(err)
	}
	// Output:
	// age,sex,zipcode,ailment
	// [20 - 30],M,53706,anemia
	// [20 - 30],M,53706,flu
}
