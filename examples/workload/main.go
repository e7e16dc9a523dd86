// Workload: workload-aware anonymization via biased splitting
// (Section 2.4, Figures 12(c)/(d)). A data-mining team announces that
// its queries will range over Zipcode; the publisher builds one
// R⁺-tree with the default split policy and one biased to Zipcode,
// then measures the accuracy of 500 Zipcode COUNT queries on each.
// A weighted policy (the [33]-style importance weights) is shown as the
// softer alternative to hard bias.
//
//	go run ./examples/workload
package main

import (
	"fmt"
	"log"

	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/query"
	"spatialanon/internal/rplustree"
)

func main() {
	const (
		n       = 8000
		k       = 10
		queries = 500
	)
	schema := dataset.LandsEndSchema()
	zip := schema.AttrIndex("zipcode")
	records := dataset.GenerateLandsEnd(n, 21)
	domain := attr.DomainOf(schema.Dims(), records)

	// The announced workload: COUNT(*) ... WHERE zipcode BETWEEN z1, z2.
	workload := query.SingleAttrWorkload(records, zip, queries, 5, domain)

	// Weights can be derived from the workload itself (Section 2.4's
	// weighted-certainty suggestion): attributes the queries constrain
	// tightly get proportionally more weight.
	derived := query.WeightsFromWorkload(workload, domain)
	fmt.Printf("derived attribute weights from the workload: zipcode=%.2f (others ~0)\n\n", derived[zip])

	policies := []struct {
		name  string
		split rplustree.SplitPolicy
	}{
		{"unbiased (min-margin)", nil},
		{"biased to zipcode", rplustree.BiasedPolicy{Axes: []int{zip}}},
		{"workload-derived weights", rplustree.WeightedPolicy{Weights: derived}},
	}

	fmt.Printf("workload: %d zipcode range queries over %d records (k=%d)\n\n", queries, n, k)
	fmt.Printf("%-24s %12s %16s\n", "split policy", "mean error", "partitions")
	var base float64
	for i, pol := range policies {
		rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
			Schema: schema,
			BaseK:  k,
			Split:  pol.split,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := rt.Load(records); err != nil {
			log.Fatal(err)
		}
		ps, err := rt.Partitions(k)
		if err != nil {
			log.Fatal(err)
		}
		results, err := query.Evaluate(ps, records, workload)
		if err != nil {
			log.Fatal(err)
		}
		mean := query.MeanError(results)
		if i == 0 {
			base = mean
			fmt.Printf("%-24s %12.4f %16d\n", pol.name, mean, len(ps))
			continue
		}
		fmt.Printf("%-24s %12.4f %16d  (%.1fx more accurate)\n", pol.name, mean, len(ps), base/mean)
	}

	fmt.Println("\nthe same comparison, bucketed by query selectivity (Figure 12(d) shape):")
	for _, pol := range policies[:2] {
		rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{Schema: schema, BaseK: k, Split: pol.split})
		if err != nil {
			log.Fatal(err)
		}
		if err := rt.Load(records); err != nil {
			log.Fatal(err)
		}
		ps, _ := rt.Partitions(k)
		results, err := query.Evaluate(ps, records, workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s", pol.name)
		for _, b := range query.BySelectivity(results, n, []float64{0.01, 0.1, 0.5}) {
			fmt.Printf("  [%0.2f,%0.2f)=%.3f", b.Lo, b.Hi, b.Mean)
		}
		fmt.Println()
	}
}
