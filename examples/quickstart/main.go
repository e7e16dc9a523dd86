// Quickstart: anonymize a small patient table with the R⁺-tree index,
// print the anonymized rows (the Figure 1(b) shape), and compare the
// result's quality against the Mondrian baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/quality"
)

func main() {
	const (
		n = 300
		k = 5
	)
	schema := dataset.PatientsSchema()
	records := dataset.GeneratePatients(n, 42)

	// 1. Build the anonymizing index: leaves hold between k and 2k
	//    records; each leaf's MBR is the generalization its records
	//    publish under.
	rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema: schema,
		BaseK:  k,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.Load(records); err != nil {
		log.Fatal(err)
	}

	// 2. Materialize the k-anonymous table.
	partitions, err := rt.Partitions(k)
	if err != nil {
		log.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(partitions, anonmodel.KAnonymity{K: k}); err != nil {
		log.Fatal(err) // cannot happen; shown for the pattern
	}
	fmt.Printf("anonymized %d patients into %d partitions (k=%d)\n\n", n, len(partitions), k)

	// 3. Print the first few rows the way the paper's Figure 1(b) does:
	//    ranges for numeric attributes, hierarchy labels for sex.
	header, rows, err := core.Render(schema, partitions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %-4s %-16s %s\n", header[0], header[1], header[2], header[3])
	for _, row := range rows[:8] {
		fmt.Printf("%-14s %-4s %-16s %s\n", row[0], row[1], row[2], row[3])
	}
	fmt.Println("...")

	// 4. Compare quality with the top-down Mondrian baseline on the
	//    same records, with and without the Section 4 compaction.
	domain := attr.DomainOf(schema.Dims(), records)
	fmt.Printf("\n%-22s %14s %10s %8s\n", "system", "discernibility", "certainty", "KL")
	for _, compacted := range []bool{false, true} {
		a, err := core.New(core.Mondrian, core.Params{Schema: schema, Constraint: anonmodel.KAnonymity{K: k}, Compact: compacted})
		if err != nil {
			log.Fatal(err)
		}
		cp := make([]attr.Record, len(records))
		copy(cp, records)
		ps, err := a.Anonymize(cp)
		if err != nil {
			log.Fatal(err)
		}
		rep := quality.Measure(schema, ps, domain)
		fmt.Printf("%-22s %14.0f %10.2f %8.4f\n", a.Name(), rep.Discernibility, rep.Certainty, rep.KLDivergence)
	}
	rep := quality.Measure(schema, partitions, domain)
	fmt.Printf("%-22s %14.0f %10.2f %8.4f\n", "rtree (this example)", rep.Discernibility, rep.Certainty, rep.KLDivergence)

	// 5. The anonymized table is ordinary CSV.
	f, err := os.CreateTemp("", "anonymized-*.csv")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := core.WriteCSV(f, schema, partitions); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull anonymized table written to %s\n", f.Name())
}
