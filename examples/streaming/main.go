// Streaming: incremental anonymization of a live customer-sale feed
// (Section 2.2, Figures 7(b) and 11). Batches of new orders arrive and
// are inserted into the live index; after each batch the anonymized
// view is refreshed with one leaf scan, and its quality is compared to
// re-anonymizing everything from scratch with the top-down baseline —
// which is the only option a non-incremental algorithm has. Late
// order cancellations exercise deletion.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"time"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/mondrian"
	"spatialanon/internal/quality"
	"spatialanon/internal/rplustree"
)

func main() {
	const (
		batchSize = 2000
		batches   = 6
		k         = 10
	)
	schema := dataset.LandsEndSchema()
	feed := dataset.LandsEndStream(batchSize*batches, 11)

	rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema:   schema,
		BaseK:    k,
		BulkLoad: &rplustree.BulkLoadConfig{RecordBytes: 32},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streaming %d batches of %d orders, publishing a %d-anonymous view after each\n\n",
		batches, batchSize, k)
	fmt.Printf("%6s %9s %12s %12s | %10s %10s\n",
		"batch", "indexed", "insert+scan", "reanon-all", "inc CM", "reanon CM")

	var all []attr.Record
	for b := 1; b <= batches; b++ {
		batch := feed.NextBatch(batchSize)
		all = append(all, batch...)

		start := time.Now()
		if err := rt.Load(batch); err != nil {
			log.Fatal(err)
		}
		view, err := rt.Partitions(k)
		if err != nil {
			log.Fatal(err)
		}
		incElapsed := time.Since(start)

		// What a non-incremental pipeline must do instead.
		cp := make([]attr.Record, len(all))
		copy(cp, all)
		start = time.Now()
		reanon, err := mondrian.Anonymize(schema, cp, mondrian.Options{Constraint: anonmodel.KAnonymity{K: k}})
		if err != nil {
			log.Fatal(err)
		}
		reElapsed := time.Since(start)

		domain := attr.DomainOf(schema.Dims(), all)
		fmt.Printf("%6d %9d %12v %12v | %10.1f %10.1f\n",
			b, rt.Len(),
			incElapsed.Round(time.Millisecond), reElapsed.Round(time.Millisecond),
			quality.Certainty(schema, view, domain),
			quality.Certainty(schema, reanon, domain))
	}

	// A correction arrives: 500 orders are cancelled. Deletion is an
	// index operation; the refreshed view stays k-anonymous.
	for i := 0; i < 500; i++ {
		found, err := rt.Delete(all[i].ID, all[i].QI)
		if err != nil {
			log.Fatal(err)
		}
		if !found {
			log.Fatalf("cancel of order %d failed", all[i].ID)
		}
	}
	view, err := rt.Partitions(k)
	if err != nil {
		log.Fatal(err)
	}
	if err := anonmodel.CheckAnonymity(view, anonmodel.KAnonymity{K: k}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter cancelling 500 orders: %d records in %d partitions, still %d-anonymous\n",
		rt.Len(), len(view), k)
}
