// Hospital: the multi-granular release scenario of Section 3. A
// university hospital shares its patient records with three entities of
// decreasing trust — local researchers, an outside research group, and
// the open Internet — at granularities 5, 20 and 50, all derived from
// one index by the leaf-scan algorithm (Figure 5). The example then
// plays the adversary: it correlates all three releases and verifies
// that the intersection cells never isolate fewer than k=5 patients
// (Definition 2 / Lemma 1), and contrasts that with the unsafe
// alternative of independently re-anonymizing per entity.
//
//	go run ./examples/hospital
package main

import (
	"fmt"
	"log"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/mondrian"
	"spatialanon/internal/verify"
)

func main() {
	const (
		patients = 2000
		baseK    = 5
	)
	schema := dataset.PatientsSchema()
	records := dataset.GeneratePatients(patients, 7)

	// The hospital also insists on 3-diversity of ailments inside every
	// published group, layered on k-anonymity.
	constraint := anonmodel.LDiversity{K: baseK, L: 3}
	rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema:     schema,
		Constraint: constraint,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.Load(records); err != nil {
		log.Fatal(err)
	}

	// One index, three releases: leaf-scan groups whole leaves, so each
	// patient stays bound to the same >= k companions in every release.
	entities := []struct {
		name string
		k    int
	}{
		{"university researchers", 5},
		{"external research group", 20},
		{"public Internet release", 50},
	}
	releases, err := rt.MultiGranular([]int{5, 20, 50})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hospital data: %d patients, constraint %v\n\n", patients, constraint)
	sets := make([][]anonmodel.Partition, len(releases))
	for i, rel := range releases {
		sets[i] = rel.Partitions
		sizes := sizeRange(rel.Partitions)
		fmt.Printf("%-26s k=%-3d %4d partitions, sizes %s\n",
			entities[i].name, rel.Granularity, len(rel.Partitions), sizes)
	}

	// Adversary check: correlate all three releases.
	if err := verify.Releases(sets, baseK); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncollusion check over all 3 releases: SAFE (every intersection cell >= %d patients)\n", baseK)

	// The unsafe alternative: re-anonymize independently per entity.
	// Different runs cut the space differently, so intersections can
	// isolate individuals. We emulate it by re-anonymizing a shuffled
	// copy with Mondrian and correlating with the index release.
	shuffled := make([]attr.Record, len(records))
	copy(shuffled, records)
	dataset.Shuffle(shuffled, 99)
	independent, err := mondrian.Anonymize(schema, shuffled, mondrian.Options{Constraint: anonmodel.KAnonymity{K: 20}})
	if err != nil {
		log.Fatal(err)
	}
	err = verify.Releases([][]anonmodel.Partition{sets[0], independent}, baseK)
	if err != nil {
		fmt.Printf("independent re-anonymization at k=20: UNSAFE as expected\n  %v\n", err)
	} else {
		fmt.Println("independent re-anonymization happened to stay safe on this data — rerun with another seed")
	}

	// The hierarchical alternative (Section 3.1): every tree level is a
	// release, granularities multiply up the tree.
	hier, err := rt.HierarchicalReleases()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhierarchical releases (Section 3.1): one per index level\n")
	for lvl, rel := range hier {
		fmt.Printf("  level %d: %4d partitions, smallest %d records\n",
			lvl, len(rel.Partitions), rel.Granularity)
	}
}

func sizeRange(ps []anonmodel.Partition) string {
	min, max := ps[0].Size(), ps[0].Size()
	for _, p := range ps {
		if p.Size() < min {
			min = p.Size()
		}
		if p.Size() > max {
			max = p.Size()
		}
	}
	return fmt.Sprintf("%d..%d", min, max)
}
