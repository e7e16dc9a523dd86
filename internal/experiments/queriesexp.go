package experiments

import (
	"fmt"

	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/query"
	"spatialanon/internal/rplustree"
)

// selectivityBounds are the bucket edges shared by Figures 12(b)/(d).
var selectivityBounds = []float64{0.001, 0.01, 0.05, 0.25}

// bucketLabel renders a selectivity bucket as the half-open range the
// Figure 12(b)/(d) x-axis shows.
func bucketLabel(b query.SelectivityBucket) string {
	return fmt.Sprintf("[%4.3f,%4.3f)", b.Lo, b.Hi)
}

// ---------------------------------------------------------------------------
// Figure 12(a): mean query error vs k; 12(b): vs selectivity.

// fig12a reproduces Figure 12(a): 1000 random 8-dimensional COUNT range
// queries (bounds drawn from two random records each) evaluated on
// R⁺-tree-anonymized, Mondrian-uncompacted and Mondrian-compacted data.
func fig12a(cfg Config, _ Args) (*Table, error) {
	recs := cfg.landsEnd()
	queries := query.FullRangeWorkload(recs, cfg.Queries, cfg.Seed+100)

	rt, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	if err := rt.Load(recs); err != nil {
		return nil, err
	}

	res := &Table{
		Title:   fmt.Sprintf("Figure 12(a): mean normalized COUNT error, %d queries on %d records", len(queries), len(recs)),
		Columns: []Column{{"k", "%6d"}, {"system", "%-18s"}, {"mean error", "%12.4f"}},
	}
	for _, k := range cfg.Ks {
		systems, err := cfg.threeSystems(rt, recs, k)
		if err != nil {
			return nil, err
		}
		for _, sys := range systems {
			results, err := query.Evaluate(sys.ps, recs, queries)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, []any{k, sys.name, query.MeanError(results)})
		}
	}
	return res, nil
}

// fig12b reproduces Figure 12(b): the same workload bucketed by query
// selectivity (original result cardinality / table size) at a fixed k.
// The paper's shape: errors — and the benefit of compaction — shrink as
// selectivity grows.
func fig12b(cfg Config, _ Args) (*Table, error) {
	const k = 10
	recs := cfg.landsEnd()
	queries := query.FullRangeWorkload(recs, cfg.Queries, cfg.Seed+200)

	rt, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	if err := rt.Load(recs); err != nil {
		return nil, err
	}
	systems, err := cfg.threeSystems(rt, recs, k)
	if err != nil {
		return nil, err
	}
	res := &Table{
		Title:   fmt.Sprintf("Figure 12(b): mean error vs query selectivity (k=%d)", k),
		Columns: []Column{{"system", "%-18s"}, {"selectivity", "%12s"}, {"queries", "%8d"}, {"mean error", "%12.4f"}},
	}
	for _, sys := range systems {
		results, err := query.Evaluate(sys.ps, recs, queries)
		if err != nil {
			return nil, err
		}
		for _, b := range query.BySelectivity(results, len(recs), selectivityBounds) {
			res.Rows = append(res.Rows, []any{sys.name, bucketLabel(b), b.Queries, b.Mean})
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 12(c)/(d): workload-biased splitting on the Zipcode attribute.

// zipcodeTrees sets up Figures 12(c)/(d): the Lands End-like table, a
// workload of single-attribute range queries on Zipcode, and two
// R⁺-trees over the table — the first with its splitting biased to
// Zipcode ("selects the Zipcode attribute as the splitting attribute
// for every split"), the second unbiased, which 12(c) bulk-loads and
// 12(d) loads tuple by tuple like the biased one.
func (c Config) zipcodeTrees(workloadSeed int64, bulk bool) ([]attr.Record, []attr.Box, [2]*core.RTreeAnonymizer, error) {
	recs := c.landsEnd()
	schema := dataset.LandsEndSchema()
	zip := schema.AttrIndex("zipcode")
	queries := query.SingleAttrWorkload(recs, zip, c.Queries, workloadSeed, attr.DomainOf(schema.Dims(), recs))

	var trees [2]*core.RTreeAnonymizer
	var err error
	trees[0], err = core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema: schema,
		BaseK:  c.BaseK,
		Split:  rplustree.BiasedPolicy{Axes: []int{zip}},
	})
	if err != nil {
		return nil, nil, trees, err
	}
	if trees[1], err = c.newRTree(bulk); err != nil {
		return nil, nil, trees, err
	}
	for _, rt := range trees {
		if err := rt.Load(recs); err != nil {
			return nil, nil, trees, err
		}
	}
	return recs, queries, trees, nil
}

// fig12c reproduces Figure 12(c): the Zipcode workload's error against
// the biased and the unbiased R⁺-tree at every k.
func fig12c(cfg Config, _ Args) (*Table, error) {
	recs, queries, trees, err := cfg.zipcodeTrees(cfg.Seed+300, true)
	if err != nil {
		return nil, err
	}
	res := &Table{
		Title:   fmt.Sprintf("Figure 12(c): Zipcode workload error, biased vs unbiased R+-tree (%d queries)", len(queries)),
		Columns: []Column{{"k", "%6d"}, {"biased", "%12.4f"}, {"unbiased", "%12.4f"}, {"gain", "%7.1fx"}},
	}
	for _, k := range cfg.Ks {
		var means [2]float64 // biased, unbiased
		for i, rt := range trees {
			ps, err := rt.Partitions(k)
			if err != nil {
				return nil, err
			}
			results, err := query.Evaluate(ps, recs, queries)
			if err != nil {
				return nil, err
			}
			means[i] = query.MeanError(results)
		}
		gain := 0.0
		if means[0] > 0 {
			gain = means[1] / means[0]
		}
		res.Rows = append(res.Rows, []any{k, means[0], means[1], gain})
	}
	return res, nil
}

// fig12d reproduces Figure 12(d): the Zipcode workload bucketed by
// selectivity at fixed k; the biased tree's advantage diminishes as
// selectivity grows.
func fig12d(cfg Config, _ Args) (*Table, error) {
	const k = 10
	recs, queries, trees, err := cfg.zipcodeTrees(cfg.Seed+400, false)
	if err != nil {
		return nil, err
	}
	var buckets [2][]query.SelectivityBucket // biased, unbiased
	for i, rt := range trees {
		ps, err := rt.Partitions(k)
		if err != nil {
			return nil, err
		}
		results, err := query.Evaluate(ps, recs, queries)
		if err != nil {
			return nil, err
		}
		buckets[i] = query.BySelectivity(results, len(recs), selectivityBounds)
	}
	res := &Table{
		Title:   fmt.Sprintf("Figure 12(d): Zipcode workload error vs selectivity (k=%d)", k),
		Columns: []Column{{"selectivity", "%12s"}, {"biased", "%12.4f"}, {"unbiased", "%12.4f"}},
	}
	for i, b := range buckets[0] {
		res.Rows = append(res.Rows, []any{bucketLabel(b), b.Mean, buckets[1][i].Mean})
	}
	return res, nil
}
