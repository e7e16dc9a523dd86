package experiments

import (
	"io"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/compact"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/query"
	"spatialanon/internal/rplustree"
)

// selectivityBounds are the bucket edges shared by Figures 12(b)/(d).
var selectivityBounds = []float64{0.001, 0.01, 0.05, 0.25}

// ---------------------------------------------------------------------------
// Figure 12(a): mean query error vs k; 12(b): vs selectivity.

// Fig12aRow is one (k, system) error measurement. Its K echoes the
// already validated Config parameter for rendering;
// anonylint:k-validated (Config.Validate rejects k < 2).
type Fig12aRow struct {
	K      int
	System string
	Mean   float64
}

// Fig12aResult is the whole figure.
type Fig12aResult struct {
	Records int
	Queries int
	Rows    []Fig12aRow
}

// Fig12a reproduces Figure 12(a): 1000 random 8-dimensional COUNT range
// queries (bounds drawn from two random records each) evaluated on
// R⁺-tree-anonymized, Mondrian-uncompacted and Mondrian-compacted data.
func Fig12a(cfg Config) (*Fig12aResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	recs := cfg.landsEnd()
	queries := query.FullRangeWorkload(recs, cfg.Queries, cfg.Seed+100)

	rt, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	if err := rt.Load(recs); err != nil {
		return nil, err
	}

	res := &Fig12aResult{Records: len(recs), Queries: len(queries)}
	for _, k := range cfg.Ks {
		systems, err := cfg.threeSystems(rt, recs, k)
		if err != nil {
			return nil, err
		}
		for _, sys := range systems {
			results, err := query.Evaluate(sys.ps, recs, queries, cfg.Workers)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Fig12aRow{K: k, System: sys.name, Mean: query.MeanError(results)})
		}
	}
	return res, nil
}

// threeSystems materializes the three Figure 12(a) systems at k.
func (c Config) threeSystems(rt *core.RTreeAnonymizer, recs []attr.Record, k int) ([]namedPartitions, error) {
	rtPs, err := rt.Partitions(k)
	if err != nil {
		return nil, err
	}
	cp := make([]attr.Record, len(recs))
	copy(cp, recs)
	mdPs, err := c.mondrian(k).Anonymize(cp)
	if err != nil {
		return nil, err
	}
	return []namedPartitions{
		{"rtree", rtPs},
		{"mondrian", mdPs},
		{"mondrian+compact", compact.Partitions(mdPs, c.Workers)},
	}, nil
}

type namedPartitions struct {
	name string
	ps   []anonmodel.Partition
}

// Print renders the figure as a table.
func (r *Fig12aResult) Print(w io.Writer) {
	fprintf(w, "Figure 12(a): mean normalized COUNT error, %d queries on %d records\n", r.Queries, r.Records)
	fprintf(w, "%6s %-18s %12s\n", "k", "system", "mean error")
	for _, row := range r.Rows {
		fprintf(w, "%6d %-18s %12.4f\n", row.K, row.System, row.Mean)
	}
}

// Fig12bRow is one (system, selectivity bucket) error measurement.
type Fig12bRow struct {
	System  string
	Bucket  query.SelectivityBucket
	Queries int
}

// Fig12bResult is the whole figure. Its K echoes the already validated
// Config parameter for rendering; anonylint:k-validated
// (Config.Validate rejects k < 2).
type Fig12bResult struct {
	K    int
	Rows []Fig12bRow
}

// Fig12b reproduces Figure 12(b): the same workload bucketed by query
// selectivity (original result cardinality / table size) at a fixed k.
// The paper's shape: errors — and the benefit of compaction — shrink as
// selectivity grows.
func Fig12b(cfg Config) (*Fig12bResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
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
	res := &Fig12bResult{K: k}
	for _, sys := range systems {
		results, err := query.Evaluate(sys.ps, recs, queries, cfg.Workers)
		if err != nil {
			return nil, err
		}
		for _, b := range query.BySelectivity(results, len(recs), selectivityBounds) {
			res.Rows = append(res.Rows, Fig12bRow{System: sys.name, Bucket: b, Queries: b.Queries})
		}
	}
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig12bResult) Print(w io.Writer) {
	fprintf(w, "Figure 12(b): mean error vs query selectivity (k=%d)\n", r.K)
	fprintf(w, "%-18s %12s %8s %12s\n", "system", "selectivity", "queries", "mean error")
	for _, row := range r.Rows {
		fprintf(w, "%-18s [%4.3f,%4.3f) %8d %12.4f\n",
			row.System, row.Bucket.Lo, row.Bucket.Hi, row.Queries, row.Bucket.Mean)
	}
}

// ---------------------------------------------------------------------------
// Figure 12(c)/(d): workload-biased splitting on the Zipcode attribute.

// Fig12cRow is one (k, system) error measurement under the Zipcode
// workload. Its K echoes the already validated Config parameter for
// rendering; anonylint:k-validated (Config.Validate rejects k < 2).
type Fig12cRow struct {
	K        int
	Biased   float64
	Unbiased float64
	Gain     float64 // unbiased/biased
}

// Fig12cResult is the whole figure.
type Fig12cResult struct {
	Queries int
	Rows    []Fig12cRow
}

// Fig12c reproduces Figure 12(c): a workload of single-attribute range
// queries on Zipcode evaluated against an R⁺-tree whose splitting is
// biased to Zipcode ("selects the Zipcode attribute as the splitting
// attribute for every split") vs the unbiased R⁺-tree.
func Fig12c(cfg Config) (*Fig12cResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	recs := cfg.landsEnd()
	schema := dataset.LandsEndSchema()
	zip := schema.AttrIndex("zipcode")
	domain := attr.DomainOf(schema.Dims(), recs)
	queries := query.SingleAttrWorkload(recs, zip, cfg.Queries, cfg.Seed+300, domain)

	unbiased, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	if err := unbiased.Load(recs); err != nil {
		return nil, err
	}
	biased, err := core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema: schema,
		BaseK:  cfg.BaseK,
		Split:  rplustree.BiasedPolicy{Axes: []int{zip}},
	})
	if err != nil {
		return nil, err
	}
	if err := biased.Load(recs); err != nil {
		return nil, err
	}

	res := &Fig12cResult{Queries: len(queries)}
	for _, k := range cfg.Ks {
		bPs, err := biased.Partitions(k)
		if err != nil {
			return nil, err
		}
		uPs, err := unbiased.Partitions(k)
		if err != nil {
			return nil, err
		}
		bRes, err := query.Evaluate(bPs, recs, queries, cfg.Workers)
		if err != nil {
			return nil, err
		}
		uRes, err := query.Evaluate(uPs, recs, queries, cfg.Workers)
		if err != nil {
			return nil, err
		}
		row := Fig12cRow{K: k, Biased: query.MeanError(bRes), Unbiased: query.MeanError(uRes)}
		if row.Biased > 0 {
			row.Gain = row.Unbiased / row.Biased
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig12cResult) Print(w io.Writer) {
	fprintf(w, "Figure 12(c): Zipcode workload error, biased vs unbiased R+-tree (%d queries)\n", r.Queries)
	fprintf(w, "%6s %12s %12s %8s\n", "k", "biased", "unbiased", "gain")
	for _, row := range r.Rows {
		fprintf(w, "%6d %12.4f %12.4f %7.1fx\n", row.K, row.Biased, row.Unbiased, row.Gain)
	}
}

// Fig12dRow is one selectivity bucket's biased/unbiased comparison.
type Fig12dRow struct {
	Bucket   query.SelectivityBucket
	Biased   float64
	Unbiased float64
}

// Fig12dResult is the whole figure. Its K echoes the already validated
// Config parameter for rendering; anonylint:k-validated
// (Config.Validate rejects k < 2).
type Fig12dResult struct {
	K    int
	Rows []Fig12dRow
}

// Fig12d reproduces Figure 12(d): the Zipcode workload bucketed by
// selectivity at fixed k; the biased tree's advantage diminishes as
// selectivity grows.
func Fig12d(cfg Config) (*Fig12dResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const k = 10
	recs := cfg.landsEnd()
	schema := dataset.LandsEndSchema()
	zip := schema.AttrIndex("zipcode")
	domain := attr.DomainOf(schema.Dims(), recs)
	queries := query.SingleAttrWorkload(recs, zip, cfg.Queries, cfg.Seed+400, domain)

	mk := func(split rplustree.SplitPolicy) ([]anonmodel.Partition, error) {
		rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
			Schema: schema, BaseK: cfg.BaseK, Split: split,
		})
		if err != nil {
			return nil, err
		}
		if err := rt.Load(recs); err != nil {
			return nil, err
		}
		return rt.Partitions(k)
	}
	bPs, err := mk(rplustree.BiasedPolicy{Axes: []int{zip}})
	if err != nil {
		return nil, err
	}
	uPs, err := mk(nil)
	if err != nil {
		return nil, err
	}
	bRes, err := query.Evaluate(bPs, recs, queries, cfg.Workers)
	if err != nil {
		return nil, err
	}
	uRes, err := query.Evaluate(uPs, recs, queries, cfg.Workers)
	if err != nil {
		return nil, err
	}
	bBuckets := query.BySelectivity(bRes, len(recs), selectivityBounds)
	uBuckets := query.BySelectivity(uRes, len(recs), selectivityBounds)
	res := &Fig12dResult{K: k}
	for i := range bBuckets {
		res.Rows = append(res.Rows, Fig12dRow{
			Bucket:   bBuckets[i],
			Biased:   bBuckets[i].Mean,
			Unbiased: uBuckets[i].Mean,
		})
	}
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig12dResult) Print(w io.Writer) {
	fprintf(w, "Figure 12(d): Zipcode workload error vs selectivity (k=%d)\n", r.K)
	fprintf(w, "%12s %12s %12s\n", "selectivity", "biased", "unbiased")
	for _, row := range r.Rows {
		fprintf(w, "[%4.3f,%4.3f) %12.4f %12.4f\n", row.Bucket.Lo, row.Bucket.Hi, row.Biased, row.Unbiased)
	}
}
