package experiments

import (
	"fmt"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/compact"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/quality"
)

// threeSystems materializes the three systems Figures 10 and 12(a)/(b)
// compare at k — the R⁺-tree's leaf scan, the top-down baseline, and
// that baseline compacted — labelled as the registry reports them.
func (c Config) threeSystems(rt *core.RTreeAnonymizer, recs []attr.Record, k int) ([]namedPartitions, error) {
	rtPs, err := rt.Partitions(k)
	if err != nil {
		return nil, err
	}
	cp := make([]attr.Record, len(recs))
	copy(cp, recs)
	mdPs, err := c.mondrian(cp, k)
	if err != nil {
		return nil, err
	}
	return []namedPartitions{
		{core.RTree, rtPs},
		{core.Mondrian, mdPs},
		{core.Mondrian + "+compact", compact.Partitions(mdPs)},
	}, nil
}

type namedPartitions struct {
	name string
	ps   []anonmodel.Partition
}

// ---------------------------------------------------------------------------
// Figure 10: anonymization quality across k for three systems.

// fig10 reproduces Figures 10(a)-(c) — discernibility, certainty and KL
// divergence are columns of the same rows: quality of the R⁺-tree
// anonymization vs the top-down approach, uncompacted and compacted, at
// every k. The paper's headline shapes: the R⁺-tree wins on all three
// metrics; compaction leaves the top-down DM exactly unchanged while
// closing most of the CM/KL gap.
func fig10(cfg Config, _ Args) (*Table, error) {
	recs := cfg.landsEnd()
	schema := dataset.LandsEndSchema()
	domain := attr.DomainOf(schema.Dims(), recs)

	rt, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	if err := rt.Load(recs); err != nil {
		return nil, err
	}

	res := &Table{
		Title: fmt.Sprintf("Figure 10: anonymization quality, %d Lands End-like records", len(recs)),
		Columns: []Column{
			{"k", "%6d"}, {"system", "%-18s"}, {"DM", "%16.0f"}, {"CM", "%12.1f"}, {"KL", "%10.4f"}, {"parts", "%8d"},
		},
	}
	for _, k := range cfg.Ks {
		systems, err := cfg.threeSystems(rt, recs, k)
		if err != nil {
			return nil, err
		}
		for _, sys := range systems {
			rep := quality.Measure(schema, sys.ps, domain)
			res.Rows = append(res.Rows, []any{k, sys.name, rep.Discernibility, rep.Certainty, rep.KLDivergence, rep.Partitions})
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 11: incremental vs re-anonymized quality across batches (k=10).

// fig11 reproduces Figure 11: after each incremental batch insert the
// R⁺-tree's published quality ("inc") is compared to re-anonymizing the
// prefix with the top-down algorithm ("re"). The paper's claim:
// "anonymized data quality does not suffer from incremental
// anonymization".
func fig11(cfg Config, _ Args) (*Table, error) {
	const k = 10
	schema := dataset.LandsEndSchema()
	recs := dataset.GenerateLandsEnd(cfg.BatchSize*cfg.Batches, cfg.Seed)

	rt, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	res := &Table{
		Title: fmt.Sprintf("Figure 11: incremental (R+-tree) vs re-anonymized (top-down) quality, k=%d", k),
		Columns: []Column{
			{"batch", "%6d"}, {"records", "%9d"},
			{"inc DM", "| %14.0f"}, {"inc CM", "%10.1f"}, {"inc KL", "%8.4f"},
			{"re DM", "| %14.0f"}, {"re CM", "%10.1f"}, {"re KL", "%8.4f"},
		},
	}
	for b := 0; b < cfg.Batches; b++ {
		if err := rt.Load(recs[b*cfg.BatchSize : (b+1)*cfg.BatchSize]); err != nil {
			return nil, err
		}
		n := (b + 1) * cfg.BatchSize
		prefix := recs[:n]
		domain := attr.DomainOf(schema.Dims(), prefix)

		rtPs, err := rt.Partitions(k)
		if err != nil {
			return nil, err
		}
		cp := make([]attr.Record, n)
		copy(cp, prefix)
		mdPs, err := cfg.mondrian(cp, k)
		if err != nil {
			return nil, err
		}
		inc := quality.Measure(schema, rtPs, domain)
		re := quality.Measure(schema, mdPs, domain)
		res.Rows = append(res.Rows, []any{
			b + 1, n,
			inc.Discernibility, inc.Certainty, inc.KLDivergence,
			re.Discernibility, re.Certainty, re.KLDivergence,
		})
	}
	return res, nil
}
