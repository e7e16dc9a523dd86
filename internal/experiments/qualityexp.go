package experiments

import (
	"io"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/compact"
	"spatialanon/internal/dataset"
	"spatialanon/internal/quality"
)

// ---------------------------------------------------------------------------
// Figure 10: anonymization quality across k for four systems.

// Fig10Row is one (k, system) quality measurement. Its K echoes the
// already validated Config parameter for rendering;
// anonylint:k-validated (Config.Validate rejects k < 2).
type Fig10Row struct {
	K      int
	System string
	quality.Report
}

// Fig10Result is the whole figure — (a) discernibility, (b) certainty,
// (c) KL divergence are columns of the same rows.
type Fig10Result struct {
	Records int
	Rows    []Fig10Row
}

// Fig10 reproduces Figures 10(a)-(c): quality of the R⁺-tree
// anonymization vs the top-down approach, uncompacted and compacted, at
// every k. The paper's headline shapes: the R⁺-tree wins on all three
// metrics; compaction leaves the top-down DM exactly unchanged while
// closing most of the CM/KL gap.
func Fig10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
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

	res := &Fig10Result{Records: len(recs)}
	for _, k := range cfg.Ks {
		rtPs, err := rt.Partitions(k)
		if err != nil {
			return nil, err
		}
		cp := make([]attr.Record, len(recs))
		copy(cp, recs)
		mdPs, err := cfg.mondrian(k).Anonymize(cp)
		if err != nil {
			return nil, err
		}
		mdC := compact.Partitions(mdPs, cfg.Workers)
		for _, sys := range []struct {
			name string
			ps   []anonmodel.Partition
		}{
			{"rtree", rtPs},
			{"mondrian", mdPs},
			{"mondrian+compact", mdC},
		} {
			res.Rows = append(res.Rows, Fig10Row{
				K:      k,
				System: sys.name,
				Report: quality.Measure(schema, sys.ps, domain, cfg.Workers),
			})
		}
	}
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig10Result) Print(w io.Writer) {
	fprintf(w, "Figure 10: anonymization quality, %d Lands End-like records\n", r.Records)
	fprintf(w, "%6s %-18s %16s %12s %10s %8s\n", "k", "system", "DM", "CM", "KL", "parts")
	for _, row := range r.Rows {
		fprintf(w, "%6d %-18s %16.0f %12.1f %10.4f %8d\n",
			row.K, row.System, row.Discernibility, row.Certainty, row.KLDivergence, row.Partitions)
	}
}

// ---------------------------------------------------------------------------
// Figure 11: incremental vs re-anonymized quality across batches (k=10).

// Fig11Row is one batch's quality comparison.
type Fig11Row struct {
	Batch        int
	TotalRecords int
	Incremental  quality.Report // R⁺-tree maintained incrementally
	Reanonymized quality.Report // Mondrian re-run on the whole prefix
}

// Fig11Result is the whole figure. Its K echoes the already validated
// Config parameter for rendering; anonylint:k-validated
// (Config.Validate rejects k < 2).
type Fig11Result struct {
	K    int
	Rows []Fig11Row
}

// Fig11 reproduces Figure 11: after each incremental batch insert the
// R⁺-tree's published quality is compared to re-anonymizing the prefix
// with the top-down algorithm. The paper's claim: "anonymized data
// quality does not suffer from incremental anonymization".
func Fig11(cfg Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const k = 10
	schema := dataset.LandsEndSchema()
	recs := dataset.GenerateLandsEnd(cfg.BatchSize*cfg.Batches, cfg.Seed)

	rt, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{K: k}
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
		mdPs, err := cfg.mondrian(k).Anonymize(cp)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig11Row{
			Batch:        b + 1,
			TotalRecords: n,
			Incremental:  quality.Measure(schema, rtPs, domain, cfg.Workers),
			Reanonymized: quality.Measure(schema, mdPs, domain, cfg.Workers),
		})
	}
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig11Result) Print(w io.Writer) {
	fprintf(w, "Figure 11: incremental (R+-tree) vs re-anonymized (top-down) quality, k=%d\n", r.K)
	fprintf(w, "%6s %9s | %14s %10s %8s | %14s %10s %8s\n",
		"batch", "records", "inc DM", "inc CM", "inc KL", "re DM", "re CM", "re KL")
	for _, row := range r.Rows {
		fprintf(w, "%6d %9d | %14.0f %10.1f %8.4f | %14.0f %10.1f %8.4f\n",
			row.Batch, row.TotalRecords,
			row.Incremental.Discernibility, row.Incremental.Certainty, row.Incremental.KLDivergence,
			row.Reanonymized.Discernibility, row.Reanonymized.Certainty, row.Reanonymized.KLDivergence)
	}
}
