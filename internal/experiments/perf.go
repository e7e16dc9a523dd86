package experiments

import (
	"fmt"
	"io"
	"time"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/compact"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/mondrian"
	"spatialanon/internal/rplustree"
)

// ---------------------------------------------------------------------------
// Figure 7(a): bulk anonymization times, R⁺-tree vs top-down, across k.

// Fig7aRow is one k's measurement. Its K echoes the already validated
// Config parameter for rendering; anonylint:k-validated
// (Config.Validate rejects k < 2).
type Fig7aRow struct {
	K        int
	RTree    time.Duration // base-k build (amortized) + leaf scan at k
	TopDown  time.Duration // full Mondrian run at k
	Speedup  float64
	RTreeCnt int // partitions produced
	TopCnt   int
}

// Fig7aResult is the whole figure.
type Fig7aResult struct {
	Records   int
	BuildTime time.Duration // one-time base-k index build
	Rows      []Fig7aRow
}

// Fig7a reproduces Figure 7(a): the R⁺-tree is built once at base k and
// every granularity is derived by a leaf scan, so its cost is flat in
// k; Mondrian re-runs per k and gets cheaper as k grows.
func Fig7a(cfg Config) (*Fig7aResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	recs := cfg.landsEnd()

	rt, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	build, err := timeIt(func() error { return rt.Load(recs) })
	if err != nil {
		return nil, err
	}

	res := &Fig7aResult{Records: len(recs), BuildTime: build}
	for _, k := range cfg.Ks {
		var ps []anonmodel.Partition
		scan, err := timeIt(func() error {
			var e error
			ps, e = rt.Partitions(k)
			return e
		})
		if err != nil {
			return nil, err
		}
		rtreeCnt := len(ps)

		cp := make([]attr.Record, len(recs))
		copy(cp, recs)
		var mp []anonmodel.Partition
		td, err := timeIt(func() error {
			var e error
			mp, e = cfg.mondrian(k).Anonymize(cp)
			return e
		})
		if err != nil {
			return nil, err
		}
		row := Fig7aRow{
			K:        k,
			RTree:    build + scan,
			TopDown:  td,
			RTreeCnt: rtreeCnt,
			TopCnt:   len(mp),
		}
		if row.RTree > 0 {
			row.Speedup = float64(row.TopDown) / float64(row.RTree)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig7aResult) Print(w io.Writer) {
	fprintf(w, "Figure 7(a): bulk anonymization time, %d Lands End-like records\n", r.Records)
	fprintf(w, "(R+-tree = one base-k buffer-tree build %v + per-k leaf scan)\n", r.BuildTime.Round(time.Millisecond))
	fprintf(w, "%8s %14s %14s %9s\n", "k", "R+-tree", "top-down", "speedup")
	for _, row := range r.Rows {
		fprintf(w, "%8d %14v %14v %8.1fx\n",
			row.K, row.RTree.Round(time.Millisecond), row.TopDown.Round(time.Millisecond), row.Speedup)
	}
}

// ---------------------------------------------------------------------------
// Figure 7(b): incremental anonymization time per batch (k = 10).

// Fig7bRow is one batch's measurement.
type Fig7bRow struct {
	Batch        int
	TotalRecords int
	Incremental  time.Duration // insert batch into the live index + rescan
	Reanonymize  time.Duration // what a non-incremental algorithm must do:
	// re-anonymize the whole prefix with Mondrian
}

// Fig7bResult is the whole figure. Its K echoes the already validated
// Config parameter for rendering; anonylint:k-validated
// (Config.Validate rejects k < 2).
type Fig7bResult struct {
	K    int
	Rows []Fig7bRow
}

// Fig7b reproduces Figure 7(b): batches of records are inserted into the
// live index; the comparison column re-anonymizes the entire prefix with
// the top-down algorithm, which is its only option ("since a top-down
// approach is not incremental, it would have to re-anonymize the entire
// data set on each batch insert").
func Fig7b(cfg Config) (*Fig7bResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const k = 10
	recs := dataset.GenerateLandsEnd(cfg.BatchSize*cfg.Batches, cfg.Seed)

	rt, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	res := &Fig7bResult{K: k}
	for b := 0; b < cfg.Batches; b++ {
		batch := recs[b*cfg.BatchSize : (b+1)*cfg.BatchSize]
		inc, err := timeIt(func() error {
			if e := rt.Load(batch); e != nil {
				return e
			}
			_, e := rt.Partitions(k)
			return e
		})
		if err != nil {
			return nil, err
		}
		prefix := make([]attr.Record, (b+1)*cfg.BatchSize)
		copy(prefix, recs[:len(prefix)])
		re, err := timeIt(func() error {
			_, e := cfg.mondrian(k).Anonymize(prefix)
			return e
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig7bRow{
			Batch:        b + 1,
			TotalRecords: (b + 1) * cfg.BatchSize,
			Incremental:  inc,
			Reanonymize:  re,
		})
	}
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig7bResult) Print(w io.Writer) {
	fprintf(w, "Figure 7(b): incremental anonymization time per batch (k=%d)\n", r.K)
	fprintf(w, "%7s %10s %14s %18s\n", "batch", "records", "incremental", "re-anonymize all")
	for _, row := range r.Rows {
		fprintf(w, "%7d %10d %14v %18v\n",
			row.Batch, row.TotalRecords, row.Incremental.Round(time.Millisecond), row.Reanonymize.Round(time.Millisecond))
	}
}

// ---------------------------------------------------------------------------
// Figure 8(a): elapsed time vs data set size; 8(b): I/O vs memory.

// Fig8aRow is one data set size's measurement.
type Fig8aRow struct {
	Records int
	Elapsed time.Duration
	IOs     int64
}

// Fig8aResult is the whole figure.
type Fig8aResult struct {
	MemoryBytes int
	Rows        []Fig8aRow
}

// Fig8a reproduces Figure 8(a): buffer-tree bulk anonymization of the
// synthetic (Agrawal) data set at increasing sizes under a fixed memory
// budget. Sizes are multiples of cfg.Records; the paper swept 1M→100M
// under 256 MB.
func Fig8a(cfg Config, sizes []int, memoryBytes int) (*Fig8aResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if memoryBytes == 0 {
		memoryBytes = 4 << 20
	}
	res := &Fig8aResult{MemoryBytes: memoryBytes}
	for _, n := range sizes {
		rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
			Schema: dataset.AgrawalSchema(),
			BaseK:  cfg.BaseK,
			BulkLoad: &rplustree.BulkLoadConfig{
				RecordBytes: 36,
				MemoryBytes: memoryBytes,
			},
		})
		if err != nil {
			return nil, err
		}
		s := dataset.AgrawalStream(n, cfg.Seed)
		elapsed, err := timeIt(func() error {
			for {
				batch := s.NextBatch(10000)
				if len(batch) == 0 {
					return rt.Sync()
				}
				if e := rt.LoadBuffered(batch); e != nil {
					return e
				}
			}
		})
		if err != nil {
			return nil, err
		}
		if _, err := rt.Partitions(0); err != nil {
			return nil, err
		}
		reads, writes := rt.IOStats()
		res.Rows = append(res.Rows, Fig8aRow{Records: n, Elapsed: elapsed, IOs: reads + writes})
	}
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig8aResult) Print(w io.Writer) {
	fprintf(w, "Figure 8(a): buffer-tree anonymization scaling (memory %d MB)\n", r.MemoryBytes>>20)
	fprintf(w, "%12s %14s %12s\n", "records", "elapsed", "I/Os")
	for _, row := range r.Rows {
		fprintf(w, "%12d %14v %12d\n", row.Records, row.Elapsed.Round(time.Millisecond), row.IOs)
	}
}

// Fig8bRow is one memory budget's measurement.
type Fig8bRow struct {
	MemoryBytes int
	IOs         int64
}

// Fig8bResult is the whole figure.
type Fig8bResult struct {
	Records int
	Rows    []Fig8bRow
}

// Fig8b reproduces Figure 8(b): the number of explicit I/O operations
// performed while bulk anonymizing a fixed synthetic data set, as the
// memory allotted to the process shrinks. The paper's headline: halving
// memory increases I/O by less than 2x.
func Fig8b(cfg Config, records int, memories []int) (*Fig8bResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Fig8bResult{Records: records}
	for _, mem := range memories {
		rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
			Schema: dataset.AgrawalSchema(),
			BaseK:  cfg.BaseK,
			BulkLoad: &rplustree.BulkLoadConfig{
				RecordBytes: 36,
				MemoryBytes: mem,
			},
		})
		if err != nil {
			return nil, err
		}
		s := dataset.AgrawalStream(records, cfg.Seed)
		for {
			batch := s.NextBatch(10000)
			if len(batch) == 0 {
				break
			}
			if err := rt.LoadBuffered(batch); err != nil {
				return nil, err
			}
		}
		if err := rt.Sync(); err != nil {
			return nil, err
		}
		reads, writes := rt.IOStats()
		res.Rows = append(res.Rows, Fig8bRow{MemoryBytes: mem, IOs: reads + writes})
	}
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig8bResult) Print(w io.Writer) {
	fprintf(w, "Figure 8(b): explicit I/O vs memory budget (%d records)\n", r.Records)
	fprintf(w, "%14s %12s %18s\n", "memory", "I/Os", "vs next larger")
	for i, row := range r.Rows {
		ratio := ""
		if i > 0 && r.Rows[i-1].IOs > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(row.IOs)/float64(r.Rows[i-1].IOs))
		}
		fprintf(w, "%12dKB %12d %18s\n", row.MemoryBytes>>10, row.IOs, ratio)
	}
}

// ---------------------------------------------------------------------------
// Figure 9: compaction cost relative to anonymization cost.

// Fig9Row is one sample size's measurement.
type Fig9Row struct {
	Records    int
	Anonymize  time.Duration
	Compaction time.Duration
	Percent    float64
}

// Fig9Result is the whole figure. Its K echoes the already validated
// Config parameter for rendering; anonylint:k-validated
// (Config.Validate rejects k < 2).
type Fig9Result struct {
	K    int
	Rows []Fig9Row
}

// Fig9 reproduces Figure 9: run the top-down algorithm on samples of
// increasing size, then compact its output as a post-processing step and
// report compaction time as a percentage of total anonymization time.
func Fig9(cfg Config, sizes []int) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const k = 10
	res := &Fig9Result{K: k}
	for _, n := range sizes {
		recs := dataset.GenerateLandsEnd(n, cfg.Seed)
		var ps []anonmodel.Partition
		anon, err := timeIt(func() error {
			var e error
			ps, e = mondrian.Anonymize(dataset.LandsEndSchema(), recs, mondrian.Options{
				Constraint: anonmodel.KAnonymity{K: k},
			})
			return e
		})
		if err != nil {
			return nil, err
		}
		comp, err := timeIt(func() error {
			compact.Partitions(ps, cfg.Workers)
			return nil
		})
		if err != nil {
			return nil, err
		}
		row := Fig9Row{Records: n, Anonymize: anon, Compaction: comp}
		if total := anon + comp; total > 0 {
			row.Percent = 100 * float64(comp) / float64(total)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the figure as a table.
func (r *Fig9Result) Print(w io.Writer) {
	fprintf(w, "Figure 9: compaction cost as %% of total anonymization time (k=%d)\n", r.K)
	fprintf(w, "%10s %14s %14s %10s\n", "records", "anonymize", "compaction", "percent")
	for _, row := range r.Rows {
		fprintf(w, "%10d %14v %14v %9.2f%%\n",
			row.Records, row.Anonymize.Round(time.Millisecond), row.Compaction.Round(time.Millisecond), row.Percent)
	}
}
