package experiments

import (
	"fmt"
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

// fig7a reproduces Figure 7(a): the R⁺-tree is built once at base k and
// every granularity is derived by a leaf scan, so its cost is flat in
// k; Mondrian re-runs per k and gets cheaper as k grows. The R⁺-tree
// time of a row is the (amortized) build plus that k's scan.
func fig7a(cfg Config, _ Args) (*Table, error) {
	recs := cfg.landsEnd()

	rt, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := rt.Load(recs); err != nil {
		return nil, err
	}
	build := time.Since(start)

	res := &Table{
		Title: fmt.Sprintf("Figure 7(a): bulk anonymization time, %d Lands End-like records", len(recs)),
		Notes: []string{fmt.Sprintf("(R+-tree = one base-k buffer-tree build %v + per-k leaf scan)", build.Round(time.Millisecond))},
		Columns: []Column{
			{"k", "%8d"}, {"R+-tree", "%14v"}, {"top-down", "%14v"}, {"speedup", "%8.1fx"},
			{"R+-tree parts", ""}, {"top-down parts", ""},
		},
	}
	for _, k := range cfg.Ks {
		start := time.Now()
		ps, err := rt.Partitions(k)
		if err != nil {
			return nil, err
		}
		scan := time.Since(start)

		cp := make([]attr.Record, len(recs))
		copy(cp, recs)
		start = time.Now()
		mp, err := cfg.mondrian(cp, k)
		if err != nil {
			return nil, err
		}
		td := time.Since(start)
		speedup := 0.0
		if build+scan > 0 {
			speedup = float64(td) / float64(build+scan)
		}
		res.Rows = append(res.Rows, []any{k, build + scan, td, speedup, len(ps), len(mp)})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 7(b): incremental anonymization time per batch (k = 10).

// fig7b reproduces Figure 7(b): batches of records are inserted into the
// live index and the view rescanned; the comparison column re-anonymizes
// the entire prefix with the top-down algorithm, which is its only
// option ("since a top-down approach is not incremental, it would have
// to re-anonymize the entire data set on each batch insert").
func fig7b(cfg Config, _ Args) (*Table, error) {
	const k = 10
	recs := dataset.GenerateLandsEnd(cfg.BatchSize*cfg.Batches, cfg.Seed)

	rt, err := cfg.newRTree(true)
	if err != nil {
		return nil, err
	}
	res := &Table{
		Title:   fmt.Sprintf("Figure 7(b): incremental anonymization time per batch (k=%d)", k),
		Columns: []Column{{"batch", "%7d"}, {"records", "%10d"}, {"incremental", "%14v"}, {"re-anonymize all", "%18v"}},
	}
	for b := 0; b < cfg.Batches; b++ {
		batch := recs[b*cfg.BatchSize : (b+1)*cfg.BatchSize]
		start := time.Now()
		if err := rt.Load(batch); err != nil {
			return nil, err
		}
		if _, err := rt.Partitions(k); err != nil {
			return nil, err
		}
		inc := time.Since(start)
		prefix := make([]attr.Record, (b+1)*cfg.BatchSize)
		copy(prefix, recs[:len(prefix)])
		start = time.Now()
		if _, err := cfg.mondrian(prefix, k); err != nil {
			return nil, err
		}
		re := time.Since(start)
		res.Rows = append(res.Rows, []any{b + 1, len(prefix), inc, re})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 8(a): elapsed time vs data set size; 8(b): I/O vs memory.

// loadAgrawal streams n synthetic (Agrawal) records through a
// buffer-tree loader allotted memoryBytes and leaves the index synced.
// It returns the time spent loading and syncing, which leaves out the
// time spent generating the records.
func (c Config) loadAgrawal(n, memoryBytes int) (*core.RTreeAnonymizer, time.Duration, error) {
	rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema:   dataset.AgrawalSchema(),
		BaseK:    c.BaseK,
		BulkLoad: &rplustree.BulkLoadConfig{RecordBytes: 36, MemoryBytes: memoryBytes},
	})
	if err != nil {
		return nil, 0, err
	}
	var elapsed time.Duration
	s := dataset.AgrawalStream(n, c.Seed)
	for batch := s.NextBatch(10000); len(batch) > 0; batch = s.NextBatch(10000) {
		start := time.Now()
		if err := rt.LoadBuffered(batch); err != nil {
			return nil, 0, err
		}
		elapsed += time.Since(start)
	}
	start := time.Now()
	if err := rt.Sync(); err != nil {
		return nil, 0, err
	}
	return rt, elapsed + time.Since(start), nil
}

// fig8a reproduces Figure 8(a): buffer-tree bulk anonymization of the
// synthetic data set at increasing sizes (default: six doublings from
// Records/8) under a fixed memory budget (default 4 MB); the paper
// swept 1M→100M under 256 MB.
func fig8a(cfg Config, args Args) (*Table, error) {
	n := cfg.Records
	sizes, memory := args.Sizes, args.Memory
	if len(sizes) == 0 {
		sizes = []int{n / 8, n / 4, n / 2, n, n * 2, n * 4}
	}
	if memory == 0 {
		memory = 4 << 20
	}
	res := &Table{
		Title:   fmt.Sprintf("Figure 8(a): buffer-tree anonymization scaling (memory %d MB)", memory>>20),
		Columns: []Column{{"records", "%12d"}, {"elapsed", "%14v"}, {"I/Os", "%12d"}},
	}
	for _, n := range sizes {
		rt, elapsed, err := cfg.loadAgrawal(n, memory)
		if err != nil {
			return nil, err
		}
		if _, err := rt.Partitions(0); err != nil {
			return nil, err
		}
		reads, writes := rt.IOStats()
		res.Rows = append(res.Rows, []any{n, elapsed, reads + writes})
	}
	return res, nil
}

// fig8b reproduces Figure 8(b): the number of explicit I/O operations
// performed while bulk anonymizing a fixed synthetic data set, as the
// memory allotted to the process halves three times (from 8 MB by
// default). The paper's headline: halving memory increases I/O by less
// than 2x.
func fig8b(cfg Config, args Args) (*Table, error) {
	top := args.Memory
	if top == 0 {
		top = 8 << 20
	}
	res := &Table{
		Title:   fmt.Sprintf("Figure 8(b): explicit I/O vs memory budget (%d records)", cfg.Records),
		Columns: []Column{{"memory", "%12dKB"}, {"I/Os", "%12d"}, {"vs next larger", "%17.2fx"}},
	}
	var prev int64
	for _, mem := range []int{top, top / 2, top / 4, top / 8} {
		rt, _, err := cfg.loadAgrawal(cfg.Records, mem)
		if err != nil {
			return nil, err
		}
		reads, writes := rt.IOStats()
		row := []any{mem >> 10, reads + writes, nil}
		if prev > 0 {
			row[2] = float64(reads+writes) / float64(prev)
		}
		res.Rows = append(res.Rows, row)
		prev = reads + writes
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 9: compaction cost relative to anonymization cost.

// fig9 reproduces Figure 9: run the top-down algorithm on samples of
// increasing size (default: four doublings from Records/4), then
// compact its output as a post-processing step and report compaction
// time as a percentage of total anonymization time.
func fig9(cfg Config, args Args) (*Table, error) {
	const k = 10
	sizes := args.Sizes
	if len(sizes) == 0 {
		sizes = []int{cfg.Records / 4, cfg.Records / 2, cfg.Records, cfg.Records * 2}
	}
	res := &Table{
		Title:   fmt.Sprintf("Figure 9: compaction cost as %% of total anonymization time (k=%d)", k),
		Columns: []Column{{"records", "%10d"}, {"anonymize", "%14v"}, {"compaction", "%14v"}, {"percent", "%9.2f%%"}},
	}
	for _, n := range sizes {
		recs := dataset.GenerateLandsEnd(n, cfg.Seed)
		start := time.Now()
		ps, err := mondrian.Anonymize(dataset.LandsEndSchema(), recs, mondrian.Options{
			Constraint: anonmodel.KAnonymity{K: k},
		})
		if err != nil {
			return nil, err
		}
		anon := time.Since(start)
		start = time.Now()
		compact.Partitions(ps)
		comp := time.Since(start)
		percent := 0.0
		if total := anon + comp; total > 0 {
			percent = 100 * float64(comp) / float64(total)
		}
		res.Rows = append(res.Rows, []any{n, anon, comp, percent})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Extension: the asymptotic claim behind Figure 7(a).

// extScale shows how the R⁺-tree vs top-down gap moves with data size:
// Figure 7(a) at k=10, once per size of the sweep (default Records and
// 4·Records; the paper's claim is about millions).
func extScale(cfg Config, args Args) (*Table, error) {
	const k = 10
	sizes := args.Sizes
	if len(sizes) == 0 {
		sizes = []int{cfg.Records, 4 * cfg.Records}
	}
	res := &Table{
		Title:   fmt.Sprintf("Extension: scale trend, R+-tree vs top-down as the data grows (k=%d)", k),
		Columns: []Column{{"records", "%10d"}, {"R+-tree", "%14v"}, {"top-down", "%14v"}, {"ratio", "%7.2fx"}},
	}
	cfg.Ks = []int{k}
	for _, n := range sizes {
		cfg.Records = n
		at, err := fig7a(cfg, Args{})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, append([]any{n}, at.Rows[0][1:4]...))
	}
	return res, nil
}
