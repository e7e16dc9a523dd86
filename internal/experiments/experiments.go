// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5). Figures is the registry: each entry sets up
// the corresponding workload, runs the systems under comparison, and
// returns a Table — named columns, one row per plotted point, printed
// in the shape of the paper's plot. Run is the way in for
// cmd/experiments, the tests and the repository-root benchmarks, which
// time the heavy parts.
//
// Scale note: the paper ran the Lands End data set (4.59M records) and
// a 100M-record synthetic set on 2007 hardware. Defaults here are
// scaled down so the full suite runs in CI minutes; every experiment
// accepts the paper's full sizes through Config. What is reproduced is
// the *shape* of each result — who wins, by what factor, where the
// curves bend — as DESIGN.md specifies.
package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
)

// Column is one named column of a Table.
type Column struct {
	Name string
	// Format is the fmt format of one cell — a verb with a width, which
	// the header shares, between optional literals ("%12dKB", "| %14.0f").
	// A column without one is carried as data and not printed.
	Format string
}

// Table is one figure's result.
type Table struct {
	Title   string
	Notes   []string // printed under the title, a line each
	Columns []Column
	// Rows hold one cell per column: an int, int64, float64 or
	// time.Duration (printed rounded to the millisecond) where the
	// column is a measurement, a string where it is a label, nil where
	// the row has no value.
	Rows [][]any
}

// Col returns the named column as numbers — a duration in seconds, NaN
// where a cell is a label or missing — or nil when there is no such
// column.
func (t *Table) Col(name string) []float64 {
	for i, c := range t.Columns {
		if c.Name != name {
			continue
		}
		out := make([]float64, len(t.Rows))
		for r, row := range t.Rows {
			switch v := row[i].(type) {
			case int:
				out[r] = float64(v)
			case int64:
				out[r] = float64(v)
			case float64:
				out[r] = v
			case time.Duration:
				out[r] = v.Seconds()
			default:
				out[r] = math.NaN()
			}
		}
		return out
	}
	return nil
}

// Print renders the table: title, notes, header, rows.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintln(w, t.Title)
	for _, note := range t.Notes {
		fmt.Fprintln(w, note)
	}
	var line []string
	for _, c := range t.Columns {
		if c.Format != "" {
			line = append(line, c.pad(c.Name))
		}
	}
	fmt.Fprintln(w, strings.Join(line, " "))
	for _, row := range t.Rows {
		line = line[:0]
		for i, c := range t.Columns {
			if c.Format == "" {
				continue
			}
			switch v := row[i].(type) {
			case nil:
				line = append(line, c.pad(""))
			case time.Duration:
				line = append(line, fmt.Sprintf(c.Format, v.Round(time.Millisecond)))
			default:
				line = append(line, fmt.Sprintf(c.Format, v))
			}
		}
		fmt.Fprintln(w, strings.Join(line, " "))
	}
}

// cellFormat splits a Column.Format into literal prefix, alignment
// flag, width and literal suffix.
var cellFormat = regexp.MustCompile(`^(.*?)%(-?)(\d+)(?:\.\d+)?[a-z](.*)$`)

// pad lays s out as one of c's cells: after the format's literal
// prefix, in the width of its verb and literal suffix together.
func (c Column) pad(s string) string {
	m := cellFormat.FindStringSubmatch(c.Format)
	if m == nil {
		return s
	}
	width, _ := strconv.Atoi(m[3])
	width += len(strings.ReplaceAll(m[4], "%%", "%"))
	if m[2] == "-" {
		width = -width
	}
	return m[1] + fmt.Sprintf("%*s", width, s)
}

// Args are the sweep parameters the command line can override. A figure
// reads the ones its registry entry names; zero values select its
// defaults, which scale with Config.Records.
type Args struct {
	Sizes  []int // record counts of a data-size sweep
	Memory int   // memory budget in bytes
}

// Figure is one entry of the registry.
type Figure struct {
	ID string
	// run measures the figure under a Config that Run has resolved.
	run func(Config, Args) (*Table, error)
	// Sizes and Memory say which Args the figure reads.
	Sizes, Memory bool
}

// Figures is the registry, in the paper's order: the one place a figure
// is declared. The last three are extensions beyond Section 5.
var Figures = []Figure{
	{ID: "fig7a", run: fig7a},
	{ID: "fig7b", run: fig7b},
	{ID: "fig8a", run: fig8a, Sizes: true, Memory: true},
	{ID: "fig8b", run: fig8b, Memory: true},
	{ID: "fig9", run: fig9, Sizes: true},
	{ID: "fig10", run: fig10},
	{ID: "fig11", run: fig11},
	{ID: "fig12a", run: fig12a},
	{ID: "fig12b", run: fig12b},
	{ID: "fig12c", run: fig12c},
	{ID: "fig12d", run: fig12d},
	{ID: "churn", run: extChurn},
	{ID: "churn-durable", run: extChurnDurable},
	{ID: "scale", run: extScale, Sizes: true},
}

// FigureIDs lists the registry's ids, in order: those pick selects, or
// all of them when pick is nil.
func FigureIDs(pick func(Figure) bool) []string {
	var ids []string
	for _, f := range Figures {
		if pick == nil || pick(f) {
			ids = append(ids, f.ID)
		}
	}
	return ids
}

// Run runs the registered figure called id: cfg's defaults are applied
// and the result validated before any data is generated.
func Run(id string, cfg Config, args Args) (*Table, error) {
	for _, f := range Figures {
		if f.ID == id {
			cfg = cfg.withDefaults()
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return f.run(cfg, args)
		}
	}
	return nil, fmt.Errorf("unknown experiment id %q (want one of %s)", id, strings.Join(FigureIDs(nil), " "))
}

// Config parameterizes the experiment suite.
type Config struct {
	// Records is the Lands End-like data set size (the paper: 4591581).
	Records int
	// Ks are the anonymity levels of Figures 7(a), 10 and 12(a)
	// (the paper: 5, 10, 25, 50, 100, 250, 500, 1000).
	Ks []int
	// BaseK is the R⁺-tree build granularity (the paper: 5).
	BaseK int
	// BatchSize is the incremental batch size of Figures 7(b) and 11
	// (the paper: 500000).
	BatchSize int
	// Batches bounds how many incremental batches run.
	Batches int
	// Queries is the workload size of Figure 12 (the paper: 1000).
	Queries int
	// Seed makes everything reproducible.
	Seed int64
}

// Defaults returns a configuration that finishes the whole suite in CI
// minutes while preserving every shape. The paper's exact values are in
// the comments on each field of Config.
func Defaults() Config {
	return Config{
		Records:   30000,
		Ks:        []int{5, 10, 25, 50, 100, 250, 500, 1000},
		BaseK:     5,
		BatchSize: 3000,
		Batches:   8,
		Queries:   400,
		Seed:      1,
	}
}

// Validate rejects negative sizes (0 means the default) and anonymity
// parameters that provide no anonymity: after defaulting, BaseK and
// every published granularity in Ks must be >= 2, and derived
// granularities cannot fall below the build granularity.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Records", c.Records}, {"BatchSize", c.BatchSize}, {"Batches", c.Batches}, {"Queries", c.Queries}} {
		if f.v < 0 {
			return fmt.Errorf("experiments: %s %d is negative", f.name, f.v)
		}
	}
	c = c.withDefaults()
	if c.BaseK < 2 {
		return fmt.Errorf("experiments: BaseK %d provides no anonymity; need >= 2", c.BaseK)
	}
	for _, k := range c.Ks {
		if k < 2 {
			return fmt.Errorf("experiments: granularity k=%d provides no anonymity; need >= 2", k)
		}
		if k < c.BaseK {
			return fmt.Errorf("experiments: granularity k=%d below build BaseK %d", k, c.BaseK)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if len(c.Ks) == 0 {
		c.Ks = d.Ks
	}
	c.Records = cmp.Or(c.Records, d.Records)
	c.BaseK = cmp.Or(c.BaseK, d.BaseK)
	c.BatchSize = cmp.Or(c.BatchSize, d.BatchSize)
	c.Batches = cmp.Or(c.Batches, d.Batches)
	c.Queries = cmp.Or(c.Queries, d.Queries)
	c.Seed = cmp.Or(c.Seed, d.Seed)
	return c
}

// landsEnd materializes the experiment's Lands End-like table.
func (c Config) landsEnd() []attr.Record {
	return dataset.GenerateLandsEnd(c.Records, c.Seed)
}

// newRTree builds the standard R⁺-tree anonymizer for the experiments:
// base-k index, default (min-margin) splits, tuple loading unless bulk
// is requested.
func (c Config) newRTree(bulk bool) (*core.RTreeAnonymizer, error) {
	cfg := core.RTreeConfig{
		Schema: dataset.LandsEndSchema(),
		BaseK:  c.BaseK,
	}
	if bulk {
		cfg.BulkLoad = &rplustree.BulkLoadConfig{RecordBytes: 32}
	}
	return core.NewRTreeAnonymizer(cfg)
}

// mondrian runs the top-down baseline at anonymity k over recs, which
// it reorders. Callers pass granularities from a validated Config;
// anonylint:k-validated (Config.Validate rejects k < 2, and
// mondrian.Anonymize re-validates the constraint).
func (c Config) mondrian(recs []attr.Record, k int) ([]anonmodel.Partition, error) {
	md, err := core.New(core.Mondrian, core.Params{
		Schema:     dataset.LandsEndSchema(),
		Constraint: anonmodel.KAnonymity{K: k},
	})
	if err != nil {
		return nil, err
	}
	return md.Anonymize(recs)
}
