package experiments

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// testCfg is small enough for unit tests while keeping every shape.
func testCfg() Config {
	return Config{
		Records:   4000,
		Ks:        []int{5, 10, 25, 50},
		BaseK:     5,
		BatchSize: 800,
		Batches:   4,
		Queries:   120,
		Seed:      7,
	}
}

// figureCase is what the suite asserts about one registered figure.
type figureCase struct {
	// title is what the table's title must name.
	title string
	// tune departs from testCfg() and the zero Args where a figure's
	// shape needs it.
	tune func(*Config, *Args)
	// checks are the figure's shape assertions, in order.
	checks []check
}

type check struct {
	name string
	ok   func(*Table) error
}

// where returns the rows of tab whose col cell equals label.
func where(tab *Table, col string, label any) *Table {
	out := &Table{Columns: tab.Columns}
	for i, c := range tab.Columns {
		if c.Name != col {
			continue
		}
		for _, row := range tab.Rows {
			if row[i] == label {
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out
}

// rows asserts the row count.
func rows(n int) check {
	return check{fmt.Sprintf("%d rows", n), func(tab *Table) error {
		if len(tab.Rows) != n {
			return fmt.Errorf("%d rows", len(tab.Rows))
		}
		return nil
	}}
}

// pairwise asserts ok(a[i], b[i]) for every row of columns a and b of
// the sub-tables the two selectors pick.
func pairwise(name string, a, b func(*Table) []float64, ok func(x, y float64) bool) check {
	return check{name, func(tab *Table) error {
		xs, ys := a(tab), b(tab)
		if len(xs) == 0 || len(xs) != len(ys) {
			return fmt.Errorf("columns of %d and %d rows", len(xs), len(ys))
		}
		for i := range xs {
			if !ok(xs[i], ys[i]) {
				return fmt.Errorf("row %d: %v vs %v", i, xs[i], ys[i])
			}
		}
		return nil
	}}
}

// col selects a column; of selects it within one system's rows.
func col(name string) func(*Table) []float64 {
	return func(tab *Table) []float64 { return tab.Col(name) }
}

func of(system, name string) func(*Table) []float64 {
	return func(tab *Table) []float64 { return where(tab, "system", system).Col(name) }
}

// successive asserts ok(row i+1, row i) down a column of two rows or
// more.
func successive(name, c string, ok func(next, prev float64) bool) check {
	return pairwise(name,
		func(tab *Table) []float64 { v := tab.Col(c); return v[min(1, len(v)):] },
		func(tab *Table) []float64 { v := tab.Col(c); return v[:max(0, len(v)-1)] },
		ok)
}

// each asserts ok(v) for every cell of a column.
func each(name, c string, ok func(v float64) bool) check {
	return pairwise(name, col(c), col(c), func(v, _ float64) bool { return ok(v) })
}

const slack = 1e-9

var figureCases = map[string]figureCase{
	"fig7a": {title: "Figure 7(a)", checks: []check{
		rows(4),
		each("R+-tree times positive", "R+-tree", func(v float64) bool { return v > 0 }),
		each("top-down times positive", "top-down", func(v float64) bool { return v > 0 }),
		each("R+-tree publishes partitions", "R+-tree parts", func(v float64) bool { return v > 0 }),
		each("top-down publishes partitions", "top-down parts", func(v float64) bool { return v > 0 }),
		// Larger k -> fewer partitions.
		successive("R+-tree partitions non-increasing in k", "R+-tree parts", func(next, prev float64) bool { return next <= prev }),
		// The R+-tree cost is one build + cheap scans: the spread across
		// k must be small relative to the build (flat curve).
		{"R+-tree time flat within 3x across k", func(tab *Table) error {
			lo, hi := slices.Min(tab.Col("R+-tree")), slices.Max(tab.Col("R+-tree"))
			if hi > 3*lo {
				return fmt.Errorf("min %vs max %vs", lo, hi)
			}
			return nil
		}},
	}},
	"fig7b": {title: "Figure 7(b)", checks: []check{
		rows(4),
		{"last batch covers every record", func(tab *Table) error {
			if got := tab.Col("records")[3]; got != 3200 {
				return fmt.Errorf("final total %v", got)
			}
			return nil
		}},
	}},
	"fig8a": {
		title: "Figure 8(a)",
		tune:  func(_ *Config, a *Args) { a.Sizes, a.Memory = []int{2000, 4000, 8000}, 1<<20 },
		checks: []check{
			rows(3),
			successive("sizes ascend", "records", func(next, prev float64) bool { return next > prev }),
		},
	},
	"fig8b": {
		title: "Figure 8(b)",
		// Memory sweep from roomy to tight: 4 MB down to 512 KB.
		tune: func(c *Config, a *Args) { c.Records, a.Memory = 20000, 1<<22 },
		checks: []check{
			rows(4),
			successive("I/O non-decreasing as memory halves", "I/Os", func(next, prev float64) bool { return next >= prev }),
			// The paper's headline observation.
			successive("halving memory less than ~doubles I/O", "I/Os", func(next, prev float64) bool { return prev == 0 || next <= 2.5*prev }),
		},
	},
	"fig9": {
		title: "Figure 9",
		tune:  func(_ *Config, a *Args) { a.Sizes = []int{2000, 4000} },
		checks: []check{
			rows(2),
			each("compaction share within [0, 50] %", "percent", func(v float64) bool { return v >= 0 && v <= 50 }),
		},
	},
	"fig10": {title: "Figure 10", checks: []check{
		rows(12),
		// Figure 10(a).
		pairwise("compaction leaves Mondrian's DM exactly unchanged", of("mondrian", "DM"), of("mondrian+compact", "DM"), func(md, mc float64) bool { return md == mc }),
		// Figure 10(b): the R+-tree beats uncompacted Mondrian;
		// compaction closes most of the gap.
		pairwise("R+-tree CM better than Mondrian's", of("rtree", "CM"), of("mondrian", "CM"), func(rt, md float64) bool { return rt < md }),
		pairwise("compaction does not worsen CM", of("mondrian+compact", "CM"), of("mondrian", "CM"), func(mc, md float64) bool { return mc <= md }),
		// Figure 10(c): same ordering for KL.
		pairwise("compaction does not worsen KL", of("mondrian+compact", "KL"), of("mondrian", "KL"), func(mc, md float64) bool { return mc <= md+slack }),
		pairwise("R+-tree KL no worse than Mondrian's", of("rtree", "KL"), of("mondrian", "KL"), func(rt, md float64) bool { return rt <= md+slack }),
	}},
	"fig11": {title: "Figure 11", checks: []check{
		rows(4),
		// The paper: incremental quality comparable to re-anonymized —
		// in fact better on their data. Allow a generous band.
		pairwise("incremental CM within 1.5x of re-anonymized", col("inc CM"), col("re CM"), func(inc, re float64) bool { return inc <= 1.5*re }),
	}},
	"fig12a": {
		title: "Figure 12(a)",
		// Leaf-scan unions get ragged when k approaches n/(leaves per
		// partition x dims); use a larger data set than the other
		// figures so the high-k rows behave as they do at paper scale.
		tune: func(c *Config, _ *Args) { c.Records = 10000 },
		checks: []check{
			rows(12),
			pairwise("compaction never increases error", of("mondrian+compact", "mean error"), of("mondrian", "mean error"), func(mc, md float64) bool { return mc <= md+slack }),
			// At this scale high-k leaf-scan unions can be slightly
			// ragged, so the cross-system comparison gets slack...
			pairwise("R+-tree error within 1.3x of Mondrian's", of("rtree", "mean error"), of("mondrian", "mean error"), func(rt, md float64) bool { return rt <= 1.3*md }),
			// ...but at the base k the R+-tree partitions are raw leaf
			// MBRs and must win outright.
			{"R+-tree wins outright at the base k", func(tab *Table) error {
				rt, md := of("rtree", "mean error")(tab)[0], of("mondrian", "mean error")(tab)[0]
				if rt >= md {
					return fmt.Errorf("rtree %v, mondrian %v", rt, md)
				}
				return nil
			}},
		},
	},
	"fig12b": {title: "Figure 12(b)", checks: []check{
		rows(15),
		{"per system, error does not grow from the lowest to the highest populated selectivity bucket", func(tab *Table) error {
			for _, sys := range []string{"rtree", "mondrian", "mondrian+compact"} {
				sub := where(tab, "system", sys)
				queries, mean := sub.Col("queries"), sub.Col("mean error")
				first, last := -1, -1
				for i, q := range queries {
					if q == 0 {
						continue
					}
					if first < 0 {
						first = i
					}
					last = i
				}
				if first >= 0 && mean[last] > mean[first] {
					return fmt.Errorf("%s: %v", sys, mean)
				}
			}
			return nil
		}},
	}},
	"fig12c": {title: "Figure 12(c)", checks: []check{
		rows(4),
		pairwise("biased tree wins on its own workload", col("biased"), col("unbiased"), func(b, u float64) bool { return b <= u+slack }),
	}},
	"fig12d": {title: "Figure 12(d)", checks: []check{rows(len(selectivityBounds) + 1)}},
	"churn": {
		title: "churn",
		tune:  func(c *Config, _ *Args) { c.Records = 3000 },
		checks: []check{
			rows(8),
			each("live set keeps its size", "live", func(v float64) bool { return v == 3000 }),
			// The churned index may be somewhat looser than a fresh
			// build, but it must not degrade unboundedly.
			pairwise("churned CM within 2x of rebuilt", col("churned CM"), col("rebuilt CM"), func(ch, re float64) bool { return re == 0 || ch <= 2*re }),
		},
	},
	"churn-durable": {
		title: "durable churn",
		tune:  func(c *Config, _ *Args) { c.Records = 3000 },
		checks: []check{
			rows(6),
			each("every recovery restores the live set", "live", func(v float64) bool { return v == 3000 }),
			each("every recovery publishes", "parts", func(v float64) bool { return v > 0 }),
		},
	},
	"scale": {title: "scale trend", checks: []check{
		rows(2),
		successive("sizes ascend", "records", func(next, prev float64) bool { return next > prev }),
		each("ratio measured", "ratio", func(v float64) bool { return v > 0 }),
	}},
}

// ran caches each figure's table, so TestFigures and the figure's own
// named test below share one run.
var ran = map[string]*Table{}

// testFigure runs one registered figure under its case — once per
// process — and applies every check.
func testFigure(t *testing.T, id string) {
	fc, ok := figureCases[id]
	if !ok {
		t.Fatalf("%s: no case", id)
	}
	tab := ran[id]
	if tab == nil {
		cfg, args := testCfg(), Args{}
		if fc.tune != nil {
			fc.tune(&cfg, &args)
		}
		var err error
		if tab, err = Run(id, cfg, args); err != nil {
			t.Fatal(err)
		}
		ran[id] = tab
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	if !strings.Contains(tab.Title, fc.title) || !strings.HasPrefix(buf.String(), tab.Title+"\n") {
		t.Errorf("title %q does not name %q, or is not what prints first", tab.Title, fc.title)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2+len(tab.Notes)+len(tab.Rows) {
		t.Errorf("printed %d lines for %d notes and %d rows", got, len(tab.Notes), len(tab.Rows))
	}
	for _, c := range fc.checks {
		if err := c.ok(tab); err != nil {
			t.Errorf("%s: %v\n%s", c.name, err, buf.String())
		}
	}
}

// TestFigures runs every registered figure at testCfg() sizes: each
// runs, its title names it, and its shape checks hold.
func TestFigures(t *testing.T) {
	for _, f := range Figures {
		t.Run(f.ID, func(t *testing.T) { testFigure(t, f.ID) })
	}
	if len(figureCases) != len(Figures) {
		t.Errorf("%d cases for %d registered figures", len(figureCases), len(Figures))
	}
}

// The names the figures' shape tests went by before TestFigures, kept
// so each figure can still be run, and is still reported, alone.
func TestFig7aShape(t *testing.T)    { testFigure(t, "fig7a") }
func TestFig7bShape(t *testing.T)    { testFigure(t, "fig7b") }
func TestFig8aShape(t *testing.T)    { testFigure(t, "fig8a") }
func TestFig8bShape(t *testing.T)    { testFigure(t, "fig8b") }
func TestFig9Shape(t *testing.T)     { testFigure(t, "fig9") }
func TestFig10Shapes(t *testing.T)   { testFigure(t, "fig10") }
func TestFig11Shape(t *testing.T)    { testFigure(t, "fig11") }
func TestFig12aShape(t *testing.T)   { testFigure(t, "fig12a") }
func TestFig12bShape(t *testing.T)   { testFigure(t, "fig12b") }
func TestFig12cShape(t *testing.T)   { testFigure(t, "fig12c") }
func TestFig12dShape(t *testing.T)   { testFigure(t, "fig12d") }
func TestExtChurnShape(t *testing.T) { testFigure(t, "churn") }

// TestTablePrint pins the layout rules on a hand-built table: a header
// cell takes its column's width, literals included; a nil cell prints
// as blanks; a column without a format is not printed; durations round
// to the millisecond.
func TestTablePrint(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Notes:   []string{"(note)"},
		Columns: []Column{{"name", "%-6s"}, {"took", "%8v"}, {"hidden", ""}, {"mem", "%4dKB"}, {"vs", "| %5.2fx"}, {"pct", "%6.1f%%"}},
		Rows: [][]any{
			{"a", 1234567 * time.Nanosecond, 9, 512, nil, 12.34},
			{"b", 2 * time.Second, 9, 64, 1.5, 100.0},
		},
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	want := "T\n(note)\n" +
		"name       took    mem |     vs     pct\n" +
		"a           1ms  512KB |          12.3%\n" +
		"b            2s   64KB |  1.50x  100.0%\n"
	if buf.String() != want {
		t.Fatalf("printed\n%s\nwant\n%s", buf.String(), want)
	}
	if got := tab.Col("took"); len(got) != 2 || got[1] != 2 {
		t.Fatalf("Col(took) = %v", got)
	}
	if got := tab.Col("vs"); !math.IsNaN(got[0]) || got[1] != 1.5 {
		t.Fatalf("Col(vs) = %v", got)
	}
	if tab.Col("nope") != nil || tab.Col("hidden")[0] != 9 {
		t.Fatal("Col on a missing or an unprinted column")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c = c.withDefaults()
	d := Defaults()
	if c.Records != d.Records || c.BaseK != d.BaseK || len(c.Ks) != len(d.Ks) {
		t.Fatalf("defaults not applied: %+v", c)
	}
	// Partial configs keep their explicit values.
	c2 := Config{Records: 999}.withDefaults()
	if c2.Records != 999 || c2.BaseK != d.BaseK {
		t.Fatalf("partial defaults wrong: %+v", c2)
	}
}
