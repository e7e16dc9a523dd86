// Command experiments regenerates the paper's evaluation tables and
// figures (Section 5). Each experiment prints the rows of the
// corresponding plot; EXPERIMENTS.md records a full run next to the
// paper's reported shapes.
//
// Usage:
//
//	experiments -fig all
//	experiments -fig fig7a -records 200000
//	experiments -fig fig8b -records 100000
//	experiments -fig fig12c -queries 1000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"spatialanon/internal/experiments"
)

// readers names the registered experiments pick selects (nil: all).
func readers(pick func(experiments.Figure) bool) string {
	return strings.Join(experiments.FigureIDs(pick), " ")
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "experiment id: "+readers(nil)+", comma-separated, or all")
		records = fs.Int("records", 0, "Lands End-like data set size (0 = suite default; paper: 4591581)")
		queries = fs.Int("queries", 0, "query workload size (0 = default; paper: 1000)")
		ksFlag  = fs.String("ks", "", "comma-separated anonymity levels (default 5,10,25,50,100,250,500,1000)")
		batch   = fs.Int("batch", 0, "incremental batch size (0 = default; paper: 500000)")
		batches = fs.Int("batches", 0, "number of incremental batches")
		seed    = fs.Int64("seed", 0, "workload seed")
		sizes   = fs.String("sizes", "", readers(func(f experiments.Figure) bool { return f.Sizes })+": comma-separated record counts (default: each figure's own steps around -records)")
		memMB   = fs.Int("mem", 0, readers(func(f experiments.Figure) bool { return f.Memory })+": memory budget in MB (fig8b sweeps down from it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{
		Records:   *records,
		Queries:   *queries,
		BatchSize: *batch,
		Batches:   *batches,
		Seed:      *seed,
	}
	if *ksFlag != "" {
		ks, err := parseInts(*ksFlag)
		if err != nil {
			return fmt.Errorf("-ks: %w", err)
		}
		cfg.Ks = ks
	}

	sweep := experiments.Args{Memory: *memMB << 20}
	if *sizes != "" {
		var err error
		if sweep.Sizes, err = parseInts(*sizes); err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
	}

	ids := strings.Split(*fig, ",")
	if *fig == "all" {
		ids = experiments.FigureIDs(nil)
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		res, err := experiments.Run(strings.TrimSpace(id), cfg, sweep)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		res.Print(stdout)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}
