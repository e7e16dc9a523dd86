// Command anonykit anonymizes a table with any algorithm in the
// repository and reports the quality of the result.
//
// Usage:
//
//	anonykit -dataset patients -n 2000 -algo rtree -k 10
//	anonykit -dataset landsend -in sales.csv -algo mondrian -k 25 -compact -out anon.csv
//	anonykit -dataset patients -n 5000 -algo rtree -k 5 -l 3
//	anonykit -dataset landsend -n 10000 -algo rtree -k 10 -bias zipcode
//	anonykit -dataset patients -n 5000 -algo rtree -k 5 -granularities 5,20,50 -out rel.csv
//	anonykit -dataset patients -n 2000 -algo rtree -k 10 -persist ./store
//	anonykit reopen -persist ./store -dataset patients -k 10
//
// The anonymized table is written as CSV to -out (default stdout); the
// quality report (partition count, discernibility, certainty, KL
// divergence) goes to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/quality"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "anonykit:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "reopen" {
		return runReopen(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("anonykit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dsName  = fs.String("dataset", "patients", "schema/generator: "+dataset.Names())
		n       = fs.Int("n", 1000, "records to generate when -in is not given")
		seed    = fs.Int64("seed", 1, "generator seed")
		inPath  = fs.String("in", "", "input CSV (columns must match the -dataset schema)")
		outPath = fs.String("out", "", "output CSV path (default stdout)")
		algo    = fs.String("algo", core.RTree, "algorithm: "+strings.Join(core.AlgorithmNames(), ", "))
		k       = fs.Int("k", 10, "anonymity parameter k")
		l       = fs.Int("l", 0, "require distinct l-diversity on the sensitive attribute")
		alpha   = fs.Float64("alpha", 0, "require (alpha,k)-anonymity on the sensitive attribute")
		doComp  = fs.Bool("compact", false, "compact the output partitions (Section 4); the index algorithms publish bounding boxes already and ignore it")
		bias    = fs.String("bias", "", core.RTree+" only: comma-separated attributes the split policy should favor")
		keyAttr = fs.String("key", "", core.BPTree+" only: the attribute to index on (default: first attribute)")
		persist = fs.String("persist", "", core.RTree+" only: build inside a durable store at this directory (WAL + checkpoint; recover with `anonykit reopen`)")
		grans   = fs.String("granularities", "", core.RTree+" only: comma-separated k values; emits one table per granularity (out.k<N>.csv) from a single index, verified collusion-safe")
		quiet   = fs.Bool("quiet", false, "suppress the quality report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	schema, stream, err := dataset.Lookup(*dsName)
	if err != nil {
		return err
	}
	ks, err := validateFlags(schema, *algo, *n, *inPath != "", *k, *l, *alpha, *bias, *keyAttr, *grans, *outPath, *persist)
	if err != nil {
		return err
	}
	var recs []attr.Record
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		recs, err = dataset.ReadCSV(f, schema)
		if err != nil {
			return err
		}
	} else {
		recs = dataset.Collect(stream(*n, *seed))
	}
	if len(recs) == 0 {
		return fmt.Errorf("no input records")
	}

	if *persist != "" {
		return runPersist(*persist, schema, recs, *k, *outPath, *quiet, stdout, stderr)
	}

	constraint, err := buildConstraint(*k, *l, *alpha)
	if err != nil {
		return err
	}
	anonymizer, err := buildAnonymizer(*algo, schema, constraint, *doComp, *bias, *keyAttr)
	if err != nil {
		return err
	}

	if len(ks) > 0 {
		return multiGranular(anonymizer.(*core.RTreeAnonymizer), schema, recs, ks, *outPath, *quiet, stderr)
	}

	ps, err := anonymizer.Anonymize(recs)
	if err != nil {
		return err
	}
	if err := anonmodel.CheckAnonymity(ps, constraint); err != nil {
		return fmt.Errorf("internal error — output violates %v: %w", constraint, err)
	}

	return writeRelease(anonymizer.Name(), constraint, schema, ps, recs, *outPath, *quiet, stdout, stderr)
}

// writeRelease writes one release as CSV — to outPath, or stdout when
// it is empty — and, unless quiet, reports its quality over recs.
func writeRelease(name string, constraint anonmodel.Constraint, schema *attr.Schema, ps []anonmodel.Partition, recs []attr.Record, outPath string, quiet bool, stdout, stderr io.Writer) error {
	if err := writeCSV(outPath, stdout, schema, ps); err != nil {
		return err
	}
	if !quiet {
		domain := attr.DomainOf(schema.Dims(), recs)
		rep := quality.Measure(schema, ps, domain)
		fmt.Fprintf(stderr, "%s: %d records -> %d partitions under %v\n",
			name, len(recs), rep.Partitions, constraint)
		fmt.Fprintf(stderr, "discernibility %.0f  certainty %.2f  KL %.4f  (GCP %.4f)\n",
			rep.Discernibility, rep.Certainty, rep.KLDivergence,
			quality.GlobalCertainty(schema, ps, domain))
	}
	return nil
}

// writeCSV writes ps as CSV to the file at path, or to stdout when path
// is empty.
func writeCSV(path string, stdout io.Writer, schema *attr.Schema, ps []anonmodel.Partition) error {
	if path == "" {
		return core.WriteCSV(stdout, schema, ps)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := core.WriteCSV(f, schema, ps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateFlags cross-checks the flag set before any records are
// generated or loaded, so a bad invocation fails in microseconds with
// one clear message instead of after an expensive load (or, worse,
// partway through writing multi-granular output files). It returns the
// parsed -granularities list (nil when the flag is absent).
func validateFlags(schema *attr.Schema, algo string, n int, haveIn bool, k, l int, alpha float64, bias, keyAttr, grans, outPath, persist string) ([]int, error) {
	if _, err := core.Lookup(algo); err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("-k must be >= 2 (k=1 is no anonymity), got %d", k)
	}
	if !haveIn && n < 1 {
		return nil, fmt.Errorf("-n must be >= 1 when generating records, got %d", n)
	}
	if l < 0 {
		return nil, fmt.Errorf("-l must be >= 0, got %d", l)
	}
	if l > 0 && alpha > 0 {
		return nil, fmt.Errorf("-l and -alpha are mutually exclusive")
	}
	if alpha != 0 && (alpha < 0 || alpha > 1) {
		return nil, fmt.Errorf("-alpha must be in (0,1], got %g", alpha)
	}
	if (l > 0 || alpha > 0) && schema.Sensitive == "" {
		return nil, fmt.Errorf("-l/-alpha need a sensitive attribute, and the chosen dataset declares none")
	}
	if bias != "" && algo != core.RTree {
		return nil, fmt.Errorf("-bias only applies to -algo %s", core.RTree)
	}
	if persist != "" {
		if algo != core.RTree {
			return nil, fmt.Errorf("-persist only applies to -algo %s (the durable store wraps the index)", core.RTree)
		}
		if l > 0 || alpha > 0 {
			return nil, fmt.Errorf("-persist supports plain k-anonymity only")
		}
		if grans != "" {
			return nil, fmt.Errorf("-persist and -granularities are mutually exclusive")
		}
	}
	if keyAttr != "" && algo != core.BPTree {
		return nil, fmt.Errorf("-key only applies to -algo %s", core.BPTree)
	}
	if grans == "" {
		return nil, nil
	}
	if algo != core.RTree {
		return nil, fmt.Errorf("-granularities requires -algo %s (multi-granular release exploits the index)", core.RTree)
	}
	if outPath == "" {
		return nil, fmt.Errorf("-granularities needs -out (one file per granularity)")
	}
	var ks []int
	for _, part := range strings.Split(grans, ",") {
		g, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || g < 1 {
			return nil, fmt.Errorf("bad granularity %q", part)
		}
		if g < k {
			return nil, fmt.Errorf("granularity %d is finer than the base k=%d; a release below the index's k would break the collusion guarantee", g, k)
		}
		ks = append(ks, g)
	}
	return ks, nil
}

// multiGranular derives one release per requested granularity from a
// single index (Section 3), writes each as CSV, and verifies the set is
// jointly collusion-safe before reporting success.
func multiGranular(rt *core.RTreeAnonymizer, schema *attr.Schema, recs []attr.Record, ks []int, outPath string, quiet bool, stderr io.Writer) error {
	if err := rt.Load(recs); err != nil {
		return err
	}
	releases, err := rt.MultiGranular(ks)
	if err != nil {
		return err
	}
	sets := make([][]anonmodel.Partition, len(releases))
	for i, rel := range releases {
		sets[i] = rel.Partitions
		path := fmt.Sprintf("%s.k%d.csv", strings.TrimSuffix(outPath, ".csv"), rel.Granularity)
		if err := writeCSV(path, nil, schema, rel.Partitions); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(stderr, "k=%d: %d partitions -> %s\n", rel.Granularity, len(rel.Partitions), path)
		}
	}
	base := rt.Constraint().MinSize()
	if err := verify.Releases(sets, base); err != nil {
		return fmt.Errorf("release set failed the collusion check: %w", err)
	}
	if !quiet {
		fmt.Fprintf(stderr, "collusion check over %d releases: safe at k=%d\n", len(releases), base)
	}
	return nil
}

func buildConstraint(k, l int, alpha float64) (anonmodel.Constraint, error) {
	if k < 2 {
		return nil, fmt.Errorf("k must be >= 2 (k=1 is no anonymity), got %d", k)
	}
	var cons anonmodel.Constraint = anonmodel.KAnonymity{K: k}
	switch {
	case l > 0 && alpha > 0:
		return nil, fmt.Errorf("-l and -alpha are mutually exclusive")
	case l > 0:
		cons = anonmodel.LDiversity{K: k, L: l}
	case alpha > 0:
		cons = anonmodel.AlphaK{K: k, Alpha: alpha}
	}
	return cons, nil
}

// buildAnonymizer builds algo from the registry. A -bias (validated to
// come with the R⁺-tree only) is a split policy, which the registry's
// parameters do not carry: the index is configured directly.
func buildAnonymizer(algo string, schema *attr.Schema, cons anonmodel.Constraint, doCompact bool, bias, keyAttr string) (core.Anonymizer, error) {
	if bias != "" {
		var axes []int
		for _, name := range strings.Split(bias, ",") {
			idx := schema.AttrIndex(strings.TrimSpace(name))
			if idx < 0 {
				return nil, fmt.Errorf("unknown bias attribute %q", name)
			}
			axes = append(axes, idx)
		}
		rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
			Schema: schema, Constraint: cons, Split: rplustree.BiasedPolicy{Axes: axes},
		})
		if err != nil {
			return nil, err
		}
		return rt, nil
	}
	key := 0
	if keyAttr != "" {
		if key = schema.AttrIndex(keyAttr); key < 0 {
			return nil, fmt.Errorf("unknown key attribute %q", keyAttr)
		}
	}
	return core.New(algo, core.Params{Schema: schema, Constraint: cons, Compact: doCompact, Key: key})
}
