// Command datagen generates the synthetic data sets of the paper's
// evaluation: the Lands End-like customer-sale table (8 attributes,
// 32-byte binary records), the Agrawal et al. synthetic table (9
// attributes, 36-byte records), and the Figure 1 patients table.
//
// Usage:
//
//	datagen -dataset landsend -n 1000000 -format bin -out landsend.bin
//	datagen -dataset agrawal -n 100000 -format csv -out agrawal.csv
//	datagen -dataset patients -n 500
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"spatialanon/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dsName = fs.String("dataset", "landsend", "generator: "+dataset.Names())
		n      = fs.Int("n", 10000, "number of records")
		seed   = fs.Int64("seed", 1, "generator seed")
		format = fs.String("format", "csv", "output format: csv or bin (bin is the paper's fixed-width 32/36-byte layout)")
		out    = fs.String("out", "", "output path (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 0 {
		return fmt.Errorf("-n must be non-negative")
	}

	schema, stream, err := dataset.Lookup(*dsName)
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		w = bw
	}

	switch *format {
	case "csv":
		recs := dataset.Collect(stream(*n, *seed))
		if err := dataset.WriteCSV(w, schema, recs); err != nil {
			return err
		}
	case "bin":
		if *dsName == "patients" {
			return fmt.Errorf("the patients table has a string sensitive attribute; use -format csv")
		}
		codec := dataset.NewBinaryCodec(schema.Dims())
		written, err := codec.WriteBinary(w, stream(*n, *seed))
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d records x %d bytes\n", written, codec.RecordSize())
	default:
		return fmt.Errorf("unknown format %q (want csv or bin)", *format)
	}
	return nil
}
