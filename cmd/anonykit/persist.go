package main

import (
	"flag"
	"fmt"
	"io"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/wal"
)

// loadChunk is how many inserts share one WAL frame — and one fsync —
// while -persist loads a store.
const loadChunk = 512

// loadStore inserts recs in order through the store's batch path:
// ⌈len(recs)/loadChunk⌉ frames instead of one fsync per record.
func loadStore(st *wal.Store, recs []attr.Record) error {
	ops := make([]wal.Op, 0, loadChunk)
	for len(recs) > 0 {
		n := min(loadChunk, len(recs))
		ops = ops[:0]
		for _, r := range recs[:n] {
			ops = append(ops, wal.Op{Type: wal.TypeInsert, Rec: r})
		}
		if _, err := st.ApplyBatch(ops); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// runPersist builds the index inside a durable store: every insert is
// write-ahead logged, the final state is checkpointed, and the release
// is emitted from the store — so a crash at any point leaves a
// recoverable directory behind (see `anonykit reopen`). The caller
// has validated k, and wal.Create re-rejects k < 2 through the tree
// config; anonylint:k-validated.
func runPersist(dir string, schema *attr.Schema, recs []attr.Record, k int, outPath string, quiet bool, stdout, stderr io.Writer) error {
	st, err := wal.Create(wal.Options{
		Dir:  dir,
		Tree: rplustree.Config{Schema: schema, BaseK: k},
	})
	if err != nil {
		return fmt.Errorf("%w (an existing store is reopened with `anonykit reopen -persist %s`)", err, dir)
	}
	defer st.Close()
	if err := loadStore(st, recs); err != nil {
		return err
	}
	// Fold the whole load into a checkpoint so the next reopen reads
	// one snapshot instead of replaying every insert.
	if err := st.Checkpoint(); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(stderr, "persisted %d records to %s (checkpointed at seq %d)\n",
			st.Len(), dir, st.Seq())
	}
	return emitRelease(st, schema, outPath, quiet, stdout, stderr)
}

// runReopen recovers a store persisted by -persist: load the last
// checkpoint, replay the committed log tail, audit, and emit the
// release — reporting what the recovery cost.
func runReopen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("anonykit reopen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir     = fs.String("persist", "", "store directory written by anonykit -persist (required)")
		dsName  = fs.String("dataset", "patients", "schema the store was created with: "+dataset.Names())
		k       = fs.Int("k", 10, "base anonymity parameter the store was created with")
		outPath = fs.String("out", "", "output CSV path (default stdout)")
		quiet   = fs.Bool("quiet", false, "suppress the recovery and quality reports")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("reopen needs -persist <dir>")
	}
	if *k < 2 {
		return fmt.Errorf("-k must be >= 2 (k=1 is no anonymity), got %d", *k)
	}
	schema, _, err := dataset.Lookup(*dsName)
	if err != nil {
		return err
	}
	st, err := wal.Open(wal.Options{
		Dir:  *dir,
		Tree: rplustree.Config{Schema: schema, BaseK: *k},
	})
	if err != nil {
		return err
	}
	defer st.Close()
	if !*quiet {
		rs := st.RecoveryStats()
		fmt.Fprintf(stderr, "recovered %d records: checkpoint at seq %d + %d replayed ops (%d torn bytes discarded)\n",
			st.Len(), rs.CheckpointSeq, rs.Replayed, rs.TornBytes)
		fmt.Fprintf(stderr, "recovery I/O: %d snapshot pages (%d B) + %d B log, %d page reads; audit passed\n",
			rs.SnapshotPages, rs.SnapshotBytes, rs.LogBytes, rs.PagerReads)
	}
	return emitRelease(st, schema, *outPath, *quiet, stdout, stderr)
}

// emitRelease writes the store's base release — proven by the store's
// release family before it is handed out — as CSV and reports its
// quality.
func emitRelease(st *wal.Store, schema *attr.Schema, outPath string, quiet bool, stdout, stderr io.Writer) error {
	ps, err := st.Release(0)
	if err != nil {
		return err
	}
	var recs []attr.Record // the quality report's domain; not needed when quiet
	if !quiet {
		for _, l := range st.Tree().Leaves() {
			for i := range l.Size() {
				recs = append(recs, l.Record(i))
			}
		}
	}
	constraint := anonmodel.KAnonymity{K: st.Tree().Config().BaseK}
	return writeRelease("durable rtree", constraint, schema, ps, recs, outPath, quiet, stdout, stderr)
}
