package wal

import (
	"path/filepath"
	"strconv"
	"testing"

	"spatialanon/internal/dataset"
	"spatialanon/internal/rplustree"
)

// BenchmarkPreload is the store half of a durable store's set-up: Create,
// one ApplyBatch of 50 000 Lands End inserts — one frame, one fsync, the
// tuple loads of the tree and the checkpoints CheckpointEvery 20 000 takes
// of it — then Close. Generation is outside the timer
// (dataset.BenchmarkGenerate times it).
func BenchmarkPreload(b *testing.B) {
	recs := dataset.GenerateLandsEnd(50_000, 42)
	ops := make([]Op, len(recs))
	for i, r := range recs {
		ops[i] = Op{Type: TypeInsert, Rec: r}
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Create(Options{
			Dir:             filepath.Join(dir, strconv.Itoa(i)),
			Tree:            rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 10},
			CheckpointEvery: 20_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.ApplyBatch(ops); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
