package rplustree

import (
	"fmt"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

// Micro-benchmarks for the index's core operations, complementing the
// repository-root figure benchmarks.

func benchTree(b testing.TB, n int) (*Tree, []attr.Record) {
	b.Helper()
	recs := dataset.GenerateLandsEnd(n, 7)
	tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 5})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range recs {
		if err := tr.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	return tr, recs
}

func BenchmarkInsert(b *testing.B) {
	recs := dataset.GenerateLandsEnd(100000, 7)
	tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		r.ID = int64(i)
		if err := tr.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeleteInsert(b *testing.B) {
	tr, recs := benchTree(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		if found, err := tr.Delete(r.ID, r.QI); err != nil || !found {
			b.Fatal("delete failed")
		}
		if err := tr.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	tr, recs := benchTree(b, 50000)
	queries := make([]attr.Box, 64)
	for i := range queries {
		q := attr.PointBox(recs[i*101%len(recs)].QI)
		q.Include(recs[(i*211+7)%len(recs)].QI)
		queries[i] = q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(queries[i%len(queries)])
	}
}

func BenchmarkLeaves(b *testing.B) {
	tr, _ := benchTree(b, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.Leaves(); len(got) == 0 {
			b.Fatal("no leaves")
		}
	}
}

// BenchmarkBulkLoad loads n records through the buffer-tree loader.
func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{10000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			recs := dataset.GenerateLandsEnd(n, 7)
			b.SetBytes(int64(n) * 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := New(Config{Schema: dataset.LandsEndSchema(), BaseK: 5})
				if err != nil {
					b.Fatal(err)
				}
				bl, err := NewBulkLoader(tr, BulkLoadConfig{RecordBytes: 32})
				if err != nil {
					b.Fatal(err)
				}
				if err := bl.InsertBatch(recs); err != nil {
					b.Fatal(err)
				}
				if err := bl.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
