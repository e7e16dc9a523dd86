package serve

import (
	"fmt"
	"sync/atomic"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/query"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/wal"
)

// benchRecord derives a record deterministically from its ordinal so
// parallel benchmark goroutines need no shared generator.
func benchRecord(id int64) attr.Record {
	dims := dataset.LandsEndSchema().Dims()
	qi := make([]float64, dims)
	for d := range qi {
		qi[d] = float64((id*31 + int64(d)*7) % 1000)
	}
	return attr.Record{ID: id, QI: qi, Sensitive: "b"}
}

// BenchmarkStorePerOpInsert is the baseline the tentpole is measured
// against: one durable store insert per operation, one fsync each.
func BenchmarkStorePerOpInsert(b *testing.B) {
	st, err := wal.Create(wal.Options{
		Dir:  b.TempDir(),
		Tree: rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Insert(benchRecord(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeGroupCommit measures concurrent durable inserts
// through the group-commit front end, fsync on. The acceptance claim
// is ≥5× the per-op baseline's ops/sec at batch ≥ 16.
func BenchmarkServeGroupCommit(b *testing.B) {
	for _, batch := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			st, err := wal.Create(wal.Options{
				Dir:  b.TempDir(),
				Tree: rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 10},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			s, err := New(st, Options{MaxBatch: batch})
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			b.SetParallelism(32) // submitters per core: batches form from concurrency
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := s.Insert(benchRecord(next.Add(1))); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			stats := s.Stats()
			if stats.Batches > 0 {
				b.ReportMetric(float64(stats.Ops)/float64(stats.Batches), "ops/fsync")
			}
		})
	}
}

// benchServer preloads a store and wraps it in a server for read-path
// benchmarks (NoSync: reads are what is measured).
func benchServer(b *testing.B, n int) (*Server, func()) {
	b.Helper()
	recs := make([]attr.Record, n)
	for i := range recs {
		recs[i] = benchRecord(int64(i + 1))
	}
	return benchServerOver(b, recs)
}

func benchServerOver(b *testing.B, recs []attr.Record) (*Server, func()) {
	b.Helper()
	st, err := wal.Create(wal.Options{
		Dir:    b.TempDir(),
		Tree:   rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 10},
		NoSync: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	ops := make([]wal.Op, len(recs))
	for i, r := range recs {
		ops[i] = wal.Op{Type: wal.TypeInsert, Rec: r}
	}
	if _, err := st.ApplyBatch(ops); err != nil {
		b.Fatal(err)
	}
	s, err := New(st, Options{MaxBatch: 64})
	if err != nil {
		b.Fatal(err)
	}
	return s, func() {
		s.Close()
		st.Close()
	}
}

// BenchmarkPublishLargeStore: the acknowledged write whose cost was the
// publish — a one-operation batch (one writer, fsync off) on a store of
// 200 000 records, ≈ 14 000 leaves. Every iteration is one WAL append, one
// delete-and-reinsert in the tree and one published epoch nobody reads.
func BenchmarkPublishLargeStore(b *testing.B) {
	recs := dataset.GenerateLandsEnd(200000, 7)
	s, cleanup := benchServerOver(b, recs)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		if found, err := s.Update(r.ID, r.QI, r); err != nil || !found {
			b.Fatalf("update of record %d: found=%v err=%v", r.ID, found, err)
		}
	}
}

// BenchmarkServeReleaseCached: repeated releases at one granularity
// within an epoch — the O(1) cache path, scaling with -cpu.
func BenchmarkServeReleaseCached(b *testing.B) {
	s, cleanup := benchServer(b, 20000)
	defer cleanup()
	if _, err := s.View().Release(50); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.View().Release(50); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkServeReleaseUncached: the same release recomputed per call
// through the store's scan path — what every Release cost before the
// cache.
func BenchmarkServeReleaseUncached(b *testing.B) {
	s, cleanup := benchServer(b, 20000)
	defer cleanup()
	v := s.View()
	base, err := v.Base()
	if err != nil {
		b.Fatal(err)
	}
	_ = base
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh entry per iteration simulates the uncached path: ask
		// a granularity the cache has not seen by cycling a small set
		// beyond it... recomputation is forced by using the store
		// directly, which rescans the tree every call.
		if _, err := s.st.Release(50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeReadsDuringWrites: readers consume views and range
// counts while a writer churns — the no-reader-writer-lock claim,
// scaling with -cpu.
func BenchmarkServeReadsDuringWrites(b *testing.B) {
	s, cleanup := benchServer(b, 20000)
	defer cleanup()
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var next atomic.Int64
	next.Store(1 << 30)
	go func() {
		defer close(writerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Insert(benchRecord(next.Add(1))); err != nil {
				return
			}
		}
	}()
	q := attr.Box{{Lo: 0, Hi: 500}, {Lo: 0, Hi: 500}, {Lo: 0, Hi: 999}, {Lo: 0, Hi: 999}, {Lo: 0, Hi: 999}, {Lo: 0, Hi: 999}, {Lo: 0, Hi: 999}, {Lo: 0, Hi: 999}}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v := s.View()
			if _, err := v.Release(0); err != nil {
				b.Error(err)
				return
			}
			if _, err := v.Count(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-writerDone
}

// BenchmarkServePointQuery: exact point counts through a view session,
// accelerated versus the linear reference — the headline read-path
// speedup of the routing accelerator. Warm accel queries must report
// 0 allocs/op (-benchmem; CI pins this).
func BenchmarkServePointQuery(b *testing.B) {
	s, cleanup := benchServer(b, 20000)
	defer cleanup()
	v := s.View()
	ps, err := v.Release(0)
	if err != nil {
		b.Fatal(err)
	}
	points := query.PointWorkload(v.Records(), 512, 99)
	b.Run("linear", func(b *testing.B) {
		c := query.NewCounter(ps, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Point(points[i%len(points)])
		}
	})
	b.Run("accel", func(b *testing.B) {
		c, err := v.Counter(0)
		if err != nil {
			b.Fatal(err)
		}
		c.Point(points[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Point(points[i%len(points)])
		}
	})
}

// BenchmarkServeRangeQuery: the same comparison for range counts.
func BenchmarkServeRangeQuery(b *testing.B) {
	s, cleanup := benchServer(b, 20000)
	defer cleanup()
	v := s.View()
	ps, err := v.Release(0)
	if err != nil {
		b.Fatal(err)
	}
	ranges := query.FullRangeWorkload(v.Records(), 512, 99)
	b.Run("linear", func(b *testing.B) {
		c := query.NewCounter(ps, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Range(ranges[i%len(ranges)])
		}
	})
	b.Run("accel", func(b *testing.B) {
		c, err := v.Counter(0)
		if err != nil {
			b.Fatal(err)
		}
		c.Range(ranges[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Range(ranges[i%len(ranges)])
		}
	})
}
