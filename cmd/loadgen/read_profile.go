package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"spatialanon/internal/attr"
	"spatialanon/internal/query"
	"spatialanon/internal/shard"
)

// The read profile measures the zero-alloc serving read path: every
// reader goroutine holds its own Counter/Estimator session against the
// fleet-of-one's current view (re-minted whenever the epoch moves; a
// session is bound to one range's release) and drives point
// and range COUNT queries back-to-back. Reported per class: ops/sec,
// p50/p99 latency, and allocs/op measured by mallocs-delta calibration
// on a warm session — the number CI pins to zero.

// allocsPerOp measures steady-state heap allocations of one warm
// operation: mallocs-delta over n calls on a quiesced heap. It runs
// before any background churn starts, so the delta belongs to f alone.
func allocsPerOp(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm caches and scratch outside the window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// readProfile runs the read-only measurement loop. Writers (if
// configured) churn the store in the background — unmeasured — so the
// epoch moves and sessions exercise their refresh path.
func readProfile(ctx context.Context, c config, co *shard.Coordinator, generate func(n int, seed int64) []attr.Record, out io.Writer) error {
	v := co.View(0)
	if _, err := v.Release(c.k1); err != nil {
		return fmt.Errorf("read profile: %w", err)
	}
	recs := v.Records()
	points := query.PointWorkload(recs, 512, c.seed+2)
	ranges := query.FullRangeWorkload(recs, 512, c.seed+3)

	// Calibrate allocs/op on a warm session before any churn starts.
	counter, err := v.Counter(c.k1)
	if err != nil {
		return err
	}
	est, err := v.Estimator(c.k1)
	if err != nil {
		return err
	}
	i := 0
	pointAllocs := allocsPerOp(512, func() { counter.Point(points[i%len(points)]); i++ })
	rangeAllocs := allocsPerOp(512, func() { counter.Range(ranges[i%len(ranges)]); i++ })
	estAllocs := allocsPerOp(512, func() { est.Estimate(ranges[i%len(ranges)]); i++ })

	// Background churn: writers cycle inserts over fresh IDs so epochs
	// advance under the readers. Unmeasured; errors end the churn only.
	var churnWG sync.WaitGroup
	churnStop := make(chan struct{})
	if c.writers > 0 {
		fresh := generate(c.writers*64, c.seed+4)
		for w := 0; w < c.writers; w++ {
			w := w
			churnWG.Add(1)
			go func() {
				defer churnWG.Done()
				for j := 0; ; j++ {
					select {
					case <-churnStop:
						return
					default:
					}
					r := fresh[(w*64+j%64)%len(fresh)]
					r.ID = int64(c.n + w*1_000_000 + j + 1)
					if co.Insert(r) != nil {
						return
					}
				}
			}()
		}
	}

	// Measured run: readers share a per-class budget of c.ops queries,
	// striped like the churn writers. Each reader re-mints its sessions
	// whenever the published epoch moves past the one it holds.
	type readerOut struct {
		point, rng []time.Duration
		err        error
	}
	outs := make([]readerOut, c.readers)
	var wg sync.WaitGroup
	start := time.Now() // anonylint:wall-clock — throughput measurement only
	for r := 0; r < c.readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rv := co.View(0)
			rc, err := rv.Counter(c.k1)
			if err != nil {
				outs[r].err = err
				return
			}
			for i := r; i < c.ops && ctx.Err() == nil; i += c.readers {
				if cur := co.View(0); cur.Epoch() != rv.Epoch() {
					rv = cur
					if rc, err = rv.Counter(c.k1); err != nil {
						outs[r].err = err
						return
					}
				}
				t0 := time.Now() // anonylint:wall-clock — latency sample
				rc.Point(points[i%len(points)])
				outs[r].point = append(outs[r].point, time.Since(t0)) // anonylint:wall-clock — latency sample
				t0 = time.Now()                                       // anonylint:wall-clock — latency sample
				rc.Range(ranges[i%len(ranges)])
				outs[r].rng = append(outs[r].rng, time.Since(t0)) // anonylint:wall-clock — latency sample
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start) // anonylint:wall-clock — throughput measurement only
	close(churnStop)
	churnWG.Wait()
	noteInterrupt(ctx, out)

	var pointLats, rangeLats []time.Duration
	for r := range outs {
		if outs[r].err != nil {
			return fmt.Errorf("reader %d: %w", r, outs[r].err)
		}
		pointLats = append(pointLats, outs[r].point...)
		rangeLats = append(rangeLats, outs[r].rng...)
	}
	fmt.Fprintf(out, "points: %s, allocs/op %.2f\n", summarize(pointLats, elapsed), pointAllocs)
	fmt.Fprintf(out, "ranges: %s, allocs/op %.2f\n", summarize(rangeLats, elapsed), rangeAllocs)
	fmt.Fprintf(out, "estimates (calibration only): allocs/op %.2f\n", estAllocs)
	fmt.Fprintf(out, "epochs: %d published during the run\n", co.View(0).Epoch())
	return nil
}
