// Command loadgen is a closed-loop load driver for the serving stack:
// a fixed number of writer and reader goroutines issue operations
// back-to-back against a shard.Coordinator for a fixed operation
// budget, and the tool reports per-shard throughput (ops/sec) and
// latency quantiles (p50/p99).
//
// Closed-loop means each goroutine waits for its operation to finish
// before issuing the next, so offered load adapts to service time —
// the natural regime for measuring group commit, whose batches form
// from whoever is blocked at the same instant.
//
// Usage:
//
//	loadgen -n 20000 -ops 5000 -writers 8 -readers 4
//	loadgen -shards 4 -writers 8 -readers 2
//	loadgen -dir ./store -nosync=false -writers 16 -batch 64
//	loadgen -dataset patients -readers 8 -k1 25
//	loadgen -overload -writers 32 -queue 4 -batch 4 -deadline 2
//	loadgen -profile read -readers 4 -writers 2
//
// A store is a fleet of one: every run creates a coordinator in -dir
// (a temporary directory by default) over -shards contiguous SFC key
// ranges (default 1), each with its own durable store and serving
// stack, preloaded with -n records, then churned: writers interleave
// inserts, relocations and deletes of their own key stripes, routed by
// curve key; readers loop the audited joint release at granularity -k1
// and a whole-domain count. -shards 1 takes the same path as 4 — it
// pays the cross-shard audit and the joint family like any fleet — and
// the report has the same shape: throughput, latency quantiles and
// commit counters per shard, then the coordinator's line. Durability
// is real unless -nosync is set: every group commit is an fsync.
//
// With -overload the tool measures admission control instead of
// aborting on the first error: typed rejections (ErrOverloaded,
// ErrDeadlineExceeded, …) are counted per class and shard, and the
// report adds the shed rate alongside the servers' own counters. Size
// the queue below the writer count (-queue < -writers) to actually
// provoke shedding. In every mode SIGINT drains gracefully: in-flight
// operations finish, counters are reported for the partial run.
//
// With -profile read the readers instead hold Counter sessions minted
// from the one range's view (so it needs -shards 1) and drive point
// and range COUNT queries; see read_profile.go.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/retry"
	"spatialanon/internal/serve"
	"spatialanon/internal/shard"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	dir      string
	dataset  string
	profile  string
	n        int
	ops      int
	writers  int
	readers  int
	batch    int
	k        int
	k1       int
	seed     int64
	nosync   bool
	overload bool
	queue    int
	deadline int
	shards   int
	ckpt     int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.dir, "dir", "", "store directory (default: a fresh temp dir, removed on exit)")
	fs.StringVar(&c.dataset, "dataset", "landsend", "dataset schema: "+dataset.Names())
	fs.StringVar(&c.profile, "profile", "churn", "workload profile: churn (mixed write/read) or read (accelerated point/range sessions)")
	fs.IntVar(&c.n, "n", 20000, "records preloaded before the measured run")
	fs.IntVar(&c.ops, "ops", 4000, "total mutations the writers share")
	fs.IntVar(&c.writers, "writers", 8, "writer goroutines (0 = read-only run)")
	fs.IntVar(&c.readers, "readers", 4, "reader goroutines (0 = write-only run)")
	fs.IntVar(&c.batch, "batch", 64, "group-commit batch cap (serve.Options.MaxBatch)")
	fs.IntVar(&c.k, "k", 10, "base anonymity parameter of the store")
	fs.IntVar(&c.k1, "k1", 0, "release granularity readers ask for (0 = base k)")
	fs.Int64Var(&c.seed, "seed", 42, "data generator seed")
	fs.BoolVar(&c.nosync, "nosync", false, "skip fsync on commit (throughput ceiling, no durability)")
	fs.BoolVar(&c.overload, "overload", false, "keep driving through typed rejections; report shed rate and per-error-class counts")
	fs.IntVar(&c.queue, "queue", 0, "submission queue depth (serve.Options.QueueDepth; 0 = 4×batch)")
	fs.IntVar(&c.deadline, "deadline", 0, "queue deadline in group-commit ticks (serve.Options.DeadlineTicks; 0 = none)")
	fs.IntVar(&c.ckpt, "checkpoint", 0, "checkpoint each store after every N logged operations (wal.Options.CheckpointEvery; 0 = only when the store is created)")
	fs.IntVar(&c.shards, "shards", 1, "shard the store into N SFC key ranges, one serving stack each; report is per shard")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if c.shards < 1 {
		return c, fmt.Errorf("need at least one shard")
	}
	if c.profile != "churn" && c.profile != "read" {
		return c, fmt.Errorf("unknown profile %q (want churn or read)", c.profile)
	}
	if c.profile == "read" && c.shards != 1 {
		return c, fmt.Errorf("read profile needs -shards 1: its sessions are bound to one key range's release")
	}
	if c.profile == "read" && c.readers <= 0 {
		return c, fmt.Errorf("read profile needs at least one reader")
	}
	if c.writers < 0 || c.readers < 0 || c.writers+c.readers == 0 {
		return c, fmt.Errorf("need at least one writer or reader")
	}
	if c.n < c.k {
		return c, fmt.Errorf("preload %d below base k %d: no release exists", c.n, c.k)
	}
	// In the churn profile -ops is a write budget, meaningless without
	// writers; in the read profile it is the per-class read budget.
	if c.profile == "churn" && c.ops > 0 && c.writers == 0 {
		c.ops = 0
	}
	return c, nil
}

// quantile returns the q-quantile of the sorted, non-empty sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	return sorted[int(q*float64(len(sorted)-1))]
}

// summarize renders one class of operations — count, rate, latency
// quantiles — sorting the sample in place.
func summarize(all []time.Duration, elapsed time.Duration) string {
	if len(all) == 0 {
		return "0 ops"
	}
	slices.Sort(all)
	return fmt.Sprintf("%d ops in %v — %.0f ops/sec, p50 %v, p99 %v",
		len(all), elapsed.Round(time.Millisecond), float64(len(all))/elapsed.Seconds(),
		quantile(all, 0.50).Round(time.Microsecond), quantile(all, 0.99).Round(time.Microsecond))
}

// errCounts buckets overload-mode outcomes by the serving layer's
// typed error taxonomy. One instance per writer and report bucket,
// merged at the end, so the hot loop never touches shared state.
type errCounts struct {
	acked, shed, expired, degraded, recovering, transient, other int
}

func (ec *errCounts) classify(err error) {
	switch {
	case err == nil:
		ec.acked++
	case errors.Is(err, serve.ErrOverloaded):
		ec.shed++
	case errors.Is(err, serve.ErrDeadlineExceeded):
		ec.expired++
	case errors.Is(err, serve.ErrDegraded):
		ec.degraded++
	case errors.Is(err, serve.ErrRecovering):
		ec.recovering++
	case retry.IsTransient(err):
		ec.transient++
	default:
		ec.other++
	}
}

func (ec *errCounts) add(o errCounts) {
	ec.acked += o.acked
	ec.shed += o.shed
	ec.expired += o.expired
	ec.degraded += o.degraded
	ec.recovering += o.recovering
	ec.transient += o.transient
	ec.other += o.other
}

func (ec errCounts) String() string {
	issued := ec.acked + ec.shed + ec.expired + ec.degraded + ec.recovering + ec.transient + ec.other
	shedPct := 0.0
	if issued > 0 {
		shedPct = 100 * float64(ec.shed) / float64(issued)
	}
	return fmt.Sprintf("issued=%d acked=%d shed=%d (%.1f%% shed) expired=%d degraded=%d recovering=%d transient=%d other=%d",
		issued, ec.acked, ec.shed, shedPct, ec.expired, ec.degraded, ec.recovering, ec.transient, ec.other)
}

func run(args []string, out io.Writer) (err error) {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	schema, stream, err := dataset.Lookup(c.dataset)
	if err != nil {
		return err
	}
	generate := func(n int, seed int64) []attr.Record { return dataset.Collect(stream(n, seed)) }
	dir := c.dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "loadgen")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	recs := generate(c.n, c.seed)
	// Fresh records the writers will churn, striped per writer so no
	// two goroutines ever race on one key.
	var churn []attr.Record
	if c.profile == "churn" {
		churn = generate(c.ops+c.writers, c.seed+1)
		for i := range churn {
			churn[i].ID = int64(c.n + i + 1)
		}
	}

	co, domain, err := newFleet(c, dir, schema, recs, churn)
	if err != nil {
		return err
	}
	// The one place the fleet is closed. Both loops report after their
	// goroutines have drained, when every counter is already final.
	defer func() {
		if cerr := co.Close(); err == nil {
			err = cerr
		}
	}()
	fmt.Fprintf(out, "loadgen: %s profile=%s n=%d k=%d shards=%d writers=%d readers=%d batch=%d ops=%d fsync=%v\n",
		c.dataset, c.profile, c.n, c.k, c.shards, c.writers, c.readers, c.batch, c.ops, !c.nosync)

	// Graceful SIGINT drain: the first interrupt stops new operations,
	// lets whatever is in flight commit and reports the partial run.
	// The handler uninstalls itself as it fires, so a second interrupt
	// kills the process.
	ctx, uninstall := signal.NotifyContext(context.Background(), os.Interrupt)
	defer uninstall()
	context.AfterFunc(ctx, uninstall)

	if c.profile == "read" {
		return readProfile(ctx, c, co, generate, out)
	}
	return churnLoop(ctx, c, co, domain, churn, out)
}

// noteInterrupt reports a drained interrupt. The driving goroutine
// calls it once its loops have stopped, so out has a single writer.
func noteInterrupt(ctx context.Context, out io.Writer) {
	if ctx.Err() != nil {
		fmt.Fprintf(out, "loadgen: interrupt — draining in-flight operations\n")
	}
}

// bucketSamples accumulates the write samples of one report bucket:
// one instance per writer while the loop runs, merged for the report.
type bucketSamples struct {
	lats []time.Duration
	ec   errCounts
}

// churnLoop is the closed-loop churn driver: striped writers cycling
// insert → relocate → delete, readers looping readStep until the
// writers finish, error classification, and the per-shard report.
func churnLoop(ctx context.Context, c config, co *shard.Coordinator, domain attr.Box, churn []attr.Record, out io.Writer) error {
	var (
		writers, readers sync.WaitGroup
		samples          = make([][]bucketSamples, c.writers) // [writer][bucket]
		readerLats       = make([][]time.Duration, c.readers)
		partials         atomic.Int64
		firstErr         atomic.Pointer[error]
	)
	fail := func(err error) { firstErr.CompareAndSwap(nil, &err) }
	stopReaders := make(chan struct{})
	start := time.Now() // anonylint:wall-clock — throughput measurement only

	for w := range samples {
		mine := make([]bucketSamples, co.NumShards())
		samples[w] = mine
		writers.Add(1)
		go func() {
			defer writers.Done()
			// Writer w owns churn indices w, w+writers, w+2*writers, …
			// and cycles insert → relocate → delete over its own keys,
			// so the store's size stays near the preload and every
			// update and delete hits a live record. With several shards
			// the relocation may cross a seam — that path is part of
			// what a sharded run measures.
			var cur attr.Record
			for i, j := w, 0; i < c.ops && ctx.Err() == nil; i, j = i+c.writers, j+1 {
				var err error
				var b int
				t0 := time.Now() // anonylint:wall-clock — latency sample
				switch j % 3 {
				case 0:
					cur = churn[i]
					b = co.Route(cur.QI)
					err = co.Insert(cur)
				case 1:
					moved := attr.Record{ID: cur.ID, QI: append([]float64(nil), cur.QI...), Sensitive: cur.Sensitive}
					moved.QI[0]++
					b = co.Route(moved.QI)
					_, err = co.Update(cur.ID, cur.QI, moved)
					cur = moved
				case 2:
					b = co.Route(cur.QI)
					_, err = co.Delete(cur.ID, cur.QI)
				}
				mine[b].lats = append(mine[b].lats, time.Since(t0)) // anonylint:wall-clock — latency sample
				if c.overload {
					// Overload runs measure the rejections instead of
					// dying on them: a shed or expired submission was
					// never committed, so the loop just drives on.
					mine[b].ec.classify(err)
				} else if err != nil {
					fail(fmt.Errorf("writer %d: %w", w, err))
					return
				}
			}
		}()
	}

	for r := range readerLats {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				t0 := time.Now() // anonylint:wall-clock — latency sample
				np, err := readStep(co, domain, c.k1)
				if err != nil {
					fail(fmt.Errorf("reader %d: %w", r, err))
					return
				}
				partials.Add(int64(np))
				readerLats[r] = append(readerLats[r], time.Since(t0)) // anonylint:wall-clock — latency sample
			}
		}()
	}

	// Writers define the run length; a read-only run gets a fixed
	// window instead.
	if c.writers > 0 {
		writers.Wait()
	} else {
		select {
		case <-time.After(2 * time.Second):
		case <-ctx.Done():
		}
	}
	writeElapsed := time.Since(start) // anonylint:wall-clock — throughput measurement only
	close(stopReaders)
	readers.Wait()
	elapsed := time.Since(start) // anonylint:wall-clock — throughput measurement only

	noteInterrupt(ctx, out)
	if p := firstErr.Load(); p != nil {
		return *p
	}

	if c.writers > 0 {
		per := make([]bucketSamples, co.NumShards())
		for _, mine := range samples {
			for b := range mine {
				per[b].lats = append(per[b].lats, mine[b].lats...)
				per[b].ec.add(mine[b].ec)
			}
		}
		report(out, co, per, writeElapsed, c.overload, partials.Load())
	}
	if c.readers > 0 {
		fmt.Fprintf(out, "reads:  %s\n", summarize(slices.Concat(readerLats...), elapsed))
	}
	return nil
}
