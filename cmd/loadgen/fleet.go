package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"spatialanon/internal/attr"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/serve"
	"spatialanon/internal/shard"
	"spatialanon/internal/wal"
)

// newFleet creates the coordinator every mode drives: -shards serving
// stacks over contiguous SFC key ranges, preloaded with recs (routed,
// one batch — one frame, one fsync — per shard). A single store is the
// fleet of one. It also returns the routing domain, which is the
// readers' whole-domain count query.
func newFleet(c config, dir string, schema *attr.Schema, recs, churn []attr.Record) (*shard.Coordinator, attr.Box, error) {
	// The fixed routing domain: the bounding box of every record the run
	// will ever submit, padded by one unit per dimension so the churn
	// relocations (QI[0]+1) stay inside. It is a pure function of the
	// generator parameters, so routing is identical across runs and
	// shard counts.
	domain := attr.DomainOf(schema.Dims(), recs).IncludeBox(attr.DomainOf(schema.Dims(), churn))
	for d := range domain {
		domain[d].Lo--
		domain[d].Hi++
	}
	co, err := shard.New(shard.Options{
		Dir:     dir,
		Shards:  c.shards,
		Domain:  domain,
		Tree:    rplustree.Config{Schema: schema, BaseK: c.k},
		Serve:   serve.Options{MaxBatch: c.batch, QueueDepth: c.queue, DeadlineTicks: c.deadline},
		NoSync:  c.nosync,
		Preload: recs,

		CheckpointEvery: c.ckpt,
	})
	return co, domain, err
}

// readStep is one reader step, the cross-shard products: a
// whole-domain count and the audited joint release at granularity k1.
// Typed partial results — a fleet with a degraded shard doing its job
// — are counted, not fatal.
func readStep(co *shard.Coordinator, domain attr.Box, k1 int) (partials int, err error) {
	_, cerr := co.Count(domain)
	_, rerr := co.Release(k1)
	for _, err := range []error{cerr, rerr} {
		if err == nil {
			continue
		}
		if !errors.Is(err, shard.ErrPartial) {
			return partials, err
		}
		partials++
	}
	return partials, nil
}

// report prints the write-side lines from each shard's samples.
// Reporting is per shard — ops/sec, latency quantiles, error-class
// counts and shed rate for each key range — because the whole point of
// sharding is that load and failure stay rangewise.
func report(out io.Writer, co *shard.Coordinator, per []bucketSamples, elapsed time.Duration, overload bool, partials int64) {
	perShard, coPartials, coRetries := co.Stats()
	var ckpt wal.CheckpointStats
	for si, b := range per {
		ckpt = ckpt.Add(perShard[si].Serve.Checkpoint)
		fmt.Fprintf(out, "shard %d %v: writes: %s\n", si, perShard[si].Range, summarize(b.lats, elapsed))
		if overload {
			fmt.Fprintf(out, "shard %d errors: %s\n", si, b.ec)
		}
		st := perShard[si].Serve
		if st.Batches > 0 {
			fmt.Fprintf(out, "shard %d commits: %d batches, %.1f ops/fsync, state=%v server shed=%d\n",
				si, st.Batches, float64(st.Ops)/float64(st.Batches), st.State, st.Shed)
		}
	}
	fmt.Fprintf(out, "checkpoints: %v\n", ckpt)
	fmt.Fprintf(out, "coordinator: partial reads=%d (%d server-side) resubmitted transients=%d\n",
		partials, coPartials, coRetries)
}
