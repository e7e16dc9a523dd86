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

// target is what the churn loop drives: one durable store behind a
// serve.Server (a single report bucket) or a shard.Coordinator fleet
// (one bucket per SFC key range). Both already share the mutation
// signatures; the rest is the reader step and the report.
type target interface {
	Insert(rec attr.Record) error
	Update(id int64, oldQI []float64, rec attr.Record) (bool, error)
	Delete(id int64, qi []float64) (bool, error)
	// read is one reader step. Typed partial results — a fleet with a
	// degraded shard doing its job — are counted, not fatal.
	read() (partials int, err error)
	// buckets is the number of report buckets; bucket names the one
	// that owns a QI point.
	buckets() int
	bucket(qi []float64) int
	// report prints the write-side lines from each bucket's samples.
	report(out io.Writer, per []bucketSamples, elapsed time.Duration, overload bool, partials int64)
	// close stops serving and closes the store(s); idempotent.
	close() error
}

// storeTarget is the one-bucket case: a single store and its server.
type storeTarget struct {
	*serve.Server
	st *wal.Store
	k1 int
	// q is the readers' range query: a box of the initial base release,
	// so it always intersects live data.
	q attr.Box
}

func newStoreTarget(c config, dir string, schema *attr.Schema, recs []attr.Record) (*storeTarget, error) {
	st, err := wal.Create(wal.Options{
		Dir:    dir,
		Tree:   rplustree.Config{Schema: schema, BaseK: c.k},
		NoSync: c.nosync,

		CheckpointEvery: c.ckpt,
	})
	if err != nil {
		return nil, err
	}
	// Preload in one batch: one frame, one fsync.
	preload := make([]wal.Op, len(recs))
	for i, r := range recs {
		preload[i] = wal.Op{Type: wal.TypeInsert, Rec: r}
	}
	if _, err := st.ApplyBatch(preload); err != nil {
		st.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	s, err := serve.New(st, serveOptions(c))
	if err != nil {
		st.Close()
		return nil, err
	}
	t := &storeTarget{Server: s, st: st, k1: c.k1}
	base, err := s.View().Base()
	if err != nil {
		t.close()
		return nil, err
	}
	t.q = base[0].Box.Clone()
	return t, nil
}

func serveOptions(c config) serve.Options {
	return serve.Options{MaxBatch: c.batch, QueueDepth: c.queue, DeadlineTicks: c.deadline}
}

// read loops a snapshot release at granularity k1 and a range count
// against the current view.
func (t *storeTarget) read() (int, error) {
	v := t.View()
	if _, err := v.Release(t.k1); err != nil {
		return 0, err
	}
	if _, err := v.Count(t.q); err != nil {
		return 0, fmt.Errorf("count: %w", err)
	}
	return 0, nil
}

func (t *storeTarget) buckets() int         { return 1 }
func (t *storeTarget) bucket([]float64) int { return 0 }

func (t *storeTarget) report(out io.Writer, per []bucketSamples, elapsed time.Duration, overload bool, _ int64) {
	fmt.Fprintf(out, "writes: %s\n", summarize(per[0].lats, elapsed))
	stats := t.Stats()
	if stats.Batches > 0 {
		fmt.Fprintf(out, "commits: %d batches, %.1f ops/fsync, max batch %d, epoch %d\n",
			stats.Batches, float64(stats.Ops)/float64(stats.Batches), stats.MaxBatch, stats.Epoch)
	}
	fmt.Fprintf(out, "checkpoints: %v\n", stats.Checkpoint)
	if overload {
		fmt.Fprintf(out, "overload: %s\n", per[0].ec)
		fmt.Fprintf(out, "server: state=%v shed=%d expired=%d retries=%d recoveries=%d\n",
			stats.State, stats.Shed, stats.Expired, stats.Retries, stats.Recoveries)
	}
}

func (t *storeTarget) close() error {
	err := t.Server.Close()
	if cerr := t.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// fleetTarget is a shard.Coordinator: one serving stack per SFC key
// range, mutations routed by curve key. Reporting is per shard —
// ops/sec, latency quantiles, error-class counts and shed rate for
// each key range — because the whole point of sharding is that load
// and failure stay rangewise.
type fleetTarget struct {
	*shard.Coordinator
	k1     int
	domain attr.Box
}

func newFleetTarget(c config, dir string, schema *attr.Schema, recs, churn []attr.Record) (*fleetTarget, error) {
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
		Serve:   serveOptions(c),
		NoSync:  c.nosync,
		Preload: recs,

		CheckpointEvery: c.ckpt,
	})
	if err != nil {
		return nil, err
	}
	return &fleetTarget{Coordinator: co, k1: c.k1, domain: domain}, nil
}

// read runs the cross-shard products: a whole-domain count and the
// audited joint release.
func (t *fleetTarget) read() (partials int, err error) {
	_, cerr := t.Count(t.domain)
	_, rerr := t.Release(t.k1)
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

func (t *fleetTarget) buckets() int            { return t.NumShards() }
func (t *fleetTarget) bucket(qi []float64) int { return t.Route(qi) }

func (t *fleetTarget) report(out io.Writer, per []bucketSamples, elapsed time.Duration, overload bool, partials int64) {
	perShard, coPartials, coRetries := t.Stats()
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

func (t *fleetTarget) close() error { return t.Coordinator.Close() }
