package main

import (
	"errors"
	"fmt"
	"time"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/query"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/serve"
	"spatialanon/internal/shard"
	"spatialanon/internal/verify"
	"spatialanon/internal/wal"
)

// The paper's data shape and the repository's serving defaults, fixed
// for every workload: Lands End-like records (8 QI attributes, 32-byte
// binary records), base k 10, readers at granularity 25, fsync on.
const (
	baseK       = 10
	readK       = 25
	recordBytes = 32
)

var (
	schema     = dataset.LandsEndSchema()
	treeConfig = rplustree.Config{Schema: schema, BaseK: baseK}
)

// target is a system under test: one durable store behind one server, or
// a fleet of them behind a shard coordinator. Both are driven through
// their public functions only.
type target interface {
	writer
	reader
	counters() (targetCounters, error)
	// records returns the live record multiset from a fresh view.
	records() ([]attr.Record, error)
	// audit runs the kind's quiescent correctness checks.
	audit(qs queries) error
	// releases returns the audited release at base k and at the
	// readers' granularity, from the newest published state.
	releases() (base, coarse []anonmodel.Partition, err error)
	close() error
}

// targetCounters are the serving counters the layers publish, summed
// over shards.
type targetCounters struct {
	ops, batches, maxBatch, epochs, shed, expired, retries int64
	// Fleet only.
	partials, coordRetries int64
	shardOps               []int64
}

// targetConfig selects and sizes the system under test.
type targetConfig struct {
	shards          int // 0 = a single store
	checkpointEvery int
	domain          attr.Box // routing domain of a fleet
}

// recovery is what one reopen reported.
type recovery struct {
	open                                          time.Duration // wal.Open / shard.Open alone
	replayed, snapshotBytes, logBytes, pagerReads int64
}

func buildTarget(cfg targetConfig, dir string, preload []attr.Record) (target, error) {
	if cfg.shards > 0 {
		return buildFleet(cfg, dir, preload)
	}
	return buildStore(cfg, dir, preload)
}

func reopenTarget(cfg targetConfig, dir string) (target, recovery, error) {
	if cfg.shards > 0 {
		return reopenFleet(cfg, dir)
	}
	return reopenStore(cfg, dir)
}

// storeTarget is wal.Store + serve.Server with the serving defaults.
type storeTarget struct {
	st  *wal.Store
	srv *serve.Server
}

func walOptions(cfg targetConfig, dir string) wal.Options {
	return wal.Options{Dir: dir, Tree: treeConfig, CheckpointEvery: cfg.checkpointEvery}
}

func buildStore(cfg targetConfig, dir string, preload []attr.Record) (*storeTarget, error) {
	st, err := wal.Create(walOptions(cfg, dir))
	if err != nil {
		return nil, err
	}
	// One frame, one fsync; the preload is at least CheckpointEvery
	// operations, so the store checkpoints it before serving starts.
	if _, err := st.ApplyBatch(insertOps(preload)); err != nil {
		st.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return serveStore(st)
}

// insertOps is a preload as one batch.
func insertOps(recs []attr.Record) []wal.Op {
	ops := make([]wal.Op, len(recs))
	for i, r := range recs {
		ops[i] = wal.Op{Type: wal.TypeInsert, Rec: r}
	}
	return ops
}

func serveStore(st *wal.Store) (*storeTarget, error) {
	srv, err := serve.New(st, serve.Options{})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &storeTarget{st: st, srv: srv}, nil
}

func reopenStore(cfg targetConfig, dir string) (*storeTarget, recovery, error) {
	t0 := time.Now()
	st, err := wal.Open(walOptions(cfg, dir))
	if err != nil {
		return nil, recovery{}, err
	}
	rs := st.RecoveryStats()
	rec := recovery{
		open: time.Since(t0), replayed: int64(rs.Replayed), snapshotBytes: int64(rs.SnapshotBytes),
		logBytes: int64(rs.LogBytes), pagerReads: rs.PagerReads,
	}
	t, err := serveStore(st)
	return t, rec, err
}

func (t *storeTarget) insert(rec attr.Record) error { return t.srv.Insert(rec) }
func (t *storeTarget) update(id int64, oldQI []float64, rec attr.Record) (bool, error) {
	return t.srv.Update(id, oldQI, rec)
}
func (t *storeTarget) remove(id int64, qi []float64) (bool, error) { return t.srv.Delete(id, qi) }

func (t *storeTarget) counters() (targetCounters, error) {
	s := t.srv.Stats()
	if s.State != serve.StateHealthy {
		return targetCounters{}, fmt.Errorf("server is %v", s.State)
	}
	return targetCounters{
		ops: s.Ops, batches: s.Batches, maxBatch: s.MaxBatch, epochs: int64(s.Epoch),
		shed: s.Shed, expired: s.Expired, retries: s.Retries,
	}, nil
}

func (t *storeTarget) records() ([]attr.Record, error) { return t.srv.View().Records(), nil }

// audit re-checks one served release with the independent auditor.
func (t *storeTarget) audit(queries) error {
	_, served, err := t.releases()
	if err != nil {
		return err
	}
	return verify.Release(served, anonmodel.KAnonymity{K: readK})
}

func (t *storeTarget) releases() (base, coarse []anonmodel.Partition, err error) {
	v := t.srv.View()
	if base, err = v.Base(); err != nil {
		return nil, nil, err
	}
	coarse, err = v.Release(readK)
	return base, coarse, err
}

func (t *storeTarget) close() error {
	return errors.Join(t.srv.Close(), t.st.Close())
}

// refresh takes the current epoch and mints the accelerated sessions on
// it: release scan and audit, then index build and routing audit.
func (t *storeTarget) refresh(tr *tracer, phase string, parent, op int64) (session, time.Duration, error) {
	t0 := time.Now()
	v := t.srv.View()
	ps, err := v.Release(readK)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	c, err := v.Counter(readK)
	if err != nil {
		return nil, 0, err
	}
	t2 := time.Now()
	e, err := v.Estimator(readK)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		t3 := time.Now()
		_, _ = v.Release(readK) // memoized now: the warm cost of the release cache
		t4 := time.Now()
		tr.put(0, parent, op, phase, "serve.view_release_cold", t0, t1)
		tr.put(0, parent, op, phase, "serve.counter_mint", t1, t2)
		tr.put(0, parent, op, phase, "serve.estimator_mint", t2, t3)
		tr.put(0, parent, op, phase, "serve.view_release_warm", t3, t4)
	}
	return &storeSession{ps: ps, c: c, e: e}, t1.Sub(t0), nil
}

// storeSession is one reader's accelerated sessions on one epoch.
type storeSession struct {
	ps []anonmodel.Partition
	c  *query.Counter
	e  *query.Estimator
}

func (s *storeSession) query(kind readKind, q readQuery) (float64, error) {
	switch kind {
	case readPoint:
		return float64(s.c.Point(q.point)), nil
	case readRange:
		return float64(s.c.Range(q.box)), nil
	default:
		return s.e.Estimate(q.box), nil
	}
}

func (s *storeSession) check(kind readKind, q readQuery) (float64, bool) {
	switch kind {
	case readPoint:
		return float64(query.CountAnonymizedPoint(s.ps, q.point)), true
	case readRange:
		return float64(query.CountAnonymized(s.ps, q.box)), true
	default:
		return query.EstimateUniform(s.ps, q.box), true
	}
}

// fleetTarget is a shard.Coordinator over cfg.shards stores.
type fleetTarget struct {
	co     *shard.Coordinator
	domain attr.Box
}

func shardOptions(cfg targetConfig, dir string) shard.Options {
	return shard.Options{
		Dir: dir, Shards: cfg.shards, Domain: cfg.domain, Tree: treeConfig,
		CheckpointEvery: cfg.checkpointEvery,
	}
}

func buildFleet(cfg targetConfig, dir string, preload []attr.Record) (*fleetTarget, error) {
	opts := shardOptions(cfg, dir)
	opts.Preload = preload
	co, err := shard.New(opts)
	if err != nil {
		return nil, err
	}
	return &fleetTarget{co: co, domain: cfg.domain}, nil
}

func reopenFleet(cfg targetConfig, dir string) (*fleetTarget, recovery, error) {
	t0 := time.Now()
	co, err := shard.Open(shardOptions(cfg, dir))
	if err != nil {
		return nil, recovery{}, err
	}
	return &fleetTarget{co: co, domain: cfg.domain}, recovery{open: time.Since(t0)}, nil
}

func (t *fleetTarget) insert(rec attr.Record) error { return t.co.Insert(rec) }
func (t *fleetTarget) update(id int64, oldQI []float64, rec attr.Record) (bool, error) {
	return t.co.Update(id, oldQI, rec)
}
func (t *fleetTarget) remove(id int64, qi []float64) (bool, error) { return t.co.Delete(id, qi) }

func (t *fleetTarget) counters() (targetCounters, error) {
	per, partials, retries := t.co.Stats()
	c := targetCounters{partials: partials, coordRetries: retries}
	for _, sh := range per {
		s := sh.Serve
		if s.State != serve.StateHealthy {
			return c, fmt.Errorf("shard %d is %v", sh.ID, s.State)
		}
		c.ops += s.Ops
		c.batches += s.Batches
		c.maxBatch = max(c.maxBatch, s.MaxBatch)
		c.epochs += int64(s.Epoch)
		c.shed += s.Shed
		c.expired += s.Expired
		c.retries += s.Retries
		c.shardOps = append(c.shardOps, s.Ops)
	}
	return c, nil
}

// records flattens the canonical global cut.
func (t *fleetTarget) records() ([]attr.Record, error) {
	ps, err := t.co.Export(baseK)
	if err != nil {
		return nil, err
	}
	var recs []attr.Record
	for _, p := range ps {
		recs = append(recs, p.Records...)
	}
	return recs, nil
}

// audit compares quiescent cross-shard counts with the linear estimate
// over the audited joint base release, and requires that no read of the
// run came back partial.
func (t *fleetTarget) audit(qs queries) error {
	joint, _, err := t.releases()
	if err != nil {
		return err
	}
	for i := 0; i < 16; i++ {
		for _, q := range []attr.Box{qs.points[i%len(qs.points)].box, qs.ranges[i%len(qs.ranges)].box} {
			got, err := t.co.Count(q)
			if err != nil {
				return err
			}
			if want := query.EstimateUniform(joint, q); !sameCount(got, want) {
				return fmt.Errorf("cross-shard count of %v is %v, the linear oracle says %v", q, got, want)
			}
		}
	}
	if _, partials, _ := t.co.Stats(); partials != 0 {
		return fmt.Errorf("%d cross-shard reads came back partial", partials)
	}
	return nil
}

func (t *fleetTarget) releases() (base, coarse []anonmodel.Partition, err error) {
	if base, err = t.co.Release(0); err != nil {
		return nil, nil, err
	}
	coarse, err = t.co.Release(readK)
	return base, coarse, err
}

func (t *fleetTarget) close() error { return t.co.Close() }

// seam classifies an update by whether it changes shard, with the
// coordinator's own routing table, quantizer and curve.
func (t *fleetTarget) seam() func(oldQI, newQI []float64) bool {
	table, quant, curve := t.co.Table(), t.co.Quantizer(), t.co.Curve()
	route := func(qi []float64) int {
		key := quant.Key(curve, qi)
		for i, r := range table {
			if r.Contains(key) {
				return i
			}
		}
		return len(table) - 1
	}
	return func(oldQI, newQI []float64) bool { return route(oldQI) != route(newQI) }
}

// refresh asks for the audited joint release, then pays the first
// cross-shard count on the new epoch vector, which builds each shard's
// accelerator.
func (t *fleetTarget) refresh(tr *tracer, phase string, parent, op int64) (session, time.Duration, error) {
	t0 := time.Now()
	if _, err := t.co.Release(readK); err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	if _, err := t.co.Count(t.domain); err != nil {
		return nil, 0, err
	}
	if tr != nil {
		tr.put(0, parent, op, phase, "shard.release_cold", t0, t1)
		tr.put(0, parent, op, phase, "shard.count_cold", t1, time.Now())
	}
	return fleetSession{t.co}, t1.Sub(t0), nil
}

// fleetSession answers every class with a cross-shard Count: the
// coordinator offers no exact-count sessions and no view to pin, so
// there is nothing to recompute an answer on while writes run.
type fleetSession struct{ co *shard.Coordinator }

func (s fleetSession) query(_ readKind, q readQuery) (float64, error) { return s.co.Count(q.box) }
func (fleetSession) check(readKind, readQuery) (float64, bool)        { return 0, false }

// paddedDomain is the routing domain of a fleet: the bounding box of
// every record the run can submit, padded by one unit so QI[0]+1 moves
// stay inside. It is a function of the generated inputs alone.
func paddedDomain(batches ...[]attr.Record) attr.Box {
	var box attr.Box
	for _, b := range batches {
		box = box.Union(attr.DomainOf(schema.Dims(), b))
	}
	for d := range box {
		box[d].Lo--
		box[d].Hi++
	}
	return box
}
