package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/mondrian"
	"spatialanon/internal/query"
	"spatialanon/internal/routing"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/sfc"
	"spatialanon/internal/verify"
	"spatialanon/internal/wal"
)

// Probes are isolated calls into one layer's public functions, on the
// run's own data and operation stream. They run in the traced pass only,
// after the journey, and feed per-layer metrics — never end-to-end ones.

// timeN runs f n times and returns the median duration in nanoseconds.
func timeN(n int, f func() error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t0))
	}
	return median(xs), nil
}

// perQuery times rounds passes over a query list and returns the median
// per-query cost in nanoseconds.
func perQuery(rounds, queries int, pass func()) float64 {
	ns, _ := timeN(rounds, func() error { pass(); return nil })
	return ns / float64(queries)
}

// ladder finds the highest fixed write rate, in steps of ×1.25 from the
// nominal one, whose tail latency from due time stays within 10 ms. It
// is a diagnostic: one step is wider than any bound.
func (j *journey) ladder() {
	const limit = 10 * time.Millisecond
	rate, best := j.w.writeRate, 0.0
	for step := 0; step < 6; step++ {
		r := runWrites(j.tgt, j.stream, writePhase{
			name: "ladder", rate: rate, dur: j.budget / 8, seed: j.seed(streamLadder + int64(step)),
		}, nil)
		j.tallyWrites(r)
		q, _ := tailRule(len(r.lat))
		if _, failed := r.attempted(); failed > 0 || len(r.lat) == 0 || r.lat.all().quantile(q) > float64(limit) {
			break
		}
		best = rate
		rate *= 1.25
	}
	j.m.set("serve.max_rate_ops_s", best, 0)
}

func (j *journey) probes() error {
	tree, err := j.loaderProbes()
	if err != nil {
		return err
	}
	batch := max(1, int(math.Round(j.m.values["serve.ops_per_fsync"].Value)))
	if err := j.treeProbes(tree, batch); err != nil {
		return err
	}
	if err := j.walProbes(batch); err != nil {
		return err
	}
	if err := j.readProbes(); err != nil {
		return err
	}
	for metric, spanName := range map[string]string{
		"serve.view_release_cold_ms": "serve.view_release_cold",
		"serve.counter_mint_ms":      "serve.counter_mint",
		"shard.release_cold_ms":      "shard.release_cold",
		"shard.count_cold_ms":        "shard.count_cold",
	} {
		d := j.tr.durations("reads", spanName)
		j.m.set(metric, ms(d.quantile(0.5)), len(d))
	}
	d := j.tr.durations("reads", "serve.view_release_warm")
	j.m.set("serve.view_release_warm_ns", d.quantile(0.5), len(d))
	return nil
}

// loaderProbes times the other ways of indexing the published records:
// the buffer-tree loader on one worker (with its allocation count), the
// tuple-at-a-time load, and the top-down Mondrian baseline. It returns
// the tuple-loaded tree for the tree probes.
func (j *journey) loaderProbes() (*rplustree.Tree, error) {
	load := func(cfg core.RTreeConfig) (*core.RTreeAnonymizer, time.Duration, error) {
		t0 := time.Now()
		a, err := core.NewRTreeAnonymizer(cfg)
		if err != nil {
			return nil, 0, err
		}
		err = a.Load(j.data)
		return a, time.Since(t0), err
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, d, err := load(core.RTreeConfig{Schema: schema, BaseK: baseK, BulkLoad: bulkLoad(), Parallelism: 1})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	j.m.set("rplustree.bulk_load_w1_ms", ms(float64(d)), 1)
	j.m.set("rplustree.bulk_allocs_per_record", float64(after.Mallocs-before.Mallocs)/float64(len(j.data)), 1)

	runtime.GC()
	a, d, err := load(core.RTreeConfig{Schema: schema, BaseK: baseK})
	if err != nil {
		return nil, err
	}
	j.m.set("rplustree.tuple_load_ms", ms(float64(d)), 1)

	runtime.GC()
	recs := append([]attr.Record(nil), j.data...) // Mondrian reorders its input
	t0 := time.Now()
	if _, err := mondrian.Anonymize(schema, recs, mondrian.Options{Constraint: anonmodel.KAnonymity{K: baseK}}); err != nil {
		return nil, err
	}
	j.m.set("mondrian.anonymize_ms", ms(float64(time.Since(t0))), 1)
	return a.Tree(), nil
}

// treeProbes replays the head of the run's operation stream on a bare
// tree, then times the leaf-summary snapshot a publish takes after one
// batch of the size the server formed.
func (j *journey) treeProbes(t *rplustree.Tree, batch int) error {
	s, err := newOpStream(j.data[:j.w.storeN], j.pool)
	if err != nil {
		return err
	}
	apply := func(op writeOp) error {
		found := true
		var err error
		switch op.kind {
		case opInsert:
			err = t.Insert(op.rec)
		case opDelete:
			found, err = t.Delete(op.old.ID, op.old.QI)
		default:
			found, err = t.Update(op.old.ID, op.old.QI, op.rec)
		}
		if err == nil && !found {
			err = fmt.Errorf("tree probe: op %d found no record", op.idx)
		}
		return err
	}
	var by [numOpKinds][]float64
	for i := 0; i < 3000; i++ {
		op := s.next()
		t0 := time.Now()
		if err := apply(op); err != nil {
			return err
		}
		by[op.kind] = append(by[op.kind], float64(time.Since(t0)))
	}
	j.m.set("rplustree.insert_us", us(median(by[opInsert])), len(by[opInsert]))
	j.m.set("rplustree.update_us", us(median(append(by[opMove], by[opRedraw]...))), len(by[opMove])+len(by[opRedraw]))
	j.m.set("rplustree.delete_us", us(median(by[opDelete])), len(by[opDelete]))

	prev := t.SnapshotLeaves(nil)
	snaps := make([]float64, 20)
	for r := range snaps {
		for i := 0; i < batch; i++ {
			if err := apply(s.next()); err != nil {
				return err
			}
		}
		t0 := time.Now()
		prev = t.SnapshotLeaves(prev)
		snaps[r] = float64(time.Since(t0))
	}
	j.m.set("rplustree.snapshot_leaves_us", us(median(snaps)), len(snaps))
	j.m.set("rplustree.leaves", float64(len(prev)), 0)
	return nil
}

// walProbes times Store.ApplyBatch and Store.Checkpoint on twin stores
// of one shard's size, with fsync on and off; their difference is the
// fsync.
func (j *journey) walProbes(batch int) error {
	preload := j.data[:j.w.storeN/max(1, j.w.target.shards)]
	twin := func(name string, noSync bool) (float64, error) {
		dir := filepath.Join(j.dir, name)
		defer os.RemoveAll(dir)
		st, err := wal.Create(wal.Options{Dir: dir, Tree: treeConfig, NoSync: noSync})
		if err != nil {
			return 0, err
		}
		defer st.Close()
		if _, err := st.ApplyBatch(insertOps(preload)); err != nil {
			return 0, err
		}
		if err := st.Checkpoint(); err != nil {
			return 0, err
		}
		s, err := newOpStream(preload, j.pool)
		if err != nil {
			return 0, err
		}
		logSize := func() int64 {
			info, err := os.Stat(filepath.Join(dir, "wal.log"))
			if err != nil {
				return 0
			}
			return info.Size()
		}
		// The batches are built before the clock starts: unsynced, a
		// batch costs little more than generating it.
		batches := make([][]wal.Op, 100)
		for b := range batches {
			for i := 0; i < batch; i++ {
				batches[b] = append(batches[b], walOp(s.next()))
			}
		}
		size, next := logSize(), 0
		ns, err := timeN(len(batches), func() error {
			_, err := st.ApplyBatch(batches[next])
			next++
			return err
		})
		if err != nil || noSync {
			return ns, err
		}
		j.m.set("wal.log_bytes_per_op", float64(logSize()-size)/float64(len(batches)*batch), len(batches)*batch)
		ckpt, err := timeN(3, st.Checkpoint)
		if err != nil {
			return 0, err
		}
		j.m.set("wal.checkpoint_ms", ms(ckpt), 3)
		snap, err := st.Tree().EncodeSnapshot()
		if err != nil {
			return 0, err
		}
		page := st.Options().PageSize
		j.m.set("wal.checkpoint_bytes", float64((len(snap)+page-1)/page*page), 1)
		return ns, nil
	}
	synced, err := twin("twin-sync", false)
	if err != nil {
		return err
	}
	unsynced, err := twin("twin-nosync", true)
	if err != nil {
		return err
	}
	j.m.set("wal.apply_batch_us", us(synced), 100)
	j.m.set("wal.apply_batch_nosync_us", us(unsynced), 100)
	j.m.set("wal.fsync_us", us(synced-unsynced), 100) // derived
	// Derived, informational: what of the median ack is not the service
	// time of one mean batch.
	j.m.set("serve.queue_wait_us", 1000*j.m.values["write_p50_ms"].Value-us(synced), 0)
	return nil
}

// walOp is a generated mutation as the store's batch API takes it.
func walOp(op writeOp) wal.Op {
	switch op.kind {
	case opInsert:
		return wal.Op{Type: wal.TypeInsert, Rec: op.rec}
	case opDelete:
		return wal.Op{Type: wal.TypeDelete, ID: op.old.ID, OldQI: op.old.QI}
	default:
		return wal.Op{Type: wal.TypeUpdate, Rec: op.rec, ID: op.old.ID, OldQI: op.old.QI}
	}
}

// readProbes times the read path's layers one by one on the releases of
// the recovered, quiescent target.
func (j *journey) readProbes() error {
	base, coarse, err := j.tgt.releases()
	if err != nil {
		return err
	}
	ns, err := timeN(5, func() error {
		_, err := core.LeafScanP(base, anonmodel.KAnonymity{K: readK}, 0)
		return err
	})
	if err != nil {
		return err
	}
	j.m.set("core.leafscan_ms", ms(ns), 5)

	var ix *routing.Index
	if ns, err = timeN(5, func() (err error) { ix, err = routing.Build(coarse, routing.Options{}); return }); err != nil {
		return err
	}
	j.m.set("routing.build_ms", ms(ns), 5)
	j.m.set("routing.blocks", float64(ix.NumBlocks()), 0)
	j.m.set("routing.partitions", float64(ix.Len()), 0)
	if ns, err = timeN(3, func() error { return verify.Routing(ix, coarse) }); err != nil {
		return err
	}
	j.m.set("verify.routing_ms", ms(ns), 3)

	pts, rgs := j.qs.points, j.qs.ranges
	var sc routing.Scratch
	sink := 0.0
	j.m.set("routing.point_ns", perQuery(20, len(pts), func() {
		for _, q := range pts {
			sink += float64(ix.PointCount(q.point, &sc))
		}
	}), 20*len(pts))
	j.m.set("routing.range_us", us(perQuery(5, len(rgs), func() {
		for _, q := range rgs {
			sink += float64(ix.RangeCount(q.box, &sc))
		}
	})), 5*len(rgs))
	j.m.set("routing.estimate_us", us(perQuery(5, len(rgs), func() {
		for _, q := range rgs {
			sink += ix.Estimate(q.box, &sc)
		}
	})), 5*len(rgs))

	quant := ix.Quantizer()
	var keys uint64
	for metric, curve := range map[string]sfc.Curve{"sfc.key_ns": sfc.ZOrder, "sfc.hilbert_key_ns": sfc.Hilbert} {
		j.m.set(metric, perQuery(20, len(pts), func() {
			for _, q := range pts {
				keys += quant.Key(curve, q.point)
			}
		}), 20*len(pts))
	}

	counter, linear := query.NewCounter(coarse, ix), query.NewCounter(coarse, nil)
	j.m.set("query.counter_point_ns", perQuery(20, len(pts), func() {
		for _, q := range pts {
			sink += float64(counter.Point(q.point))
		}
	}), 20*len(pts))
	j.m.set("query.linear_point_us", us(perQuery(3, len(pts), func() {
		for _, q := range pts {
			sink += float64(query.CountAnonymizedPoint(coarse, q.point))
		}
	})), 3*len(pts))
	j.m.set("query.linear_range_us", us(perQuery(3, len(rgs), func() {
		for _, q := range rgs {
			sink += float64(linear.Range(q.box))
		}
	})), 3*len(rgs))
	if math.IsNaN(sink) || keys == 1 {
		return fmt.Errorf("read probes: impossible checksum") // keeps the loops' results live
	}

	if f, ok := j.tgt.(*fleetTarget); ok {
		return j.fleetProbes(f, base)
	}
	return nil
}

// fleetProbes times the coordinator's own products on a quiescent fleet.
func (j *journey) fleetProbes(f *fleetTarget, base []anonmodel.Partition) error {
	table, quant, curve := f.co.Table(), f.co.Quantizer(), f.co.Curve()
	views := make([]verify.ShardView, len(table))
	for i, r := range table {
		views[i].Range = r
	}
	// The joint base release is the shards' releases laid end to end;
	// a partition belongs to the shard its records route to.
	for _, p := range base {
		key := quant.Key(curve, p.Records[0].QI)
		for i, r := range table {
			if r.Contains(key) {
				views[i].Parts = append(views[i].Parts, p)
				break
			}
		}
	}
	ns, err := timeN(3, func() error { return verify.CrossShard(views, table, quant, curve, baseK) })
	if err != nil {
		return err
	}
	j.m.set("verify.crossshard_ms", ms(ns), 3)

	rgs := j.qs.ranges
	var cerr error
	j.m.set("shard.count_warm_us", us(perQuery(3, len(rgs), func() {
		for _, q := range rgs {
			if _, err := f.co.Count(q.box); err != nil {
				cerr = err
			}
		}
	})), 3*len(rgs))
	if cerr != nil {
		return cerr
	}

	// One write at a time: routing, one commit and one fsync each.
	id := j.stream.freshID + 1<<40
	ns, err = timeN(50, func() error {
		id++
		src := j.pool[int(id)%len(j.pool)]
		return f.co.Insert(attr.Record{ID: id, QI: src.QI, Sensitive: src.Sensitive})
	})
	j.m.set("shard.insert_us", us(ns), 50)
	return err
}
