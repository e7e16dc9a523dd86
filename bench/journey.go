package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/detrng"
	"spatialanon/internal/quality"
	"spatialanon/internal/query"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

// Seed streams: every input of a run derives from -seed through one of
// these.
const (
	streamData = iota
	streamPool
	streamPoints
	streamRanges
	streamWrites
	streamReads
	streamLadder
)

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Classes   map[string]classStat   `json:"classes"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Problems lists every correctness gate that failed and the first
	// error of every op class that had one.
	Problems []string `json:"problems,omitempty"`
}

// journey is one run: the same stages on every workload.
//
//	set-up     generate the records, build the target, preload it
//	nominal    open-loop writers, on two workloads with an open-loop reader beside them
//	reads      the reader alone: one write, a refresh, loops of warm queries, round after round
//	saturate   closed-loop writes, 32 in flight
//	recover    close with an un-checkpointed tail, then reopen to the first audited release
//	publish    bulk-load, release at three granularities and audit the records, rep after rep
//
// and, last, set-up again several times, so its time is the fastest of a few.
type journey struct {
	w      workload
	opt    options
	tr     *tracer
	m      *metricSet
	res    runResult
	dir    string
	budget time.Duration // -seconds, a third of it when traced

	data, pool []attr.Record
	qs         queries
	tgt        target
	stream     *opStream
	model      fingerprint
	setups     []float64
}

func runJourney(w workload, opt options) (runResult, error) {
	j := &journey{
		w: w, opt: opt, m: newMetricSet(append(append([]metricDef(nil), endToEnd...), perLayer...)),
		res:    runResult{Workload: w.name, Traced: opt.trace, Classes: make(map[string]classStat)},
		budget: time.Duration(opt.seconds * float64(time.Second)),
	}
	if opt.trace {
		j.tr = newTracer(w.name)
		j.budget /= 3
	}
	dir, err := os.MkdirTemp(opt.dir, "bench-"+w.name+"-")
	if err != nil {
		return j.res, err
	}
	j.dir = dir
	defer os.RemoveAll(dir)

	err = j.run()
	if j.tgt != nil {
		err = errors.Join(err, j.tgt.close())
	}
	if err != nil {
		return j.res, err
	}
	j.runtimeMetrics()
	if j.tr != nil {
		if err := j.tr.write(filepath.Join(opt.outDir, w.name+".trace.json")); err != nil {
			return j.res, err
		}
	}
	j.res.Metrics = j.m.complete()
	j.res.Correct = len(j.res.Problems) == 0
	return j.res, nil
}

func (j *journey) share(s float64) time.Duration {
	return time.Duration(s * float64(j.budget))
}

func (j *journey) seed(stream int64) int64 { return detrng.Derive(j.opt.seed, stream) }

// problem records a failed correctness gate; the run goes on so the
// report shows everything that is wrong.
func (j *journey) problem(format string, args ...any) {
	j.res.Problems = append(j.res.Problems, fmt.Sprintf(format, args...))
}

func (j *journey) tally(name string, c classStat, firstErr error) {
	t := j.res.Classes[name]
	t.Attempted += c.Attempted
	t.Failed += c.Failed
	j.res.Classes[name] = t
	j.res.Attempted += c.Attempted
	j.res.Failed += c.Failed
	if firstErr != nil {
		j.problem("%s: %v", name, firstErr)
	}
}

func (j *journey) run() error {
	// Set-up: the inputs, then the target.
	t0 := time.Now()
	j.generate()
	t1 := time.Now()
	tgt, err := buildTarget(j.w.target, filepath.Join(j.dir, "main"), j.data[:j.w.storeN])
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	t2 := time.Now()
	j.m.set("dataset.generate_ms", ms(float64(t1.Sub(t0))), 1)
	j.tr.put(0, 0, j.tr.op(), "setup", "dataset.generate", t0, t1)
	j.tr.put(0, 0, j.tr.op(), "setup", "target.build", t1, t2)
	j.setups = append(j.setups, t2.Sub(t0).Seconds())
	j.tgt = tgt

	// The serving stages use the stored prefix only: let go of the rest,
	// so a large table waiting to be published is not marked by every
	// collection while a small store is being timed.
	j.data = append([]attr.Record(nil), j.data[:j.w.storeN]...)
	runtime.GC()
	j.model = fingerprintOf(j.data)
	if j.stream, err = newOpStream(j.data, j.pool); err != nil {
		return err
	}
	if f, ok := tgt.(*fleetTarget); ok {
		j.stream.seam = f.seam()
	}

	if j.tr != nil {
		// The same nominal phase with recording off, so the traced one
		// has something to be compared with.
		plain := j.nominal("nominal.untraced", nil)
		traced := j.nominal("nominal", j.tr)
		if p := plain.lat.steady(0.5); p > 0 {
			j.m.set("bench.trace_overhead_pct", 100*(traced.lat.steady(0.5)-p)/p, len(traced.lat))
		}
		j.ladder()
	} else {
		j.nominal("nominal", nil)
	}
	j.quietReads()
	if err := j.tgt.audit(j.qs); err != nil {
		j.problem("audit: %v", err)
	}
	j.saturate()
	j.settle()
	if err := j.counterGates(); err != nil {
		return err
	}
	j.checkModel("before close")
	if err := j.recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	j.generate() // the whole table again, for the publisher
	if j.tr != nil {
		if err := j.probes(); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}
	// The publisher needs no store: close it, so the publish stage has
	// the process to itself.
	err = j.tgt.close()
	j.tgt = nil
	if err != nil {
		return err
	}
	if err := j.publish(); err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	j.m.set("peak_rss_mb", peakRSSMB(), 1)
	return j.moreSetups()
}

// generate derives every input from the seed.
func (j *journey) generate() {
	j.data = dataset.GenerateLandsEnd(j.w.n, j.seed(streamData))
	j.pool = dataset.GenerateLandsEnd(poolRecords, j.seed(streamPool))
	stored := j.data[:j.w.storeN]
	j.w.target.domain = paddedDomain(stored, j.pool)
	pts := query.PointWorkload(stored, pointQueries, j.seed(streamPoints))
	rgs := query.FullRangeWorkload(stored, rangeQueries, j.seed(streamRanges))
	j.qs = queries{}
	for _, p := range pts {
		j.qs.points = append(j.qs.points, readQuery{box: attr.PointBox(p), point: p})
	}
	for _, r := range rgs {
		j.qs.ranges = append(j.qs.ranges, readQuery{box: r})
	}
}

// granularities of the multi-granular release.
var granularities = []int{baseK, 50, 250}

// bulkLoad is the buffer-tree loader in its out-of-core regime.
func bulkLoad() *rplustree.BulkLoadConfig {
	return &rplustree.BulkLoadConfig{MemoryBytes: 8 << 20, RecordBytes: recordBytes}
}

// publishRep is one timed publish: load, release, audit.
type publishRep struct {
	steps         [5]time.Duration // load, multigranular, verify.tree, verify.release ×3, verify.releases
	total         time.Duration
	cm            float64
	reads, writes int64
}

var publishSteps = [5]string{"rplustree.bulk_load", "core.multigranular", "verify.tree", "verify.release", "verify.releases"}

// publishOnce runs the paper's own path on recs: index them through the
// buffer-tree loader, derive the releases by leaf scan, and audit the
// tree, each release, and the set (Lemma 1).
func publishOnce(recs []attr.Record, domain attr.Box, tr *tracer) (publishRep, error) {
	var rep publishRep
	var stamps [6]time.Time
	stamps[0] = time.Now()
	a, err := core.NewRTreeAnonymizer(core.RTreeConfig{Schema: schema, BaseK: baseK, BulkLoad: bulkLoad()})
	if err != nil {
		return rep, err
	}
	if err := a.Load(recs); err != nil {
		return rep, err
	}
	stamps[1] = time.Now()
	rels, err := a.MultiGranular(granularities)
	if err != nil {
		return rep, err
	}
	stamps[2] = time.Now()
	if err := verify.Tree(a.Tree(), verify.TreeOptions{}); err != nil {
		return rep, err
	}
	stamps[3] = time.Now()
	sets := make([][]anonmodel.Partition, len(rels))
	for i, r := range rels {
		if err := verify.Release(r.Partitions, anonmodel.KAnonymity{K: r.Granularity}); err != nil {
			return rep, err
		}
		sets[i] = r.Partitions
	}
	stamps[4] = time.Now()
	if err := verify.Releases(sets, baseK); err != nil {
		return rep, err
	}
	stamps[5] = time.Now()

	rep.total = stamps[5].Sub(stamps[0])
	id, op := tr.id(), tr.op()
	for i := range rep.steps {
		rep.steps[i] = stamps[i+1].Sub(stamps[i])
		tr.put(0, id, op, "publish", publishSteps[i], stamps[i], stamps[i+1])
	}
	tr.put(id, 0, op, "publish", "publish.rep", stamps[0], stamps[5])
	for _, set := range sets {
		if got := anonmodel.TotalRecords(set); got != len(recs) {
			return rep, fmt.Errorf("a release holds %d records, %d were published", got, len(recs))
		}
	}
	rep.cm = quality.Certainty(schema, sets[0], domain)
	rep.reads, rep.writes = a.IOStats()
	return rep, nil
}

// publish runs one discarded rep, then timed reps until the stage's
// share of the run is used.
func (j *journey) publish() error {
	domain := attr.DomainOf(schema.Dims(), j.data)
	var reps []publishRep
	begin := time.Now()
	for i := 0; i <= minPublishReps || time.Since(begin) < j.share(j.w.publishShare); i++ {
		runtime.GC() // each rep starts from a collected heap
		var tr *tracer
		if i > 0 {
			tr = j.tr
		}
		rep, err := publishOnce(j.data, domain, tr)
		if err != nil {
			j.tally("publish", classStat{Attempted: 1, Failed: 1}, err)
			return err
		}
		if i > 0 {
			reps = append(reps, rep)
		}
		j.tally("publish", classStat{Attempted: 1}, nil)
	}

	first := reps[0]
	totals := make([]float64, len(reps))
	var covered, wall time.Duration
	for i, r := range reps {
		if r.cm != first.cm || r.reads != first.reads || r.writes != first.writes {
			j.problem("publish rep %d: cm %v, pager %d/%d differ from rep 0: %v, %d/%d",
				i, r.cm, r.reads, r.writes, first.cm, first.reads, first.writes)
		}
		totals[i] = r.total.Seconds()
		wall += r.total
		for _, s := range r.steps {
			covered += s
		}
	}
	j.m.set("publish_records_per_s", float64(len(j.data))/fastest(totals), len(reps))
	j.m.set("release_cm", first.cm, len(reps))
	j.m.set("pager.bulk_reads", float64(first.reads), len(reps))
	j.m.set("pager.bulk_writes", float64(first.writes), len(reps))
	j.m.set("bench.publish_span_cover_pct", 100*float64(covered)/float64(wall), len(reps))
	for s, name := range publishSteps {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = ms(float64(r.steps[s]))
		}
		j.m.set(name+"_ms", median(xs), len(reps))
	}
	j.tr.count("publish", "pager.bulk_reads", float64(first.reads))
	j.tr.count("publish", "pager.bulk_writes", float64(first.writes))
	return nil
}

// nominal runs the open-loop phase: writers on their seeded schedule
// and, where the workload has one, the open-loop reader beside them. It
// sets the phase's metrics unless the phase is the untraced twin of a
// traced one.
func (j *journey) nominal(phase string, tr *tracer) writeResult {
	dur := j.share(j.w.writeShare)
	before, err := j.tgt.counters()
	if err != nil {
		j.problem("%s: %v", phase, err)
	}
	written := bytesWritten()

	var reads readResult
	var wg sync.WaitGroup
	if j.w.readRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads = runReads(j.tgt, j.qs, readPhase{
				name: phase, rate: j.w.readRate, dur: dur, refreshEvery: j.w.refreshEvery,
				checkEvery: 1000, seed: j.seed(streamReads),
			}, tr)
		}()
	}
	writes := runWrites(j.tgt, j.stream, writePhase{
		name: phase, rate: j.w.writeRate, dur: dur, seed: j.seed(streamWrites),
	}, tr)
	wg.Wait()

	written = bytesWritten() - written
	after, err := j.tgt.counters()
	if err != nil {
		j.problem("%s: %v", phase, err)
	}
	j.tallyWrites(writes)
	j.tallyReads(reads.readStats)
	if phase != "nominal" {
		return writes
	}

	j.m.set("write_p50_ms", ms(writes.lat.steady(0.5)), len(writes.lat))
	tail, _ := writes.lat.steadyTail()
	j.m.set("write_p99_ms", ms(tail), len(writes.lat))
	if q, _ := tailRule(len(writes.lat)); q >= 0.999 {
		j.m.set("serve.write_p999_ms", ms(writes.lat.all().quantile(q)), len(writes.lat))
	}
	if writes.acked > 0 {
		j.m.set("write_amp", float64(written)/float64(recordBytes*writes.acked), writes.acked)
	}
	tail, _ = reads.lat.steadyTail()
	j.m.set("read_p99_ms", ms(tail), len(reads.lat))
	late := append(append(sample(nil), writes.late...), reads.late...).sorted()
	j.m.set("bench.gen_late_p99_us", us(late.quantile(0.99)), len(late))

	ops, batches := after.ops-before.ops, after.batches-before.batches
	j.m.set("serve.batches", float64(batches), 0)
	j.m.set("serve.epochs", float64(after.epochs-before.epochs), 0)
	j.m.set("serve.max_batch", float64(after.maxBatch), 0)
	if batches > 0 {
		j.m.set("serve.ops_per_fsync", float64(ops)/float64(batches), int(batches))
	}
	j.m.set("shard.cross_seam_updates", float64(len(writes.seamLat)), 0)
	j.m.set("shard.cross_seam_p50_ms", ms(writes.seamLat.quantile(0.5)), len(writes.seamLat))
	if every := int64(j.w.target.checkpointEvery); every > 0 {
		// Derived: a store checkpoints once per checkpointEvery logged ops.
		j.m.set("wal.checkpoints", float64(ops/every), 0)
	}
	tr.count(phase, "serve.batches", float64(batches))
	tr.count(phase, "serve.ops", float64(ops))
	tr.count(phase, "process.bytes_written", float64(written))
	return writes
}

// quietReads gives the reader the system to itself: each round one
// write moves the epoch, the reader refreshes, then times loops of warm
// queries. The read metrics come from here, where nothing else competes
// for the two cores.
func (j *journey) quietReads() {
	advance := func() error {
		r := runWrites(j.tgt, j.stream, writePhase{name: "reads", count: 1}, nil)
		j.tallyWrites(r)
		return r.firstErr
	}
	r := runQuietReads(j.tgt, advance, j.qs, "reads", j.share(j.w.readShare), j.tr)
	j.tallyReads(r.readStats)
	j.m.set("point_p50_us", us(r.service[readPoint].steady(0.5)), len(r.service[readPoint]))
	j.m.set("range_p50_us", us(r.service[readRange].steady(0.5)), len(r.service[readRange]))
	j.m.set("count_p50_us", us(r.service[readCount].steady(0.5)), len(r.service[readCount]))
	j.m.set("epoch_warm_p50_ms", ms(r.warm.steady(0.5)), len(r.warm))
	j.m.set("release_p50_ms", ms(r.release.steady(0.5)), len(r.release))
}

func (j *journey) tallyReads(r readStats) {
	for k, c := range r.classes {
		j.tally(readKindNames[k], c, nil)
	}
	j.tally("read.refresh", r.refresh, r.firstErr)
}

func (j *journey) tallyWrites(r writeResult) {
	for k, c := range r.classes {
		j.tally(opKindNames[k], c, nil)
	}
	if r.firstErr != nil {
		j.problem("write: %v", r.firstErr)
	}
	j.model.merge(r.delta)
}

// saturate keeps 32 writes in flight: closed-loop, so the rate is the
// system's, not the generator's.
func (j *journey) saturate() {
	r := runWrites(j.tgt, j.stream, writePhase{name: "saturate", dur: j.share(j.w.saturateShare)}, j.tr)
	j.tallyWrites(r)
	j.m.set("write_sat_ops_s", r.acks.steadyRate(), r.acked)
	j.tr.count("saturate", "acked", float64(r.acked))
}

// settle writes on until the log's un-checkpointed tail is half a
// checkpoint interval long, so that every run recovers the same amount
// of work: a store checkpoints every checkpointEvery logged operations,
// and the stream knows how many it has sent. (A fleet splits the ops
// over its shards by key, so its tails are only that long on average.)
func (j *journey) settle() {
	every := j.w.target.checkpointEvery * max(1, j.w.target.shards)
	n := (every/2 - j.stream.n%every + every) % every
	if n == 0 {
		return
	}
	j.tallyWrites(runWrites(j.tgt, j.stream, writePhase{name: "settle", count: n}, nil))
}

// counterGates reads the layers' own failure counters: a shed, expired
// or partial operation is a failed one even if no caller saw it.
func (j *journey) counterGates() error {
	c, err := j.tgt.counters()
	if err != nil {
		return err
	}
	j.m.set("serve.shed", float64(c.shed), 0)
	j.m.set("serve.expired", float64(c.expired), 0)
	j.m.set("serve.retries", float64(c.retries), 0)
	j.m.set("shard.partials", float64(c.partials), 0)
	j.m.set("shard.retries", float64(c.coordRetries), 0)
	if c.shed+c.expired+c.partials != 0 {
		j.problem("%d shed, %d expired, %d partial", c.shed, c.expired, c.partials)
	}
	if len(c.shardOps) > 0 {
		lo, hi := c.shardOps[0], c.shardOps[0]
		for _, n := range c.shardOps {
			lo, hi = min(lo, n), max(hi, n)
		}
		if lo > 0 {
			j.m.set("shard.ops_skew", float64(hi)/float64(lo), 0)
		}
	}
	return nil
}

// checkModel compares the target's live records with the multiset the
// acknowledged operations define.
func (j *journey) checkModel(when string) {
	t0 := time.Now()
	recs, err := j.tgt.records()
	if err != nil {
		j.problem("records %s: %v", when, err)
		return
	}
	if j.w.target.shards > 0 {
		j.m.set("shard.export_ms", ms(float64(time.Since(t0))), 1)
	}
	if got := fingerprintOf(recs); got != j.model {
		j.problem("records %s: the target holds %d records, fingerprint %x/%x; the acknowledged operations define %d, %x/%x",
			when, got.count, got.sum, got.xor, j.model.count, j.model.sum, j.model.xor)
	}
}

// moreReps decides whether a repeated measurement (set-up, recovery)
// runs again: always minReps times, then on while the repetitions are
// cheap, so small stores get the larger sample their noise needs.
func moreReps(done int, begin time.Time) bool {
	return done < minReps || (done < maxReps && time.Since(begin) < repBudget)
}

// recover closes the target — the log carries an un-checkpointed tail —
// and times reopen to the first audited release, several times. The
// last reopened target stays open for the probes.
func (j *journey) recover() error {
	var secs, opens []float64
	begin := time.Now()
	for i := 0; moreReps(i, begin); i++ {
		if err := j.tgt.close(); err != nil {
			return err
		}
		j.tgt = nil
		id, op := j.tr.id(), j.tr.op()
		t0 := time.Now()
		tgt, rec, err := reopenTarget(j.w.target, filepath.Join(j.dir, "main"))
		if err != nil {
			j.tally("recover", classStat{Attempted: 1, Failed: 1}, err)
			return err
		}
		j.tgt = tgt
		t1 := time.Now()
		_, _, err = tgt.releases()
		t2 := time.Now()
		j.tally("recover", classStat{Attempted: 1}, err)
		secs = append(secs, t2.Sub(t0).Seconds())
		opens = append(opens, ms(float64(rec.open)))
		j.tr.put(0, id, op, "recover", "target.open", t0, t1)
		j.tr.put(0, id, op, "recover", "target.first_release", t1, t2)
		j.tr.put(id, 0, op, "recover", "recover.rep", t0, t2)
		j.checkModel(fmt.Sprintf("after reopen %d", i))
		if i == 0 {
			j.m.set("wal.replayed_ops", float64(rec.replayed), 0)
			j.m.set("wal.snapshot_bytes", float64(rec.snapshotBytes), 0)
			j.m.set("wal.log_bytes", float64(rec.logBytes), 0)
			j.m.set("pager.recover_reads", float64(rec.pagerReads), 0)
		}
	}
	j.m.set("recover_s", fastest(secs), len(secs))
	if j.w.target.shards > 0 {
		j.m.set("shard.open_ms", median(opens), len(opens))
	} else {
		j.m.set("wal.open_ms", median(opens), len(opens))
	}
	return nil
}

// moreSetups repeats the whole set-up in fresh directories, so that
// setup_s is a median and work moved into set-up shows.
func (j *journey) moreSetups() error {
	begin := time.Now()
	for i := 1; moreReps(i, begin); i++ {
		dir := filepath.Join(j.dir, "setup"+strconv.Itoa(i))
		t0 := time.Now()
		j.generate()
		tgt, err := buildTarget(j.w.target, dir, j.data[:j.w.storeN])
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		j.setups = append(j.setups, time.Since(t0).Seconds())
		if err := tgt.close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	j.m.set("setup_s", fastest(j.setups), len(j.setups))
	return nil
}

func (j *journey) runtimeMetrics() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	j.m.set("runtime.peak_rss_mb", peakRSSMB(), 1)
	j.m.set("runtime.alloc_mb", float64(ms.TotalAlloc)/(1<<20), 0)
	j.m.set("runtime.gc_cycles", float64(ms.NumGC), 0)
	j.m.set("runtime.gc_pause_total_ms", float64(ms.PauseTotalNs)/1e6, 0)
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	return procField("/proc/self/status", "VmHWM:") / 1024
}

// bytesWritten reads how many bytes the process has passed to write
// calls: log appends, page writes and manifest files, as they happen.
func bytesWritten() int64 {
	return int64(procField("/proc/self/io", "wchar:"))
}

// procField reads one numeric field of a /proc text file; 0 if the file
// or the field is missing.
func procField(path, field string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}
