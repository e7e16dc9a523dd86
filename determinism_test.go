package spatialanon

// Parallel execution in this repository promises more than "same
// records, some order": every core count must produce the identical
// anonymization — the same partitions, in the same order, with the
// same boxes, holding the same records in the same order — and, for
// the buffer-tree loader, the same I/O counters. Every parallel stage
// runs on GOMAXPROCS workers, so these tests set GOMAXPROCS per case:
// 1 is the reference execution; 2 and 8 must match it exactly (8 on a
// single-core runner still exercises the pool scheduling paths). They
// cover bulk load, tuple-at-a-time load + leaf scan, Mondrian, the
// evaluators and the serving stack.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/compact"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/fault"
	"spatialanon/internal/mondrian"
	"spatialanon/internal/quality"
	"spatialanon/internal/query"
	"spatialanon/internal/routing"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/serve"
	"spatialanon/internal/sfc"
	"spatialanon/internal/wal"
)

const detRecords = 20000 // bulk loads that route batches and split leaves many times over

var detWorkerCounts = []int{1, 2, 8}

func detRecsCopy(t *testing.T) []attr.Record {
	t.Helper()
	return dataset.GenerateLandsEnd(detRecords, benchSeed)
}

// mustEqualPartitions asserts got is exactly ref: same length, and per
// partition the same box (bitwise float equality) and the same record
// IDs in the same order.
func mustEqualPartitions(t *testing.T, label string, ref, got []anonmodel.Partition) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d partitions, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		r, g := ref[i], got[i]
		if len(g.Box) != len(r.Box) {
			t.Fatalf("%s: partition %d box dims %d, want %d", label, i, len(g.Box), len(r.Box))
		}
		for d := range r.Box {
			if g.Box[d] != r.Box[d] {
				t.Fatalf("%s: partition %d axis %d box %v, want %v", label, i, d, g.Box[d], r.Box[d])
			}
		}
		if len(g.Records) != len(r.Records) {
			t.Fatalf("%s: partition %d holds %d records, want %d", label, i, len(g.Records), len(r.Records))
		}
		for j := range r.Records {
			if g.Records[j].ID != r.Records[j].ID {
				t.Fatalf("%s: partition %d record %d has ID %d, want %d", label, i, j, g.Records[j].ID, r.Records[j].ID)
			}
		}
	}
}

func buildBulk(t *testing.T, workers int) (*core.RTreeAnonymizer, []anonmodel.Partition, []anonmodel.Partition) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema:   dataset.LandsEndSchema(),
		BaseK:    5,
		BulkLoad: &rplustree.BulkLoadConfig{RecordBytes: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Load(detRecsCopy(t)); err != nil {
		t.Fatal(err)
	}
	base, err := rt.Partitions(0)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := rt.Partitions(25)
	if err != nil {
		t.Fatal(err)
	}
	return rt, base, coarse
}

// TestParallelBulkLoadDeterministic: the buffer-tree load, the split
// cascades it triggers, and the leaf-scan publication must all be
// invariant under GOMAXPROCS — including the pager's I/O counters,
// which stay equal because the load runs on the calling goroutine and
// only the leaf scan fans out.
func TestParallelBulkLoadDeterministic(t *testing.T) {
	refRT, refBase, refCoarse := buildBulk(t, 1)
	refReads, refWrites := refRT.IOStats()
	for _, w := range detWorkerCounts[1:] {
		rt, base, coarse := buildBulk(t, w)
		mustEqualPartitions(t, "bulk base", refBase, base)
		mustEqualPartitions(t, "bulk k=25", refCoarse, coarse)
		reads, writes := rt.IOStats()
		if reads != refReads || writes != refWrites {
			t.Fatalf("workers=%d: I/O %d reads/%d writes, want %d/%d — parallelism leaked into the storage schedule",
				w, reads, writes, refReads, refWrites)
		}
		if err := rt.Tree().CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
	}
}

// TestParallelTupleLoadDeterministic covers the tuple-at-a-time path:
// inserts and their split cascades are serial, and the leaf-scan
// publication goes through the parallel layer.
func TestParallelTupleLoadDeterministic(t *testing.T) {
	build := func(w int) []anonmodel.Partition {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
		rt, err := core.NewRTreeAnonymizer(core.RTreeConfig{
			Schema: dataset.LandsEndSchema(),
			BaseK:  5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Load(detRecsCopy(t)); err != nil {
			t.Fatal(err)
		}
		ps, err := rt.Partitions(10)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	ref := build(1)
	for _, w := range detWorkerCounts[1:] {
		mustEqualPartitions(t, "tuple k=10", ref, build(w))
	}
}

// TestParallelMondrianDeterministic: the fork-join recursion assembles
// its output left-half-first at every cut, so the partition list is
// the serial one at every GOMAXPROCS, in both strict and relaxed
// mode, with and without compaction.
func TestParallelMondrianDeterministic(t *testing.T) {
	for _, relaxed := range []bool{false, true} {
		run := func(w int) (ps, compacted []anonmodel.Partition) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			ps, err := mondrian.Anonymize(dataset.LandsEndSchema(), detRecsCopy(t), mondrian.Options{
				Constraint: anonmodel.KAnonymity{K: 10},
				Relaxed:    relaxed,
			})
			if err != nil {
				t.Fatal(err)
			}
			return ps, compact.Partitions(ps)
		}
		ref, refC := run(1)
		for _, w := range detWorkerCounts[1:] {
			got, gotC := run(w)
			mustEqualPartitions(t, "mondrian", ref, got)
			mustEqualPartitions(t, "mondrian+compact", refC, gotC)
		}
	}
}

// servingOps builds a deterministic churn stream: a load of inserts,
// then interleaved deletes and relocations of a fixed subset. The
// stream is pure function of the seed, so every chunking of it must
// drive the store to the identical state.
func servingOps(n int) []wal.Op {
	recs := dataset.GenerateLandsEnd(n, benchSeed)
	ops := make([]wal.Op, 0, n+2*(n/5))
	for _, r := range recs {
		ops = append(ops, wal.Op{Type: wal.TypeInsert, Rec: r})
	}
	for i := 0; i < n; i += 5 {
		r := recs[i]
		if i%2 == 0 {
			ops = append(ops, wal.Op{Type: wal.TypeDelete, ID: r.ID, OldQI: r.QI})
		} else {
			moved := attr.Record{ID: r.ID, QI: append([]float64(nil), r.QI...), Sensitive: r.Sensitive}
			moved.QI[0] += 1
			ops = append(ops, wal.Op{Type: wal.TypeUpdate, ID: r.ID, OldQI: r.QI, Rec: moved})
		}
	}
	return ops
}

// TestServingLayerDeterministic pins the serving layer to the
// byte-equality contract: the same operation stream, group-committed
// in any batch chunking and served at any core count (GOMAXPROCS, the
// worker count of the release scans), must publish the identical
// releases and the identical query answers as the chunk=1, workers=1
// reference — and as the durable store's own scan.
func TestServingLayerDeterministic(t *testing.T) {
	const nRecs = 4000
	ops := servingOps(nRecs)
	queries := query.FullRangeWorkload(dataset.GenerateLandsEnd(nRecs, benchSeed), 50, benchSeed)

	type outputs struct {
		base, coarse []anonmodel.Partition
		res          []query.Result
	}
	build := func(chunk, workers int) outputs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		st, err := wal.Create(wal.Options{
			Dir:    t.TempDir(),
			Tree:   rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 5},
			NoSync: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for off := 0; off < len(ops); off += chunk {
			end := off + chunk
			if end > len(ops) {
				end = len(ops)
			}
			if _, err := st.ApplyBatch(ops[off:end]); err != nil {
				t.Fatalf("chunk=%d off=%d: %v", chunk, off, err)
			}
		}
		s, err := serve.New(st, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		v := s.View()
		base, err := v.Release(0)
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := v.Release(25)
		if err != nil {
			t.Fatal(err)
		}
		res, err := query.Evaluate(base, v.Records(), queries)
		if err != nil {
			t.Fatal(err)
		}
		// The serving layer's base release must equal the durable
		// store's own scan of the same state.
		direct, err := st.Release(0)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualPartitions(t, "serve vs store release", direct, base)
		return outputs{base: base, coarse: coarse, res: res}
	}

	ref := build(1, 1)
	for _, chunk := range []int{7, 64} {
		for _, w := range detWorkerCounts {
			got := build(chunk, w)
			mustEqualPartitions(t, "serve base", ref.base, got.base)
			mustEqualPartitions(t, "serve k=25", ref.coarse, got.coarse)
			for i := range ref.res {
				if got.res[i].Original != ref.res[i].Original || got.res[i].Anonymized != ref.res[i].Anonymized || got.res[i].Err != ref.res[i].Err {
					t.Fatalf("chunk=%d workers=%d: query %d result %+v, want %+v", chunk, w, i, got.res[i], ref.res[i])
				}
			}
		}
	}
}

// TestServerPathDeterministic drives the same stream through the
// group-commit front end itself (sequential submits, so batches and
// epochs are reproducible) and checks the served release equals the
// ApplyBatch reference.
func TestServerPathDeterministic(t *testing.T) {
	const nRecs = 2000
	ops := servingOps(nRecs)

	runServer := func(maxBatch int) []anonmodel.Partition {
		st, err := wal.Create(wal.Options{
			Dir:    t.TempDir(),
			Tree:   rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 5},
			NoSync: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s, err := serve.New(st, serve.Options{MaxBatch: maxBatch})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, op := range ops {
			switch op.Type {
			case wal.TypeInsert:
				err = s.Insert(op.Rec)
			case wal.TypeDelete:
				_, err = s.Delete(op.ID, op.OldQI)
			case wal.TypeUpdate:
				_, err = s.Update(op.ID, op.OldQI, op.Rec)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ps, err := s.View().Release(0)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}

	refStore, err := wal.Create(wal.Options{
		Dir:    t.TempDir(),
		Tree:   rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 5},
		NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer refStore.Close()
	if _, err := refStore.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	ref, err := refStore.Release(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mb := range []int{1, 64} {
		mustEqualPartitions(t, "server path", ref, runServer(mb))
	}
}

// TestDegradedReadsDeterministic extends the byte-equality contract
// into the failure path: when a deterministic fault schedule poisons
// the store mid-stream, the degraded-readonly server keeps serving its
// last published epoch — and that epoch, read at any core count
// (GOMAXPROCS), must be identical to the workers=1 reference, down to
// record order.
// Degradation must not cost determinism.
func TestDegradedReadsDeterministic(t *testing.T) {
	const nRecs = 300
	recs := dataset.GenerateLandsEnd(nRecs, benchSeed)

	build := func(w int) (int, []anonmodel.Partition) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
		st, err := wal.Create(wal.Options{
			Dir:    t.TempDir(),
			Tree:   rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 5},
			NoSync: true,
			// One permanent device fault at a fixed point of the schedule:
			// sequential submits make the append sequence — and therefore
			// the poisoning ack boundary — a pure function of the seed.
			AppendFault: fault.NewInjector(1, fault.Config{
				PermanentWriteRate: 1,
				After:              2 + 2*120,
				MaxFaults:          1,
			}).Log,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s, err := serve.New(st, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		acked := 0
		var failErr error
		for _, r := range recs {
			if err := s.Insert(r); err != nil {
				failErr = err
				break
			}
			acked++
		}
		if failErr == nil {
			t.Fatal("fault schedule never fired")
		}
		if !errors.Is(failErr, serve.ErrDegraded) || !errors.Is(failErr, wal.ErrPoisoned) {
			t.Fatalf("workers=%d: poisoning surfaced untyped: %v", w, failErr)
		}
		if got := s.State(); got != serve.StateDegraded {
			t.Fatalf("workers=%d: state %v after poisoning", w, got)
		}
		// Writes stay refused with the same typed error...
		if err := s.Insert(recs[acked]); !errors.Is(err, serve.ErrDegraded) {
			t.Fatalf("workers=%d: degraded write rejection: %v", w, err)
		}
		// ...while reads serve the last published epoch.
		ps, err := s.View().Release(0)
		if err != nil {
			t.Fatalf("workers=%d: degraded read: %v", w, err)
		}
		return acked, ps
	}

	refAcked, ref := build(1)
	if refAcked < 5 {
		t.Fatalf("reference acknowledged only %d records before poisoning", refAcked)
	}
	for _, w := range detWorkerCounts[1:] {
		acked, got := build(w)
		if acked != refAcked {
			t.Fatalf("workers=%d acknowledged %d records before poisoning, reference %d", w, acked, refAcked)
		}
		mustEqualPartitions(t, fmt.Sprintf("degraded read workers=%d", w), ref, got)
	}
}

// TestParallelEvaluatorsDeterministic: the metric and query evaluators
// must return the identical values at every GOMAXPROCS — Measure by
// its fixed chunked reduction, Evaluate because queries never share
// accumulators.
func TestParallelEvaluatorsDeterministic(t *testing.T) {
	recs := detRecsCopy(t)
	schema := dataset.LandsEndSchema()
	domain := attr.DomainOf(schema.Dims(), recs)
	ps, err := mondrian.Anonymize(schema, detRecsCopy(t), mondrian.Options{
		Constraint: anonmodel.KAnonymity{K: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := query.FullRangeWorkload(recs, 100, benchSeed)
	eval := func(w int) (quality.Report, []query.Result) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
		res, err := query.Evaluate(ps, recs, queries)
		if err != nil {
			t.Fatal(err)
		}
		return quality.Measure(schema, ps, domain), res
	}
	refRep, refRes := eval(1)
	for _, w := range detWorkerCounts[1:] {
		rep, res := eval(w)
		// KL is excluded: its map-ordered inner sum varies run to run
		// even serially; DM and CM must match bit for bit.
		if rep.Partitions != refRep.Partitions || rep.Discernibility != refRep.Discernibility || rep.Certainty != refRep.Certainty {
			t.Fatalf("workers=%d: Measure %+v, want %+v", w, rep, refRep)
		}
		for i := range refRes {
			if res[i].Original != refRes[i].Original || res[i].Anonymized != refRes[i].Anonymized || res[i].Err != refRes[i].Err {
				t.Fatalf("workers=%d: query %d result %+v, want %+v", w, i, res[i], refRes[i])
			}
		}
	}
}

// TestRoutingAcceleratorDeterministic pins the read accelerator to the
// byte-equality contract: for every curve, block size and serving
// core count (GOMAXPROCS), the accelerated point, range and estimate
// answers must be identical — counts exactly, estimates bit for bit —
// to the linear reference scan over the same release. The accelerator may prune
// differently per configuration; it may never answer differently.
func TestRoutingAcceleratorDeterministic(t *testing.T) {
	const nRecs = 4000
	recs := dataset.GenerateLandsEnd(nRecs, benchSeed)
	points := query.PointWorkload(recs, 100, benchSeed+1)
	ranges := query.FullRangeWorkload(recs, 100, benchSeed+2)

	release := func(workers int) []anonmodel.Partition {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		st, err := wal.Create(wal.Options{
			Dir:    t.TempDir(),
			Tree:   rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: 5},
			NoSync: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ops := make([]wal.Op, len(recs))
		for i, r := range recs {
			ops[i] = wal.Op{Type: wal.TypeInsert, Rec: r}
		}
		if _, err := st.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		s, err := serve.New(st, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ps, err := s.View().Release(0)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}

	ref := release(1)
	wantPoint := make([]int, len(points))
	for i, p := range points {
		wantPoint[i] = query.CountAnonymizedPoint(ref, p)
	}
	wantRange := make([]int, len(ranges))
	wantEst := make([]uint64, len(ranges))
	for i, q := range ranges {
		wantRange[i] = query.CountAnonymized(ref, q)
		wantEst[i] = math.Float64bits(query.EstimateUniform(ref, q))
	}

	for _, w := range detWorkerCounts {
		ps := release(w)
		mustEqualPartitions(t, fmt.Sprintf("accel release workers=%d", w), ref, ps)
		for _, curve := range []sfc.Curve{sfc.ZOrder, sfc.Hilbert} {
			for _, block := range []int{1, 16, 256} {
				ix, err := routing.Build(ps, routing.Options{Curve: curve, BlockSize: block})
				if err != nil {
					t.Fatal(err)
				}
				var s routing.Scratch
				label := fmt.Sprintf("workers=%d curve=%v block=%d", w, curve, block)
				for i, p := range points {
					if got := ix.PointCount(p, &s); got != wantPoint[i] {
						t.Fatalf("%s: point %d answered %d, reference %d", label, i, got, wantPoint[i])
					}
				}
				for i, q := range ranges {
					if got := ix.RangeCount(q, &s); got != wantRange[i] {
						t.Fatalf("%s: range %d answered %d, reference %d", label, i, got, wantRange[i])
					}
					if got := math.Float64bits(ix.Estimate(q, &s)); got != wantEst[i] {
						t.Fatalf("%s: estimate %d bits %x, reference %x", label, i, got, wantEst[i])
					}
				}
			}
		}
	}
}
