package wal

import (
	"errors"
	"fmt"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/detrng"
	"spatialanon/internal/fault"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

// The crash matrix is the package's central claim, made executable:
// for a matrix of workload seeds, crash the store at EVERY durable
// operation of a churn workload — each WAL append and each checkpoint
// page write-back, with the fatal append torn by a varying fraction —
// and assert that recovery always converges to an audited, k-safe
// state whose record multiset equals a shadow replay of the committed
// log prefix. The store runs on a memFS, and every crash point is
// recovered from two images of it: process death (the files as they
// stand) and power loss (only what was synced), the second skipped where
// it is byte-identical to the first.

// churnOp is one scripted maintenance operation, and what the script
// wants done once it is applied.
type churnOp struct {
	kind  Type
	rec   attr.Record
	oldQI []float64
	then  afterOp
}

type afterOp int

const (
	goOn               afterOp = iota
	thenCheckpoint             // an incremental checkpoint
	thenFullCheckpoint         // one that rewrites everything
	thenReopen                 // an incremental one, then close and reopen — where the test can
)

// churnWorkload scripts a deterministic insert/delete/update mix. The
// generator tracks its own live set so deletes and updates target
// records that exist; determinism is what lets the same workload run
// once per crash point.
func churnWorkload(schema *attr.Schema, seed int64, n int) []churnOp {
	rng := detrng.New(seed)
	dims := schema.Dims()
	live := make(map[int64][]float64)
	var ids []int64
	nextID := int64(1)
	randQI := func() []float64 {
		qi := make([]float64, dims)
		for d := range qi {
			qi[d] = rng.Float64() * 100
		}
		return qi
	}
	ops := make([]churnOp, 0, n)
	for len(ops) < n {
		r := rng.Float64()
		switch {
		case r < 0.55 || len(ids) == 0:
			qi := randQI()
			rec := attr.Record{ID: nextID, QI: qi, Sensitive: fmt.Sprintf("s%d", nextID)}
			nextID++
			live[rec.ID] = qi
			ids = append(ids, rec.ID)
			ops = append(ops, churnOp{kind: TypeInsert, rec: rec})
		case r < 0.80:
			i := rng.Intn(len(ids))
			id := ids[i]
			ops = append(ops, churnOp{kind: TypeDelete, rec: attr.Record{ID: id}, oldQI: live[id]})
			delete(live, id)
			ids = append(ids[:i], ids[i+1:]...)
		default:
			i := rng.Intn(len(ids))
			id := ids[i]
			qi := randQI()
			ops = append(ops, churnOp{kind: TypeUpdate,
				rec:   attr.Record{ID: id, QI: qi, Sensitive: fmt.Sprintf("u%d", id)},
				oldQI: live[id]})
			live[id] = qi
		}
	}
	return ops
}

// shadowAfter replays the first n operations on a plain map — the
// reference semantics a recovered store must match.
func shadowAfter(ops []churnOp, n int) map[int64]attr.Record {
	m := make(map[int64]attr.Record)
	for _, o := range ops[:n] {
		switch o.kind {
		case TypeInsert:
			m[o.rec.ID] = o.rec
		case TypeDelete:
			delete(m, o.rec.ID)
		case TypeUpdate:
			if _, ok := m[o.rec.ID]; ok {
				m[o.rec.ID] = o.rec
			}
		}
	}
	return m
}

// applyOp drives one scripted operation through the store.
func applyOp(s *Store, o churnOp) error {
	switch o.kind {
	case TypeInsert:
		return s.Insert(o.rec)
	case TypeDelete:
		_, err := s.Delete(o.rec.ID, o.oldQI)
		return err
	case TypeUpdate:
		_, err := s.Update(o.rec.ID, o.oldQI, o.rec)
		return err
	}
	return fmt.Errorf("bad op")
}

// crashed reports whether err is, or wraps, a fired crash point.
func crashed(err error) bool { return errors.As(err, new(*fault.CrashError)) }

// runUntilCrash creates a store and runs the workload until the injected
// crash fires (or the workload completes). It returns how many
// operations were acknowledged and whether Create itself survived.
func runUntilCrash(t *testing.T, opts Options, ops []churnOp) (acked int, createOK bool) {
	t.Helper()
	s, err := Create(opts)
	if err != nil {
		if !crashed(err) {
			t.Fatalf("create failed without crash: %v", err)
		}
		return 0, false
	}
	defer s.Close()
	for i, o := range ops {
		if err := applyOp(s, o); err != nil {
			if !crashed(err) {
				t.Fatalf("op %d failed without crash: %v", i, err)
			}
			return i, true
		}
	}
	return len(ops), true
}

// crashCensus is every WAL crash matrix's size: the durable operations
// of each subtest's dry run, which are its crash points. The counts pin
// the shared crash clock — a change that adds, drops or reorders a page
// write or a log append on it moves one.
var crashCensus = map[string]int{}

func init() {
	for prefix, counts := range map[string][]int{
		"TestCrashMatrixRecoversEverywhere/":        {57, 57, 55, 56, 57, 56, 56, 57, 57, 57, 57, 57, 57, 57, 57, 56, 56, 57, 58, 58},
		"TestCrashMatrixGroupCommit/":               {31, 28, 26, 25, 26, 27, 27, 30, 25, 28, 27, 29},
		"TestCrashMatrixIncremental/":               {106, 91, 96, 98, 97, 91},
		"TestCrashMatrixIncremental/restructuring/": {91, 92, 85, 86, 87, 86},
		"TestCrashMatrixIncremental/deltas/":        {108, 110, 105, 90, 98, 86},
		"TestCrashMatrixIncremental/redo/":          {267},
	} {
		for seed, n := range counts {
			crashCensus[fmt.Sprintf("%sseed=%d", prefix, seed)] = n
		}
	}
}

// checkCensus asserts the running subtest's dry run counted the pinned
// number of durable operations.
func checkCensus(t *testing.T, total int) {
	t.Helper()
	if want, ok := crashCensus[t.Name()]; !ok || total != want {
		t.Fatalf("census %s: %d durable ops, want %d (pinned: %v)", t.Name(), total, want, ok)
	}
}

func TestCrashMatrixRecoversEverywhere(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	const (
		nOps  = 40
		baseK = 3
	)
	schema := dataset.LandsEndSchema()

	// Aggregate coverage flags: the matrix must actually exercise torn
	// tails and interrupted checkpoints, not just clean cut points.
	tornSeen := make([]bool, seeds)
	freedSeen := make([]bool, seeds)

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ops := churnWorkload(schema, int64(seed)+1, nOps)
			mkOpts := func(fs *memFS, crash *fault.Crash) Options {
				o := Options{
					FS:              fs,
					Tree:            rplustree.Config{Schema: schema, BaseK: baseK},
					CheckpointEvery: 9,
				}
				if crash != nil {
					o.AppendFault, o.PagerFault = crash.Log, crash.Disk
				}
				return o
			}

			// Dry run: count the workload's durable operations. That count
			// is the size of this seed's crash-point matrix.
			counter := &fault.Crash{}
			if acked, ok := runUntilCrash(t, mkOpts(newMemFS(), counter), ops); !ok || acked != nOps {
				t.Fatalf("dry run died: acked=%d ok=%v", acked, ok)
			}
			total := counter.Ops()
			checkCensus(t, total)
			if total < nOps {
				t.Fatalf("workload performed %d durable ops, fewer than its %d operations", total, nOps)
			}

			powerLoss := 0 // power-loss images recovered: those unlike their process-death image
			for at := 1; at <= total; at++ {
				torn := []float64{0, 0.5, 1}[at%3]
				crash := &fault.Crash{At: at, Torn: torn}
				fs := newMemFS()
				acked, createOK := runUntilCrash(t, mkOpts(fs, crash), ops)
				if crash.Err() == nil {
					t.Fatalf("at=%d: crash point never fired", at)
				}
				imgs := fs.images()
				powerLoss += len(imgs) - 1
				for _, img := range imgs {
					row := fmt.Sprintf("at=%d %s torn=%.1f acked=%d", at, img.name, torn, acked)
					if !createOK {
						// The store died before its first checkpoint was
						// published: there is nothing to recover, and Open must
						// say so rather than fabricate a store.
						if _, err := Open(mkOpts(img.fs, nil)); err == nil {
							t.Fatalf("%s: Open invented a store out of a dead Create", row)
						}
						continue
					}
					s, err := Open(mkOpts(img.fs, nil))
					if err != nil {
						t.Fatalf("%s: recovery failed: %v", row, err)
					}
					st := s.RecoveryStats()
					if st.TornBytes > 0 {
						tornSeen[seed] = true
					}
					if st.PagesFreed > 0 {
						freedSeen[seed] = true
					}

					// Committed-prefix contract: the recovered operation count
					// is every acknowledged op, plus at most the one in flight
					// when the crash hit (its frame may have become durable
					// before the ack was lost).
					seq := int(s.Seq())
					if seq != acked && seq != acked+1 {
						t.Fatalf("%s: recovered %d ops", row, seq)
					}
					if err := sameRecords(shadowAfter(ops, seq), storeRecords(s)); err != nil {
						t.Fatalf("%s: recovered state diverges from committed prefix: %v", row, err)
					}

					// K-safety: no leaf below k once the tree has split, and the
					// release (when one exists) passes the independent auditor.
					if s.Tree().Height() > 1 {
						if err := verify.Tree(s.Tree(), verify.TreeOptions{MinLeafOccupancy: baseK}); err != nil {
							t.Fatalf("%s: recovered tree breaks k-bound: %v", row, err)
						}
					}
					if s.Len() >= baseK {
						rel, err := s.Release(0)
						if err != nil {
							t.Fatalf("%s: release after recovery: %v", row, err)
						}
						if err := verify.Release(rel, anonmodel.KAnonymity{K: baseK}); err != nil {
							t.Fatalf("%s: recovered release unsafe: %v", row, err)
						}
					}

					// The recovered store must accept new writes and survive a
					// checkpoint (the log it recovered from gets truncated).
					if err := s.Insert(attr.Record{ID: 1 << 40, QI: ops[0].rec.QI, Sensitive: "post"}); err != nil {
						t.Fatalf("%s: insert after recovery: %v", row, err)
					}
					if err := s.Checkpoint(); err != nil {
						t.Fatalf("%s: checkpoint after recovery: %v", row, err)
					}
					if err := s.Close(); err != nil {
						t.Fatalf("%s: close after recovery: %v", row, err)
					}
				}
			}

			t.Logf("%d crash points, %d power-loss images", total, powerLoss)
			if !tornSeen[seed] {
				t.Error("matrix never produced a torn tail")
			}
			if !freedSeen[seed] {
				t.Error("matrix never freed pages from an interrupted checkpoint")
			}
		})
	}
}
