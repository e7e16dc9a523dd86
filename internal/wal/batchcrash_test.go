package wal

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/dataset"
	"spatialanon/internal/detrng"
	"spatialanon/internal/fault"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
)

// The group-commit crash matrix extends the per-op matrix to batched
// commits: the same churn workload is chunked into group-commit
// batches of varying size, the store is killed at EVERY durable
// operation (batch frame appends, checkpoint appends and page
// write-backs, with torn final frames), and recovery from each image
// (process death, power loss) must equal the committed BATCH prefix — a
// batch is all-or-nothing, so the recovered operation count always lands
// exactly on a batch boundary, never inside one.

// chunkBatches splits ops into batch sizes drawn from rng in [1,max].
func chunkBatches(n int, max int, rng *rand.Rand) [][2]int {
	var bounds [][2]int
	off := 0
	for off < n {
		sz := 1 + rng.Intn(max)
		if off+sz > n {
			sz = n - off
		}
		bounds = append(bounds, [2]int{off, off + sz})
		off += sz
	}
	return bounds
}

// runBatchesUntilCrash drives the chunked workload through ApplyBatch
// until the crash fires, returning how many operations were
// acknowledged (whole batches only) and whether Create survived.
func runBatchesUntilCrash(t *testing.T, opts Options, ops []Op, bounds [][2]int) (acked int, createOK bool) {
	t.Helper()
	s, err := Create(opts)
	if err != nil {
		if !crashed(err) {
			t.Fatalf("create failed without crash: %v", err)
		}
		return 0, false
	}
	defer s.Close()
	for _, b := range bounds {
		if _, err := s.ApplyBatch(ops[b[0]:b[1]]); err != nil {
			if !crashed(err) {
				t.Fatalf("batch %v failed without crash: %v", b, err)
			}
			return b[0], true
		}
	}
	return len(ops), true
}

func TestCrashMatrixGroupCommit(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	const (
		nOps     = 48
		maxBatch = 7
		baseK    = 3
	)
	schema := dataset.LandsEndSchema()

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			churn := churnWorkload(schema, int64(seed)+101, nOps)
			ops := opsFromChurn(churn)
			bounds := chunkBatches(nOps, maxBatch, detrng.New(int64(seed)+7))

			// Batch boundaries are the only legal recovery points.
			boundary := map[int]bool{0: true}
			for _, b := range bounds {
				boundary[b[1]] = true
			}

			mkOpts := func(fs *memFS, crash *fault.Crash) Options {
				o := Options{
					FS:              fs,
					Tree:            rplustree.Config{Schema: schema, BaseK: baseK},
					CheckpointEvery: 11,
				}
				if crash != nil {
					o.AppendFault, o.PagerFault = crash.Log, crash.Disk
				}
				return o
			}

			counter := &fault.Crash{}
			if acked, ok := runBatchesUntilCrash(t, mkOpts(newMemFS(), counter), ops, bounds); !ok || acked != nOps {
				t.Fatalf("dry run died: acked=%d ok=%v", acked, ok)
			}
			total := counter.Ops()
			checkCensus(t, total)
			// Group commit's whole point: far fewer durable ops than
			// operations. The workload spends one frame per batch plus
			// checkpoint traffic, so the ceiling is batches+checkpoints,
			// not nOps.
			if total >= nOps {
				t.Fatalf("batched workload performed %d durable ops for %d operations — batching is not amortizing", total, nOps)
			}

			powerLoss := 0 // power-loss images recovered: those unlike their process-death image
			for at := 1; at <= total; at++ {
				torn := []float64{0, 0.3, 0.7, 1}[at%4]
				crash := &fault.Crash{At: at, Torn: torn}
				fs := newMemFS()
				acked, createOK := runBatchesUntilCrash(t, mkOpts(fs, crash), ops, bounds)
				if crash.Err() == nil {
					t.Fatalf("at=%d: crash point never fired", at)
				}
				imgs := fs.images()
				powerLoss += len(imgs) - 1
				for _, img := range imgs {
					row := fmt.Sprintf("at=%d %s torn=%.1f acked=%d", at, img.name, torn, acked)
					if !createOK {
						if _, err := Open(mkOpts(img.fs, nil)); err == nil {
							t.Fatalf("%s: Open invented a store out of a dead Create", row)
						}
						continue
					}
					s, err := Open(mkOpts(img.fs, nil))
					if err != nil {
						t.Fatalf("%s: recovery failed: %v", row, err)
					}

					// All-or-nothing at the frame boundary: the recovered
					// count is every acknowledged op plus either the whole
					// in-flight batch (its frame became durable before the
					// ack was lost) or none of it — and in every case a
					// batch boundary. A partially-applied batch is the bug
					// this matrix exists to catch.
					seq := int(s.Seq())
					if !boundary[seq] {
						t.Fatalf("%s: recovered %d ops — inside a batch (boundaries %v)", row, seq, bounds)
					}
					if seq < acked {
						t.Fatalf("%s: recovered %d ops, lost acknowledged writes", row, seq)
					}
					var inflight int
					for _, b := range bounds {
						if b[0] == acked {
							inflight = b[1] - b[0]
						}
					}
					if seq != acked && seq != acked+inflight {
						t.Fatalf("%s: recovered %d ops, want %d or %d", row, seq, acked, acked+inflight)
					}
					if err := sameRecords(shadowAfter(churn, seq), storeRecords(s)); err != nil {
						t.Fatalf("%s: recovered state diverges from committed batch prefix: %v", row, err)
					}

					// The recovered state must still be k-safe and auditable.
					if s.Len() >= baseK {
						rel, err := s.Release(0)
						if err != nil {
							t.Fatalf("%s: release after recovery: %v", row, err)
						}
						if err := verify.Release(rel, anonmodel.KAnonymity{K: baseK}); err != nil {
							t.Fatalf("%s: recovered release unsafe: %v", row, err)
						}
					}
					// And it must keep serving batches.
					if _, err := s.ApplyBatch(opsFromChurn(churnWorkload(schema, int64(seed)+999, 5))); err != nil {
						t.Fatalf("%s: batch after recovery: %v", row, err)
					}
					if err := s.Close(); err != nil {
						t.Fatalf("%s: close after recovery: %v", row, err)
					}
				}
			}
			t.Logf("%d crash points, %d power-loss images", total, powerLoss)
		})
	}
}
