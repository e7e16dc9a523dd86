package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/detrng"
	"spatialanon/internal/fault"
	"spatialanon/internal/retry"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/verify"
	"spatialanon/internal/wal"
)

// The serve-level chaos matrix, the tentpole's claim made executable:
// under seeded schedules of torn WAL writes, flaky fsyncs, checkpoint
// bit rot and bounded permanent device faults, the server either
// degrades to read-only on its last audited epoch or resurrects to an
// audited k-safe state — and it NEVER acknowledges a write it cannot
// produce on a clean restart, never loses one it acknowledged, and
// never serves an unaudited view. Every rejection a submitter sees
// must match the typed taxonomy; an unclassifiable error fails the
// matrix.

// chaosIDs snapshots the store's record IDs from its live tree.
func chaosIDs(st *wal.Store) map[int64]bool {
	out := make(map[int64]bool)
	for _, l := range st.Tree().Leaves() {
		for i := range l.Size() {
			out[l.Record(i).ID] = true
		}
	}
	return out
}

// chaosSubmit pushes one record to acknowledgment through whatever the
// fault schedule throws at it. Degraded states trigger resurrection;
// transient and shed rejections resubmit (both are safe: a failed
// operation is rolled back whole, never half-committed). The fault
// budgets are bounded, so a bounded number of attempts must suffice.
func chaosSubmit(t *testing.T, s *Server, st *wal.Store, rec attr.Record, firstErr error, degraded, transient *int) {
	t.Helper()
	err := firstErr
	for attempt := 0; ; attempt++ {
		if err == nil {
			return
		}
		if attempt >= 20 {
			t.Fatalf("record %d never committed: %v", rec.ID, err)
		}
		switch {
		case errors.Is(err, ErrDegraded):
			*degraded++
			if !errors.Is(err, wal.ErrPoisoned) {
				t.Fatalf("degraded error chain lost the poison cause: %v", err)
			}
			// A groupmate's chaosSubmit may have resurrected the server
			// already; only drive recovery while the circuit is still open.
			if s.State() == StateDegraded {
				// The circuit is open, but reads must keep serving the last
				// audited epoch.
				if v := s.View(); v.Len() >= testK {
					rel, rerr := v.Release(0)
					if rerr != nil {
						t.Fatalf("degraded read refused: %v", rerr)
					}
					if verr := verify.Release(rel, anonmodel.KAnonymity{K: testK}); verr != nil {
						t.Fatalf("degraded view is unaudited: %v", verr)
					}
				}
				// Resurrect. The device fault budget is bounded, so this
				// must converge; each failed attempt burns more budget.
				ok := false
				for a := 0; a < 10; a++ {
					if rerr := s.Recover(); rerr == nil {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("server never resurrected: %v", s.Err())
				}
				if got := s.State(); got != StateHealthy {
					t.Fatalf("state %v after successful Recover", got)
				}
			}
			// The poison may have struck AFTER this op's batch frame
			// committed (a failed post-commit checkpoint): the op's fate
			// is ambiguous and blind resubmission would double-commit.
			// Resolve against the recovered store, as an idempotent
			// client would. Nothing is in flight here, so the committer
			// is not mutating the tree under this scan.
			if chaosIDs(st)[rec.ID] {
				return
			}
		case errors.Is(err, ErrRecovering), errors.Is(err, ErrOverloaded), errors.Is(err, ErrDeadlineExceeded):
			// Typed shed: not committed, resubmit.
		case retry.IsTransient(err):
			*transient++
		default:
			t.Fatalf("record %d: rejection outside the typed taxonomy: %v", rec.ID, err)
		}
		err = s.Insert(rec)
	}
}

func TestChaosServeMatrix(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 4
	}
	const nOps = 80

	// Matrix-wide coverage: the schedules must actually exercise the
	// degrade→resurrect circuit, transient absorption, and the
	// scrubber — not just thread clean runs through the harness.
	var totalDegraded, totalRecoveries, totalInjected, totalScrubFound, totalAbsorbed atomic.Int64

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := detrng.New(int64(seed) + 101)

			// WAL-side device: transient write/fsync faults with torn
			// partial frames. Every third seed instead schedules one
			// guaranteed permanent fault mid-workload, so the
			// degraded-readonly → resurrect path is exercised by
			// construction, not by rate luck.
			fcfg := fault.Config{
				TransientWriteRate: 0.10 * rng.Float64(),
				TransientSyncRate:  0.06 * rng.Float64(),
				PermanentWriteRate: 0.01 * rng.Float64(),
				After:              2, // Create's own manifest append passes
				MaxFaults:          2 + rng.Intn(4),
			}
			if seed%3 == 0 {
				fcfg = fault.Config{
					PermanentWriteRate: 1,
					After:              2 + rng.Intn(2*nOps),
					MaxFaults:          1 + rng.Intn(2),
				}
			}
			flaky := fault.NewInjector(fault.DeriveSeed(int64(seed), 1), fcfg)

			// Pager-side device under the checkpoints: transient reads and
			// writes, torn page write-backs, bit rot. NO permanent rates:
			// the injector remembers permanent faults per page ID and a
			// resurrected image reuses low IDs, which would make
			// resurrection structurally impossible rather than testing it.
			inj := fault.NewInjector(fault.DeriveSeed(int64(seed), 2), fault.Config{
				TransientReadRate:  0.04 * rng.Float64(),
				TransientWriteRate: 0.06 * rng.Float64(),
				TornWriteRate:      0.10 * rng.Float64(),
				BitRotRate:         0.10 * rng.Float64(),
				After:              4,
				MaxFaults:          1 + rng.Intn(3),
			})

			dir := t.TempDir()
			schema := dataset.LandsEndSchema()
			st, err := wal.Create(wal.Options{
				Dir:             dir,
				Tree:            rplustree.Config{Schema: schema, BaseK: testK},
				CheckpointEvery: 7,
				NoSync:          true,
				AppendFault:     flaky.Log,
				PagerFault:      inj.Disk,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			s, err := New(st, Options{
				MaxBatch:   4,
				QueueDepth: 16,
				ScrubEvery: 3,
			})
			if err != nil {
				t.Fatal(err)
			}

			// The workload: nOps inserts in small concurrent bursts, so
			// faults land mid-group-commit, not only on singleton batches.
			recs := makeRecords(t, nOps, int64(seed)+7)
			var degraded, transient int
			for i := 0; i < nOps; {
				g := 1 + rng.Intn(3)
				if i+g > nOps {
					g = nOps - i
				}
				group := recs[i : i+g]
				errs := make([]error, g)
				var wg sync.WaitGroup
				for j := range group {
					j := j
					wg.Add(1)
					go func() { defer wg.Done(); errs[j] = s.Insert(group[j]) }()
				}
				wg.Wait()
				for j := range group {
					chaosSubmit(t, s, st, group[j], errs[j], &degraded, &transient)
				}
				i += g
			}

			// Every record was eventually acknowledged; the server must be
			// serving all of them (possibly after one more resurrection, if
			// the very last commit's scrub opened the circuit).
			if s.State() == StateDegraded {
				if err := s.Recover(); err != nil {
					t.Fatalf("final resurrection: %v", err)
				}
			}
			stats := s.Stats()
			if err := s.Close(); err != nil && s.Err() == nil {
				t.Fatalf("close: %v", err)
			}

			// Settle: scrub-and-repair until the durable image is clean.
			// Budgets are spent or bounded, so this converges.
			settled := false
			for a := 0; a < 12 && !settled; a++ {
				if st.Err() != nil {
					if err := st.Recover(); err != nil {
						continue
					}
				}
				rep, err := st.Scrub()
				if err != nil {
					continue
				}
				totalScrubFound.Add(int64(len(rep.Corrupt)))
				settled = len(rep.Corrupt) == 0
			}
			if !settled {
				t.Fatalf("image never settled clean: %v", st.Err())
			}

			// Committed-state contract: exactly the acknowledged records,
			// k-safe and audited.
			want := make(map[int64]bool, nOps)
			for _, r := range recs {
				want[r.ID] = true
			}
			check := func(who string, s2 *wal.Store) {
				t.Helper()
				got := chaosIDs(s2)
				for id := range want {
					if !got[id] {
						t.Fatalf("%s lost acknowledged record %d", who, id)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s holds %d records, %d were acknowledged", who, len(got), len(want))
				}
				rel, err := s2.Release(0)
				if err != nil {
					t.Fatalf("%s release: %v", who, err)
				}
				if err := verify.Release(rel, anonmodel.KAnonymity{K: testK}); err != nil {
					t.Fatalf("%s release unaudited: %v", who, err)
				}
			}
			check("settled store", st)

			// The image must survive a real process restart on a clean
			// device — the final word on what was actually made durable.
			if err := st.Close(); err != nil {
				t.Fatalf("close settled store: %v", err)
			}
			st2, err := wal.Open(wal.Options{
				Dir:    dir,
				Tree:   rplustree.Config{Schema: schema, BaseK: testK},
				NoSync: true,
			})
			if err != nil {
				t.Fatalf("clean reopen: %v", err)
			}
			defer st2.Close()
			check("reopened store", st2)

			totalDegraded.Add(int64(degraded))
			totalRecoveries.Add(stats.Recoveries)
			totalAbsorbed.Add(stats.Retries)
			totalInjected.Add(int64(flaky.Injected() + inj.Injected()))
			totalScrubFound.Add(stats.ScrubCorrupt)
		})
	}

	// Cleanup runs after the parallel subtests finish.
	t.Cleanup(func() {
		if testing.Short() {
			return
		}
		if totalInjected.Load() == 0 {
			t.Error("matrix injected no faults at all")
		}
		if totalDegraded.Load() == 0 || totalRecoveries.Load() == 0 {
			t.Errorf("matrix never exercised the degrade→resurrect circuit (degraded=%d recoveries=%d)",
				totalDegraded.Load(), totalRecoveries.Load())
		}
		if totalScrubFound.Load() == 0 {
			t.Error("matrix never exercised the scrubber against real rot")
		}
		if totalAbsorbed.Load() == 0 {
			t.Error("the log writer — the one retry owner — absorbed no transient fault matrix-wide")
		}
	})
}
