package wal

import (
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/detrng"
	"spatialanon/internal/pager"
)

// benchMix is the benchmark of record's churn (bench/gen.go, opStream)
// as batch operations: arrival i is an insert, an update or a delete by
// i mod 3, so the store's size is stationary; the m-th of each touches a
// key 2·lag, lag and 0 places along one sequence of keys, so no two
// operations in flight share one; updates alternate between a full QI
// re-draw and QI[0]+1.
type benchMix struct {
	lag   int
	pool  []attr.Record
	fresh int64
	live  []attr.Record
	n     int
}

// newBenchMix is the churn over n LandsEnd records under the harness's
// seed derivation, and the records to preload.
func newBenchMix(n int, seed int64) (*benchMix, []attr.Record) {
	preload := dataset.GenerateLandsEnd(n, detrng.Derive(seed, 0))
	m := &benchMix{lag: min(2048, n/4), pool: dataset.GenerateLandsEnd(1<<16, detrng.Derive(seed, 1)), fresh: int64(n) + 1}
	for _, r := range preload {
		m.fresh = max(m.fresh, r.ID+1)
	}
	m.live = make([]attr.Record, 2*m.lag+1)
	copy(m.live, preload[:2*m.lag])
	return m, preload
}

func (m *benchMix) next() Op {
	i, k, ring := m.n, m.n/3, len(m.live)
	m.n++
	switch i % 3 {
	case 0:
		src := m.pool[k%len(m.pool)]
		rec := attr.Record{ID: m.fresh + int64(k), QI: src.QI, Sensitive: src.Sensitive}
		m.live[(2*m.lag+k)%ring] = rec
		return Op{Type: TypeInsert, Rec: rec}
	case 1:
		slot := (m.lag + k) % ring
		old := m.live[slot]
		rec := attr.Record{ID: old.ID, Sensitive: old.Sensitive}
		if k%2 == 0 {
			rec.QI = m.pool[(k*7+3)%len(m.pool)].QI
		} else {
			rec.QI = append([]float64(nil), old.QI...)
			rec.QI[0]++
		}
		m.live[slot] = rec
		return Op{Type: TypeUpdate, ID: old.ID, OldQI: old.QI, Rec: rec}
	default:
		old := m.live[k%ring]
		return Op{Type: TypeDelete, ID: old.ID, OldQI: old.QI}
	}
}

// churnRounds preloads a store of n records (k = 10, the benchmark's) and
// runs rounds of perRound bench-mix operations, a checkpoint after each;
// it returns the counters and page writes of the rounds alone, and what a
// reopen after the last round cost.
func churnRounds(t *testing.T, n, rounds, perRound int) (CheckpointStats, int64, RecoveryStats) {
	t.Helper()
	opts := testOpts(t, 10)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	mix, preload := newBenchMix(n, 42)
	if _, err := s.ApplyBatch(insertBatch(preload)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before, writes := s.CheckpointStats(), s.pg.Stats().Writes
	batch := make([]Op, perRound)
	for round := 0; round < rounds; round++ {
		for i := range batch {
			batch[i] = mix.next()
		}
		found, err := s.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, ok := range found {
			if !ok {
				t.Fatalf("round %d: operation %d found no record", round, i)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round%10 == 9 {
			checkOnlyLivePages(t, s)
		}
	}
	st, writes := s.CheckpointStats().since(before), s.pg.Stats().Writes-writes
	s = reopenEqual(t, s, opts)
	defer s.Close()
	return st, writes, s.RecoveryStats()
}

// TestLeafDeltaWriteVolume pins what deltas are for, in bytes: on the
// benchmark's large store — 200 000 records, a checkpoint every 500
// operations of its churn — an incremental checkpoint writes on average
// under 35 000 bytes of leaf and delta objects (27 787; 51 408 in fixed
// columns, 319 375 while a changed leaf was rewritten whole) and under
// 55 000 of node objects and their deltas (93 679 while a node above a
// changed leaf was rewritten whole), and the reopen after the last one
// reads at most 1 600 pages (1 445; 2 622 in fixed columns) — each live
// page once, give or take the few a merge of 31 checkpoints' runs through
// a 256-page pool reads twice.
func TestLeafDeltaWriteVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("a 200 000-record store")
	}
	const rounds = 30
	st, writes, rec := churnRounds(t, 200_000, rounds, 500)
	incremental := st.Checkpoints - st.Full
	t.Logf("%d rounds of 500 operations on 200 000 records: %v; %d page writes; reopen read %d pages for %d live", rounds, st, writes, rec.PagerReads, rec.SnapshotPages)
	if st.Full != 0 {
		t.Fatalf("%d of %d checkpoints rewrote everything: the pin is on incremental ones", st.Full, rounds)
	}
	if mean := (st.Written.LeafBytes + st.Written.DeltaBytes) / incremental; mean > 35_000 {
		t.Fatalf("an incremental checkpoint writes %d bytes of leaves and deltas on average, want at most 35 000", mean)
	}
	if mean := (st.Written.NodeBytes + st.Written.NodeDeltaBytes) / incremental; mean > 55_000 {
		t.Fatalf("an incremental checkpoint writes %d bytes of nodes and node deltas on average, want at most 55 000", mean)
	}
	if st.Written.Deltas < 4*st.Written.Leaves {
		t.Fatalf("%d deltas to %d whole leaves: most changed leaves should go out as deltas", st.Written.Deltas, st.Written.Leaves)
	}
	if rec.PagerReads > int64(rec.SnapshotPages)+8 || rec.PagerReads > 1600 {
		t.Fatalf("the reopen read %d pages for %d live ones, want at most 1 600", rec.PagerReads, rec.SnapshotPages)
	}
}

// TestCheckpointVolumeLongRun is the same measure on a shard-sized store
// over a run long enough for the space rule to fire: 25 000 records, 60
// rounds of 2 000 operations, compactions included — at most 60 page
// writes per round (50.2; 91.8 in fixed columns, 191 while changed leaves
// were rewritten whole).
func TestCheckpointVolumeLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("120 000 operations")
	}
	const rounds = 60
	st, writes, _ := churnRounds(t, 25_000, rounds, 2000)
	t.Logf("%d rounds of 2 000 operations on 25 000 records: %v; %d page writes, %.1f per round, %d full rewrites",
		rounds, st, writes, float64(writes)/rounds, st.Full)
	if writes > 60*rounds {
		t.Fatalf("%d page writes in %d rounds, want at most 60 per round", writes, rounds)
	}
}

// frameCounter injects nothing and adds up the frames the log writer is
// handed, over every log file the store opens.
type frameCounter struct{ bytes int64 }

// wrap puts the counter in front of a log file (Options.AppendFault).
func (c *frameCounter) wrap(lf pager.File) pager.File { return countedLog{lf, c} }

type countedLog struct {
	pager.File
	c *frameCounter
}

func (f countedLog) Write(p []byte) (int, error) {
	f.c.bytes += int64(len(p))
	return f.File.Write(p)
}

// TestServeLargeWindowBytes replays the nominal window of the benchmark's
// serve_large workload — 200 000 records preloaded and checkpointed, then
// 871 acknowledged operations of its churn, one frame each, a checkpoint
// every 500 — and counts what the store hands to write: page slots (a
// page and its 5-byte seal) and log frames. It is the exact-per-seed
// stand-in for the gated write_amp, which also sees pager bookkeeping:
// at most 16 page writes (15; 22 in fixed columns, 36 while a node above a
// changed leaf was rewritten whole and the root object had a page of its
// own), 3.5 bytes written per byte of the 32-byte records acknowledged
// (3.316; 5.341, 7.401), 36 log bytes per operation (35.5; 67.3) and
// 40 000 bytes of node objects and node deltas (90 105 before node
// deltas). It ends by reopening the store and logging what recovery read.
func TestServeLargeWindowBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("a 200 000-record store")
	}
	const ops, recordBytes = 871, 32
	frames := &frameCounter{}
	opts := testOpts(t, 10)
	opts.CheckpointEvery, opts.AppendFault = 500, frames.wrap
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	mix, preload := newBenchMix(200_000, 42)
	if _, err := s.ApplyBatch(insertBatch(preload)); err != nil {
		t.Fatal(err)
	}
	if err := s.checkpoint(true); err != nil {
		t.Fatal(err)
	}
	before, writes, logged := s.CheckpointStats(), s.pg.Stats().Writes, frames.bytes
	for i := 0; i < ops; i++ {
		if found, err := s.ApplyBatch([]Op{mix.next()}); err != nil || !found[0] {
			t.Fatalf("operation %d: found=%v err=%v", i, found, err)
		}
	}
	st, writes, logged := s.CheckpointStats().since(before), s.pg.Stats().Writes-writes, frames.bytes-logged
	slots := writes * int64(s.opts.PageSize+5)
	amp := float64(slots+logged) / (recordBytes * ops)
	w := st.Written
	t.Logf("%d operations, %d checkpoint:\n  leaves      %5d / %6d B\n  leaf deltas %5d / %6d B\n  nodes       %5d / %6d B\n  node deltas %5d / %6d B\n  page slots  %5d / %6d B\n  log frames          %6d B (%.1f B/op)\n  written per acknowledged byte: %.3f",
		ops, st.Checkpoints, w.Leaves, w.LeafBytes, w.Deltas, w.DeltaBytes, w.Nodes, w.NodeBytes, w.NodeDeltas, w.NodeDeltaBytes, writes, slots, logged, float64(logged)/ops, amp)
	if st.Checkpoints != 1 || st.Full != 0 {
		t.Fatalf("want one incremental checkpoint in the window, got %+v", st)
	}
	if nodes, perOp := w.NodeBytes+w.NodeDeltaBytes, float64(logged)/ops; writes > 16 || amp > 3.5 || perOp > 36 || nodes > 40_000 {
		t.Fatalf("%d page writes, %.3f bytes written per acknowledged byte, %.1f log bytes per operation and %d bytes of nodes and node deltas, want at most 16, 3.5, 36 and 40 000", writes, amp, perOp, nodes)
	}
	s = reopenEqual(t, s, opts)
	rec := s.RecoveryStats()
	t.Logf("reopen: %d pager reads, %d live pages / %d B of objects, %d log bytes, %d operations replayed", rec.PagerReads, rec.SnapshotPages, rec.SnapshotBytes, rec.LogBytes, rec.Replayed)
}
