package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/detrng"
	"spatialanon/internal/fault"
	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
	"spatialanon/internal/rplustree"
)

// mustImage returns the tree's inline snapshot — the byte-equality
// oracle for "the recovered tree is the live tree": same trie, same
// leaf order, same record order within a leaf.
func mustImage(t *testing.T, s *Store) []byte {
	t.Helper()
	img, err := s.Tree().EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// checkOnlyLivePages asserts pages.db stores exactly the pages the
// published checkpoint refers to: nothing leaked, nothing missing.
func checkOnlyLivePages(t *testing.T, s *Store) {
	t.Helper()
	onDisk, err := s.pg.DiskPages()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(onDisk, s.SnapshotPages()) {
		t.Fatalf("pages.db holds %d pages %v, the checkpoint refers to %d %v", len(onDisk), onDisk, len(s.live), s.live)
	}
}

// reopenEqual closes s, reopens the store and asserts the recovered
// tree is byte-identical to the live one and no page is leaked.
func reopenEqual(t *testing.T, s *Store, opts Options) *Store {
	t.Helper()
	want := mustImage(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !bytes.Equal(want, mustImage(t, s2)) {
		s2.Close()
		t.Fatal("recovered tree is not byte-identical to the live tree")
	}
	checkOnlyLivePages(t, s2)
	return s2
}

// TestCheckpointRecoveredEqualsLive is the equivalence property of the
// node-addressed format: for seeded random operation sequences with
// checkpoints at random points — two in a row with nothing changed in
// between, leaf splits and underflow repairs between checkpoints,
// forced full rewrites, leaves far larger than a page — Close/Open
// yields a tree whose inline snapshot is byte-identical to the live
// tree's, with pages.db holding exactly the live pages; and the reopened
// store's next checkpoint is incremental and round-trips again.
func TestCheckpointRecoveredEqualsLive(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	schema := dataset.LandsEndSchema()
	var sawNoop, sawSplit, sawRepair, sawPartial, sawCompaction bool
	for seed := 0; seed < seeds; seed++ {
		rng := detrng.New(int64(seed) + 1000)
		opts := testOpts(t, 3)
		// 128-byte pages put every leaf across several pages.
		opts.PageSize = []int{128, 512, 4096}[seed%3]
		s, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		ops := churnWorkload(schema, int64(seed)+1, 150+rng.Intn(250))
		leavesAtCkpt := 0
		for i, o := range ops {
			if err := applyOp(s, o); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
			if rng.Float64() >= 0.06 {
				continue
			}
			before := s.CheckpointStats()
			full := rng.Intn(8) == 0
			if err := s.checkpoint(full); err != nil {
				t.Fatalf("seed %d: checkpoint after op %d: %v", seed, i, err)
			}
			checkOnlyLivePages(t, s)
			after := s.CheckpointStats()
			leaves := len(s.Tree().Leaves())
			wrote := after.LeavesWritten - before.LeavesWritten
			sawSplit = sawSplit || (leavesAtCkpt > 0 && leaves > leavesAtCkpt)
			sawRepair = sawRepair || leaves < leavesAtCkpt
			sawPartial = sawPartial || (wrote > 0 && after.Full == before.Full)
			sawCompaction = sawCompaction || (!full && after.Full > before.Full && before.Checkpoints > 1)
			leavesAtCkpt = leaves
			if rng.Intn(3) == 0 {
				// Again, with nothing changed: no leaf is written.
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if again := s.CheckpointStats(); again.Full == after.Full && again.LeavesWritten != after.LeavesWritten {
					t.Fatalf("seed %d: a checkpoint with nothing changed wrote %d leaves", seed, again.LeavesWritten-after.LeavesWritten)
				} else if again.Full == after.Full {
					sawNoop = true
				}
				checkOnlyLivePages(t, s)
			}
		}
		s = reopenEqual(t, s, opts)
		// The recovered tree carries its references as stamps: one more
		// operation dirties a leaf or two, not the tree.
		if err := s.Insert(attr.Record{ID: 1 << 40, QI: ops[0].rec.QI, Sensitive: "post"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if st, leaves := s.CheckpointStats(), len(s.Tree().Leaves()); leaves > 8 && st.Full == 0 && st.LeavesWritten >= int64(leaves) {
			t.Fatalf("seed %d: first checkpoint after reopen wrote %d of %d leaves", seed, st.LeavesWritten, leaves)
		}
		s = reopenEqual(t, s, opts)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for name, saw := range map[string]bool{
		"a checkpoint with nothing dirty": sawNoop, "a leaf split between checkpoints": sawSplit,
		"an underflow repair between checkpoints": sawRepair, "a partial checkpoint": sawPartial,
		"a compaction forced by the space rule": sawCompaction,
	} {
		if !saw {
			t.Errorf("the seed matrix never exercised %s", name)
		}
	}
}

// restructuringOps scripts n operations aimed at the tree the prefix
// builds: deletes that drain one leaf below k, so an underflow repair
// splices it out of its parent, then inserts crowding around one point
// of another leaf, so it splits again and again until its parent does.
func restructuringOps(t *testing.T, cfg rplustree.Config, prefix []churnOp, n int) []churnOp {
	t.Helper()
	tr, err := rplustree.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range opsFromChurn(prefix) {
		switch o.Type {
		case TypeInsert:
			err = tr.Insert(o.Rec)
		case TypeDelete:
			_, err = tr.Delete(o.ID, o.OldQI)
		case TypeUpdate:
			_, err = tr.Update(o.ID, o.OldQI, o.Rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	leaves := tr.Leaves()
	var ops []churnOp
	drained := slices.Clone(leaves[len(leaves)/3].Records)
	for _, r := range drained[:len(drained)-cfg.BaseK+1] {
		ops = append(ops, churnOp{kind: TypeDelete, rec: attr.Record{ID: r.ID}, oldQI: r.QI})
		if found, err := tr.Delete(r.ID, r.QI); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", r.ID, found, err)
		}
	}
	// The survivors were reinserted: they share a leaf with strangers now.
	survivor := drained[len(drained)-1]
	var home []attr.Record
	for _, leaf := range tr.Leaves() {
		if slices.ContainsFunc(leaf.Records, func(r attr.Record) bool { return r.ID == survivor.ID }) {
			home = leaf.Records
		}
	}
	if !slices.ContainsFunc(home, func(r attr.Record) bool {
		return !slices.ContainsFunc(drained, func(d attr.Record) bool { return d.ID == r.ID })
	}) {
		t.Fatalf("draining a leaf to %d records did not dissolve it", cfg.BaseK-1)
	}
	crowded := leaves[2*len(leaves)/3].Records[0].QI
	for i := 0; len(ops) < n; i++ {
		qi := slices.Clone(crowded)
		qi[i%len(qi)] += float64(i+1) / 64
		ops = append(ops, churnOp{kind: TypeInsert, rec: attr.Record{ID: 1<<30 + int64(i), QI: qi, Sensitive: "crowd"}})
	}
	return ops
}

// TestCrashMatrixIncremental crashes a store at every durable operation
// of a run of incremental checkpoints — a preloaded tree, then
// operations with a checkpoint every few of them, so old and new image
// share most leaf and node pages and freed slots are reused — with the
// fatal append torn by 0, 50 or 100 %. One chain per seed is random
// churn; a second is aimed (restructuringOps), so that its checkpoints
// straddle an underflow repair, leaf splits and an internal split and
// every page write of the rewritten node objects is a crash point.
// Recovery must land on the audited committed prefix, sweep every page
// the dying checkpoint leaked, and leave a store whose next
// (incremental) checkpoint survives a reopen.
func TestCrashMatrixIncremental(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	const (
		preload = 300
		nOps    = 36
		baseK   = 3
	)
	schema := dataset.LandsEndSchema()
	for i := 0; i < 2*seeds; i++ {
		seed, aimed := i/2, i%2 == 1
		name := fmt.Sprintf("seed=%d", seed)
		if aimed {
			name = "restructuring/" + name
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			all := churnWorkload(schema, int64(seed)+101, preload+nOps)
			if aimed {
				all = append(all[:preload], restructuringOps(t, rplustree.Config{Schema: schema, BaseK: baseK}, all[:preload], nOps)...)
			}
			mkOpts := func(dir string, crash *fault.Crash) Options {
				o := Options{
					Dir:      dir,
					Tree:     rplustree.Config{Schema: schema, BaseK: baseK},
					PageSize: 512,
					NoSync:   true,
				}
				if crash != nil {
					o.AppendFault, o.PagerFault = crash, crash
				}
				return o
			}
			// run drives the workload — one preload batch, a checkpoint,
			// then single operations with a checkpoint after every sixth —
			// and reports how many operations were acknowledged. The dry
			// run watches the tree's shape from checkpoint to checkpoint.
			var watching, leafSplit, nodeSplit bool
			leaves, nodes := 0, 0
			watch := func(s *Store) {
				l, n := 0, 0
				var count func(a *rplustree.AuditNode)
				count = func(a *rplustree.AuditNode) {
					if a.Leaf() {
						l++
						return
					}
					n++
					for _, c := range a.Children {
						count(c)
					}
				}
				count(s.Tree().Audit())
				leafSplit = leafSplit || (leaves > 0 && l > leaves)
				nodeSplit = nodeSplit || (nodes > 0 && n > nodes)
				leaves, nodes = l, n
			}
			run := func(opts Options) (acked int, s *Store) {
				s, err := Create(opts)
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				died := func(err error) bool {
					if err != nil && !IsCrash(err) {
						t.Fatalf("failed without crash: %v", err)
					}
					return err != nil
				}
				if _, err := s.ApplyBatch(opsFromChurn(all[:preload])); died(err) {
					return 0, s
				}
				if died(s.Checkpoint()) {
					return preload, s
				}
				for i := preload; i < len(all); i++ {
					if died(applyOp(s, all[i])) {
						return i, s
					}
					if watching {
						watch(s)
					}
					if (i-preload)%6 == 5 && died(s.Checkpoint()) {
						return i + 1, s
					}
				}
				return len(all), s
			}

			counter := &fault.Crash{}
			watching = true
			acked, s := run(mkOpts(t.TempDir(), counter))
			watching = false
			if acked != len(all) {
				t.Fatalf("dry run acknowledged %d of %d", acked, len(all))
			}
			st := s.CheckpointStats()
			s.Close()
			if st.Checkpoints < 5 || st.Checkpoints-st.Full < 3 || st.PagesFreed == 0 {
				t.Fatalf("workload does not chain incremental checkpoints: %+v", st)
			}
			if aimed && !(leafSplit && nodeSplit) {
				t.Fatalf("aimed chain straddles no restructuring: leaf split=%v internal split=%v, %+v", leafSplit, nodeSplit, st)
			}
			total := counter.Ops()
			t.Logf("census %s: %d durable ops", t.Name(), total)

			// The set-up (Create's own checkpoint) is the older matrices'
			// ground; start at the first durable operation after it.
			first := &fault.Crash{}
			if s, err := Create(mkOpts(t.TempDir(), first)); err != nil {
				t.Fatal(err)
			} else {
				s.Close()
			}
			sweptSeen := false
			for at := first.Ops() + 1; at <= total; at++ {
				torn := []float64{0, 0.5, 1}[at%3]
				crash := &fault.Crash{At: at, Torn: torn}
				dir := t.TempDir()
				acked, dead := run(mkOpts(dir, crash))
				dead.Close()
				if crash.Err() == nil {
					t.Fatalf("at=%d: crash point never fired", at)
				}
				s, err := Open(mkOpts(dir, nil))
				if err != nil {
					t.Fatalf("at=%d torn=%.1f acked=%d: recovery failed: %v", at, torn, acked, err)
				}
				sweptSeen = sweptSeen || s.RecoveryStats().PagesFreed > 0
				checkOnlyLivePages(t, s)
				// Committed prefix: every acknowledged operation, plus at most
				// the one in flight (the preload batch counts as one frame).
				seq := int(s.Seq())
				if seq != acked && seq != acked+1 && !(acked == 0 && seq == preload) {
					t.Fatalf("at=%d: recovered %d ops, acknowledged %d", at, seq, acked)
				}
				if err := sameRecords(shadowAfter(all, seq), storeRecords(s)); err != nil {
					t.Fatalf("at=%d: recovered state diverges from committed prefix: %v", at, err)
				}
				// The recovered store checkpoints incrementally and the
				// result reopens byte-identically.
				if err := s.Insert(attr.Record{ID: 1 << 40, QI: all[0].rec.QI, Sensitive: "post"}); err != nil {
					t.Fatalf("at=%d: insert after recovery: %v", at, err)
				}
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("at=%d: checkpoint after recovery: %v", at, err)
				}
				reopenEqual(t, s, mkOpts(dir, nil)).Close()
			}
			t.Logf("%d crash points over %+v", total-first.Ops(), st)
			if !sweptSeen {
				t.Error("matrix never swept pages leaked by an interrupted checkpoint")
			}
		})
	}
}

// failNthWrite is a pager fault policy failing exactly one page
// write-back — the n-th it sees once armed — with a transient error.
type failNthWrite struct{ n, seen int }

func (f *failNthWrite) BeforeRead(pager.PageID) error { return nil }
func (f *failNthWrite) BeforeWrite(id pager.PageID) error {
	if f.n == 0 {
		return nil
	}
	if f.seen++; f.seen == f.n {
		return &fault.Error{Op: "write", Page: id, Kind: fault.Transient}
	}
	return nil
}
func (f *failNthWrite) CorruptWrite(pager.PageID, []byte) bool { return false }

// TestCheckpointAbortLeavesStampsAlone: a transient pager fault at any
// page write of an incremental checkpoint aborts it and leaves the
// store serviceable; the attempt's pages are given back, no leaf is
// stamped with a location nothing durable refers to, the next clean
// checkpoint writes the same leaves again, and the result reopens
// byte-identically.
func TestCheckpointAbortLeavesStampsAlone(t *testing.T) {
	schema := dataset.LandsEndSchema()
	recs := makeRecords(schema, 400, 77)
	for n := 1; ; n++ {
		opts := testOpts(t, 3)
		opts.PageSize = 512
		opts.PoolPages = 4 // most page writes are evictions mid-stream, the rest the final flush
		policy := &failNthWrite{}
		opts.PagerFault = policy
		s, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(insertBatch(recs)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs[:40] {
			moved := r
			moved.Sensitive = "moved"
			if _, err := s.Update(r.ID, r.QI, moved); err != nil {
				t.Fatal(err)
			}
		}
		before := s.CheckpointStats()
		policy.n = n
		err = s.Checkpoint()
		if err == nil {
			// The checkpoint finished in fewer than n page writes: every
			// write position has been covered.
			if n < 10 {
				t.Fatalf("incremental checkpoint took only %d page writes; the matrix is too small to mean anything", n-1)
			}
			s.Close()
			return
		}
		if !retry.IsTransient(err) || s.Err() != nil {
			t.Fatalf("write %d: aborted checkpoint returned %v, store error %v", n, err, s.Err())
		}
		if got := s.CheckpointStats(); got != before {
			t.Fatalf("write %d: an aborted checkpoint was counted: %+v -> %+v", n, before, got)
		}
		checkOnlyLivePages(t, s)
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("write %d: clean checkpoint after the abort: %v", n, err)
		}
		if wrote := s.CheckpointStats().LeavesWritten - before.LeavesWritten; wrote == 0 || wrote >= int64(len(s.Tree().Leaves())) {
			t.Fatalf("write %d: retry wrote %d of %d leaves", n, wrote, len(s.Tree().Leaves()))
		}
		checkOnlyLivePages(t, s)
		reopenEqual(t, s, opts).Close()
	}
}

func insertBatch(recs []attr.Record) []Op {
	ops := make([]Op, len(recs))
	for i, r := range recs {
		ops[i] = Op{Type: TypeInsert, Rec: r}
	}
	return ops
}

// TestIncrementalCheckpointWriteVolume is the deterministic guard on
// the point of the format — counts, not timings. On a 20 000-record
// store the checkpoint after 100 single-record updates performs under
// 11 % of the page writes of a full one (19 of 188; 21 while the
// directory was rewritten whole, and 14 of them are the leaf run, which
// this format leaves as it was), and what it writes is what Pending said
// it would;
// the checkpoint after ONE update that stays in its leaf writes that
// leaf, the node above it on each level and the root object, in three
// pages: one of the leaf run, one of the node run, the root's.
func TestIncrementalCheckpointWriteVolume(t *testing.T) {
	opts := testOpts(t, 10)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := dataset.GenerateLandsEnd(20_000, 5)
	if _, err := s.ApplyBatch(insertBatch(recs)); err != nil {
		t.Fatal(err)
	}
	// checkpoint returns the page writes and the counters of one.
	checkpoint := func(full bool) (int64, CheckpointStats) {
		writes, before := s.pg.Stats().Writes, s.CheckpointStats()
		if err := s.checkpoint(full); err != nil {
			t.Fatal(err)
		}
		after := s.CheckpointStats()
		if !full && after.Full != before.Full {
			t.Fatalf("an incremental checkpoint rewrote everything: %+v", after)
		}
		after.LeavesWritten -= before.LeavesWritten
		after.LeafBytes -= before.LeafBytes
		after.NodesWritten -= before.NodesWritten
		after.NodeBytes -= before.NodeBytes
		return s.pg.Stats().Writes - writes, after
	}
	fullWrites, _ := checkpoint(true)
	for _, j := range detrng.New(9).Perm(len(recs))[:100] {
		moved := recs[j]
		moved.QI = append([]float64(nil), moved.QI...)
		moved.QI[0]++
		if found, err := s.Update(moved.ID, recs[j].QI, moved); err != nil || !found {
			t.Fatalf("update %d: found=%v err=%v", moved.ID, found, err)
		}
	}
	pending := s.tree.Pending()
	incremental, wrote := checkpoint(false)
	t.Logf("page writes: full %d, after 100 updates %d (%.1f %%): %d leaves / %d bytes, %d nodes / %d bytes (estimated %d)",
		fullWrites, incremental, 100*float64(incremental)/float64(fullWrites), wrote.LeavesWritten, wrote.LeafBytes, wrote.NodesWritten, wrote.NodeBytes, pending.NodeBytes)
	if incremental*100 >= fullWrites*11 {
		t.Fatalf("checkpoint after 100 updates wrote %d pages, a full one %d: not under 11 %%", incremental, fullWrites)
	}
	if wrote.LeavesWritten != int64(pending.Leaves) || wrote.LeafBytes != pending.LeafBytes || wrote.NodesWritten != int64(pending.Nodes)+1 {
		t.Fatalf("wrote %+v, pending was %+v (and the root object)", wrote, pending)
	}
	if est := pending.NodeBytes; est < wrote.NodeBytes*9/10 || est > wrote.NodeBytes*11/10 {
		t.Fatalf("node objects estimated at %d bytes came to %d", est, wrote.NodeBytes)
	}

	// One update that moves nothing, in a leaf the delete half of it does
	// not underflow.
	var target attr.Record
	for _, leaf := range s.Tree().Leaves() {
		if len(leaf.Records) > opts.Tree.BaseK {
			target = leaf.Records[0]
			break
		}
	}
	target.Sensitive = "edited"
	if found, err := s.Update(target.ID, target.QI, target); err != nil || !found {
		t.Fatalf("update %d: found=%v err=%v", target.ID, found, err)
	}
	single, wrote := checkpoint(false)
	t.Logf("page writes after one update: %d (%d leaves, %d nodes, height %d)", single, wrote.LeavesWritten, wrote.NodesWritten, s.Tree().Height())
	if wrote.LeavesWritten > 2 || wrote.NodesWritten > int64(s.Tree().Height()) || single > 3 {
		t.Fatalf("one update cost %d page writes for %d leaves and %d nodes of a tree of height %d", single, wrote.LeavesWritten, wrote.NodesWritten, s.Tree().Height())
	}
}

// TestPageFileStaysBounded: 200 checkpoints of stationary churn must
// not grow pages.db past three times the live image, leaf and node
// objects counted alike (at the parent of this test every checkpoint
// appended a whole image's worth of slots, forever). The space rule has
// to fire along the way.
func TestPageFileStaysBounded(t *testing.T) {
	opts := testOpts(t, 5)
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := dataset.GenerateLandsEnd(3000, 11)
	if _, err := s.ApplyBatch(insertBatch(recs)); err != nil {
		t.Fatal(err)
	}
	rng := detrng.New(13)
	worst := 0.0
	for round := 0; round < 200; round++ {
		for i := 0; i < 40; i++ {
			j := rng.Intn(len(recs))
			moved := recs[j]
			moved.QI = append([]float64(nil), moved.QI...)
			moved.QI[rng.Intn(len(moved.QI))] += float64(rng.Intn(7) - 3)
			if found, err := s.Update(moved.ID, recs[j].QI, moved); err != nil || !found {
				t.Fatalf("round %d: update %d: found=%v err=%v", round, moved.ID, found, err)
			}
			recs[j] = moved
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		checkOnlyLivePages(t, s)
		fi, err := os.Stat(filepath.Join(opts.Dir, pagesName))
		if err != nil {
			t.Fatal(err)
		}
		image := s.imageBytes
		ratio := float64(fi.Size()) / float64(image)
		worst = max(worst, ratio)
		if ratio > 3 {
			t.Fatalf("round %d: pages.db is %d bytes, %.2f× the live image of %d", round, fi.Size(), ratio, image)
		}
	}
	st := s.CheckpointStats()
	t.Logf("worst pages.db / live image: %.2f; %+v", worst, st)
	if st.Full < 3 || st.Full > st.Checkpoints/4 {
		t.Fatalf("space rule fired %d times in %d checkpoints", st.Full-1, st.Checkpoints)
	}
}
