package wal

import (
	"bytes"
	"fmt"
	"io"
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

// mustImage returns the tree's snapshot — a full checkpoint in one byte
// string, committing nothing — the byte-equality oracle for "the
// recovered tree is the live tree": same trie, same leaf order, same
// record order within a leaf.
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

// since is what the counters gained after an earlier reading of them.
func (c CheckpointStats) since(b CheckpointStats) CheckpointStats {
	w, v := c.Written, b.Written
	return CheckpointStats{c.Checkpoints - b.Checkpoints, c.Full - b.Full, rplustree.Footprint{
		Leaves: w.Leaves - v.Leaves, Deltas: w.Deltas - v.Deltas, Nodes: w.Nodes - v.Nodes, NodeDeltas: w.NodeDeltas - v.NodeDeltas,
		LeafBytes: w.LeafBytes - v.LeafBytes, DeltaBytes: w.DeltaBytes - v.DeltaBytes, NodeBytes: w.NodeBytes - v.NodeBytes, NodeDeltaBytes: w.NodeDeltaBytes - v.NodeDeltaBytes,
	}, c.PagesFreed - b.PagesFreed}
}

// dryRun is an incremental checkpoint of the store's tree as it is right
// now, encoded into no page and never committed: it changes nothing.
func dryRun(t *testing.T, s *Store) *rplustree.Checkpoint {
	t.Helper()
	ck, err := s.tree.EncodeCheckpoint(false, func(enc []byte, leaf bool) (rplustree.Ref, error) {
		return rplustree.Ref{Pages: []pager.PageID{1}, Len: uint32(len(enc))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// leafPart is the part of a footprint that does not depend on where the
// objects are stored: leaves and their deltas to the byte, and how many
// node objects of either form.
func leafPart(f rplustree.Footprint) rplustree.Footprint {
	return rplustree.Footprint{Leaves: f.Leaves, LeafBytes: f.LeafBytes, Deltas: f.Deltas, DeltaBytes: f.DeltaBytes, Nodes: f.Nodes + f.NodeDeltas}
}

// reopenEqual closes s, reopens the store and asserts the recovered
// tree is byte-identical to the live one, and that the pages the writer
// kept live are exactly the pages recovery reached: a base — a leaf's or a
// node's — is kept while a delta names it and not a checkpoint longer.
func reopenEqual(t *testing.T, s *Store, opts Options) *Store {
	t.Helper()
	want, live := mustImage(t, s), s.SnapshotPages()
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
	if freed := s2.RecoveryStats().PagesFreed; freed != 0 || !slices.Equal(live, s2.SnapshotPages()) {
		s2.Close()
		t.Fatalf("the writer kept pages %v live, recovery reached %v and freed %d", live, s2.SnapshotPages(), freed)
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
// store's next checkpoint is incremental and round-trips again. Then the
// scripted chain (deltaChainOps) takes single leaves through every form a
// leaf has on disk, each checkpoint writing what the script's model says,
// with a reopen where the script asks for one and with one after every
// checkpoint.
func TestCheckpointRecoveredEqualsLive(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	schema := dataset.LandsEndSchema()
	var sawNoop, sawSplit, sawRepair, sawPartial, sawCompaction, sawDelta bool
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
			wrote := after.Written.Leaves - before.Written.Leaves
			sawSplit = sawSplit || (leavesAtCkpt > 0 && leaves > leavesAtCkpt)
			sawRepair = sawRepair || leaves < leavesAtCkpt
			sawPartial = sawPartial || (wrote > 0 && after.Full == before.Full)
			sawDelta = sawDelta || after.Written.Deltas > before.Written.Deltas
			sawCompaction = sawCompaction || (!full && after.Full > before.Full && before.Checkpoints > 1)
			leavesAtCkpt = leaves
			if rng.Intn(3) == 0 {
				// Again, with nothing changed: no leaf is written.
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if again := s.CheckpointStats(); again.Full == after.Full && again.Written.Leaves != after.Written.Leaves {
					t.Fatalf("seed %d: a checkpoint with nothing changed wrote %d leaves", seed, again.Written.Leaves-after.Written.Leaves)
				} else if again.Full == after.Full {
					sawNoop = true
				}
				checkOnlyLivePages(t, s)
			}
		}
		s = reopenEqual(t, s, opts)
		// The recovered tree carries its references as stamps: once what
		// the log replay dirtied is checkpointed, one more operation dirties
		// a leaf or two, not the tree.
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		replayed := s.CheckpointStats()
		if err := s.Insert(attr.Record{ID: 1 << 40, QI: ops[0].rec.QI, Sensitive: "post"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st, leaves := s.CheckpointStats(), len(s.Tree().Leaves())
		if wrote := st.Written.Leaves + st.Written.Deltas - replayed.Written.Leaves - replayed.Written.Deltas; leaves > 8 && st.Full == replayed.Full && wrote > 3 {
			t.Fatalf("seed %d: one insert into a reopened store wrote %d of %d leaves", seed, wrote, leaves)
		}
		s = reopenEqual(t, s, opts)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for name, saw := range map[string]bool{
		"a checkpoint with nothing dirty": sawNoop, "a leaf split between checkpoints": sawSplit,
		"an underflow repair between checkpoints": sawRepair, "a partial checkpoint": sawPartial,
		"a compaction forced by the space rule": sawCompaction, "a leaf delta": sawDelta,
	} {
		if !saw {
			t.Errorf("the seed matrix never exercised %s", name)
		}
	}

	prefix := churnWorkload(schema, 7, 3000)
	chain, wrote := deltaChainOps(t, rplustree.Config{Schema: schema, BaseK: 3}, prefix)
	for i, pageSize := range []int{128, 512, 4096, 128, 512, 4096} {
		reopenAlways := i >= 3
		opts := testOpts(t, 3)
		opts.PageSize = pageSize
		s, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatch(opsFromChurn(prefix)); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		checkpoints := 0
		for j, o := range chain {
			if err := applyOp(s, o); err != nil {
				t.Fatalf("chain op %d: %v", j, err)
			}
			if o.then == goOn {
				continue
			}
			before := s.CheckpointStats()
			if err := s.checkpoint(o.then == thenFullCheckpoint); err != nil {
				t.Fatalf("chain op %d: checkpoint: %v", j, err)
			}
			checkOnlyLivePages(t, s)
			got, want := s.CheckpointStats().since(before), wrote[checkpoints]
			checkpoints++
			if (got.Full > 0) != (o.then == thenFullCheckpoint) {
				t.Fatalf("page size %d, chain op %d: %d full checkpoints", pageSize, j, got.Full)
			}
			if got.Written.Leaves != want.Leaves || got.Written.Deltas != want.Deltas || got.Written.LeafBytes != want.LeafBytes {
				t.Fatalf("page size %d, chain op %d: wrote %+v, the model %+v", pageSize, j, got, want)
			}
			if reopenAlways || o.then == thenReopen {
				s = reopenEqual(t, s, opts)
			}
		}
		reopenEqual(t, s, opts).Close()
	}
}

// modelTree is the tree the scripted operations build, outside any store:
// the scripts below aim their operations at its leaves.
func modelTree(t *testing.T, cfg rplustree.Config, prefix []churnOp) *rplustree.Tree {
	t.Helper()
	tr, err := rplustree.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range prefix {
		applyToTree(t, tr, o)
	}
	return tr
}

func applyToTree(t *testing.T, tr *rplustree.Tree, o churnOp) {
	t.Helper()
	var err error
	found := true
	switch o.kind {
	case TypeInsert:
		err = tr.Insert(o.rec)
	case TypeDelete:
		found, err = tr.Delete(o.rec.ID, o.oldQI)
	case TypeUpdate:
		found, err = tr.Update(o.rec.ID, o.oldQI, o.rec)
	}
	if err != nil || !found {
		t.Fatalf("scripted %v of record %d: found=%v err=%v", o.kind, o.rec.ID, found, err)
	}
}

// restructuringOps scripts n operations aimed at the tree the prefix
// builds: deletes that drain one leaf below k, so an underflow repair
// splices it out of its parent, then inserts crowding around one point
// of another leaf, so it splits again and again until its parent does.
func restructuringOps(t *testing.T, cfg rplustree.Config, prefix []churnOp, n int) []churnOp {
	t.Helper()
	tr := modelTree(t, cfg, prefix)
	leaves := tr.Leaves()
	var ops []churnOp
	drained := rows(leaves[len(leaves)/3])
	for _, r := range drained[:len(drained)-cfg.BaseK+1] {
		ops = append(ops, churnOp{kind: TypeDelete, rec: attr.Record{ID: r.ID}, oldQI: r.QI})
		applyToTree(t, tr, ops[len(ops)-1])
	}
	// The survivors were reinserted: they share a leaf with strangers now.
	survivor := drained[len(drained)-1]
	var home []attr.Record
	for _, leaf := range tr.Leaves() {
		if recs := rows(leaf); slices.ContainsFunc(recs, func(r attr.Record) bool { return r.ID == survivor.ID }) {
			home = recs
		}
	}
	if !slices.ContainsFunc(home, func(r attr.Record) bool {
		return !slices.ContainsFunc(drained, func(d attr.Record) bool { return d.ID == r.ID })
	}) {
		t.Fatalf("draining a leaf to %d records did not dissolve it", cfg.BaseK-1)
	}
	crowded := leaves[2*len(leaves)/3].Record(0).QI
	for i := 0; len(ops) < n; i++ {
		qi := slices.Clone(crowded)
		qi[i%len(qi)] += float64(i+1) / 64
		ops = append(ops, churnOp{kind: TypeInsert, rec: attr.Record{ID: 1<<30 + int64(i), QI: qi, Sensitive: "crowd"}})
	}
	return ops
}

// deltaChainOps scripts operations, and the checkpoints between them,
// aimed at single leaves of the tree the prefix builds (checkpointed once
// the prefix is in), so that a leaf's durable form takes every turn it can:
// a delta, the delta that supersedes it (then a reopen), another on the
// same base, the rewrite the size rule forces when the delta has grown
// past half the leaf, the split of a delta'd leaf, the underflow repair
// that dissolves one, a full checkpoint, a chain of node deltas up to the
// rewrite that ends it. It runs the script on a model tree
// to steer it, and returns with the script what each of its checkpoints
// writes there — which is what a store's must, unless the space rule made
// it a full one.
func deltaChainOps(t *testing.T, cfg rplustree.Config, prefix []churnOp) ([]churnOp, []rplustree.Footprint) {
	t.Helper()
	tr := modelTree(t, cfg, prefix)
	page := pager.PageID(0)
	var ops []churnOp
	var wrote []rplustree.Footprint
	var image rplustree.Footprint // the last checkpoint's
	checkpoint := func(then afterOp) rplustree.Footprint {
		t.Helper()
		ck, err := tr.EncodeCheckpoint(then == thenFullCheckpoint, func(enc []byte, leaf bool) (rplustree.Ref, error) {
			page++
			return rplustree.Ref{Pages: []pager.PageID{page}, Len: uint32(len(enc))}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ck.Commit()
		image = ck.Image
		if len(ops) > 0 {
			ops[len(ops)-1].then = then
			wrote = append(wrote, ck.Written)
		}
		return ck.Written
	}
	do := func(o churnOp) {
		t.Helper()
		ops = append(ops, o)
		applyToTree(t, tr, o)
	}
	leafOf := func(id int64) []attr.Record {
		for _, leaf := range tr.Leaves() {
			if recs := rows(leaf); slices.ContainsFunc(recs, func(r attr.Record) bool { return r.ID == id }) {
				return recs
			}
		}
		t.Fatalf("record %d is in no leaf", id)
		return nil
	}
	// touch rewrites, where it is, the first record of anchor's leaf.
	touch := func(anchor int64, note string) {
		t.Helper()
		r := leafOf(anchor)[0]
		moved := r
		moved.Sensitive = note
		do(churnOp{kind: TypeUpdate, rec: moved, oldQI: r.QI})
	}
	want := func(step string, got rplustree.Footprint, leaves, deltas int) {
		t.Helper()
		if got.Leaves != leaves || got.Deltas != deltas {
			t.Fatalf("script: %s wrote %+v, want %d leaves and %d deltas", step, got, leaves, deltas)
		}
	}
	biggest := func(not int64) []attr.Record {
		var best []attr.Record
		for _, leaf := range tr.Leaves() {
			if recs := rows(leaf); len(recs) > len(best) && !slices.ContainsFunc(recs, func(r attr.Record) bool { return r.ID == not }) {
				best = recs
			}
		}
		return best
	}
	checkpoint(goOn) // the caller's, after the prefix

	home := biggest(-1)
	anchor := home[len(home)-1].ID // never touched: it names the leaf
	touch(anchor, "delta")
	want("a first change", checkpoint(thenCheckpoint), 0, 1)
	touch(anchor, "superseding delta")
	want("a second change", checkpoint(thenReopen), 0, 1)
	touch(anchor, "delta after the reopen")
	last := checkpoint(thenCheckpoint)
	for rounds := 0; last.Leaves == 0; rounds++ {
		if want("a further change", last, 0, 1); rounds > len(home) {
			t.Fatalf("script: %d changes to a leaf of %d records and the size rule has not rewritten it", rounds, len(home))
		}
		touch(anchor, "growing delta")
		last = checkpoint(thenCheckpoint)
	}
	want("the change past half the leaf", last, 1, 0)

	touch(anchor, "delta before the split")
	want("a change to the rebased leaf", checkpoint(thenCheckpoint), 0, 1)
	for i, leaves := 0, len(tr.Leaves()); len(tr.Leaves()) == leaves; i++ {
		qi := slices.Clone(leafOf(anchor)[0].QI)
		qi[i%len(qi)] += float64(i+1) / 64
		do(churnOp{kind: TypeInsert, rec: attr.Record{ID: 1<<31 + int64(i), QI: qi, Sensitive: "crowd"}})
	}
	if last = checkpoint(thenCheckpoint); last.Leaves < 2 {
		t.Fatalf("script: the split of a delta'd leaf wrote %+v", last)
	}

	doomed := biggest(anchor)
	victim := doomed[len(doomed)-1].ID
	touch(victim, "delta before the repair")
	want("a change to the doomed leaf", checkpoint(thenCheckpoint), 0, 1)
	for leaves := len(tr.Leaves()); len(tr.Leaves()) == leaves; {
		r := leafOf(victim)[0]
		do(churnOp{kind: TypeDelete, rec: attr.Record{ID: r.ID}, oldQI: r.QI})
	}
	if last = checkpoint(thenCheckpoint); last.Leaves+last.Deltas == 0 {
		t.Fatalf("script: the repair of a delta'd leaf wrote %+v, want its records in its neighbours", last)
	}

	touch(anchor, "before the full checkpoint")
	want("a full checkpoint", checkpoint(thenFullCheckpoint), len(tr.Leaves()), 0)

	// A node-delta chain, on the room the rewrite made: leaves that follow
	// one another in tree order, changed one per checkpoint with a
	// reopen after every other, so that the node over them goes out as a
	// delta naming one child more each time, until that is past half of it
	// and it goes out whole — one delta'd node fewer in the image.
	chain, rebased := 0, false
	for _, leaf := range tr.Leaves() {
		if rebased || chain == 16 {
			break
		}
		before := image.NodeDeltas
		if r := leaf.Record(0); leaf.Size() < 2*cfg.BaseK { // room for one more, or one to spare
			do(churnOp{kind: TypeInsert, rec: attr.Record{ID: 1<<32 + int64(chain), QI: r.QI, Sensitive: "node-delta chain"}})
		} else {
			do(churnOp{kind: TypeDelete, rec: attr.Record{ID: r.ID}, oldQI: r.QI})
		}
		if last = checkpoint([]afterOp{thenCheckpoint, thenReopen}[chain%2]); last.NodeDeltas == 0 {
			t.Fatalf("script: a change to one leaf wrote %+v", last)
		}
		chain, rebased = chain+1, image.NodeDeltas < before
	}
	if !rebased {
		t.Fatalf("script: %d leaves touched in tree order and no node was written whole again", chain)
	}
	return ops, wrote
}

// TestCrashMatrixIncremental crashes a store at every durable operation
// of a run of incremental checkpoints — a preloaded tree, then
// operations with a checkpoint every few of them, so old and new image
// share most leaf and node pages and freed slots are reused — with the
// fatal append torn by 0, 50 or 100 %. One chain per seed is random
// churn; a second is aimed (restructuringOps), so that its checkpoints
// straddle an underflow repair, leaf splits and an internal split and
// every page write of the rewritten node objects is a crash point; a
// third is the delta chain (deltaChainOps), with its own checkpoints: a
// crash at every page write of a delta, of the delta superseding it, of
// the rebase, of the halves of a delta'd leaf, of a full rewrite and of a
// node's ever longer delta up to the rewrite that ends it; and one chain
// (redo) churns behind a four-page pool until an incremental attempt
// overruns the space rule and is redone in full, so that every page write
// of an attempt nothing will ever refer to is a crash point too.
// Recovery from each image of the crash (process death, power loss) must
// land on the audited committed prefix, sweep every page the dying
// checkpoint leaked, and leave a store whose next (incremental)
// checkpoint survives a reopen.
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
	for i := 0; i < 4*seeds; i++ {
		seed, aimed, deltas, redo := i/4, i%4 == 1, i%4 == 2, i%4 == 3
		if redo && seed > 0 {
			continue // one redo chain: it is four times the length of the others
		}
		name := []string{"", "restructuring/", "deltas/", "redo/"}[i%4] + fmt.Sprintf("seed=%d", seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := rplustree.Config{Schema: schema, BaseK: baseK}
			all := churnWorkload(schema, int64(seed)+101, preload+nOps)
			var model []rplustree.Footprint // what the delta chain's checkpoints write
			every, pool := 6, 0
			switch {
			case aimed:
				all = append(all[:preload], restructuringOps(t, cfg, all[:preload], nOps)...)
			case deltas:
				var chain []churnOp
				chain, model = deltaChainOps(t, cfg, all[:preload])
				all = append(all[:preload], chain...)
			case redo:
				all, every, pool = churnWorkload(schema, int64(seed)+101, preload+4*nOps), 24, 4
			}
			if !deltas {
				for i := preload + every - 1; i < len(all); i += every {
					all[i].then = thenCheckpoint
				}
			}
			mkOpts := func(fs *memFS, crash *fault.Crash) Options {
				o := Options{
					FS:        fs,
					Tree:      cfg,
					PageSize:  512,
					PoolPages: pool,
				}
				if crash != nil {
					o.AppendFault, o.PagerFault = crash.Log, crash.Disk
				}
				return o
			}
			// run drives the workload — one preload batch, a checkpoint,
			// then single operations with a checkpoint where the script has
			// one: after every sixth, or where the delta chain says — and
			// reports how many operations were acknowledged. The dry run
			// watches the tree's shape from checkpoint to checkpoint, and
			// what the checkpoints of the delta chain write.
			var watching, leafSplit, nodeSplit, redone bool
			leaves, nodes, asModel := 0, 0, 0
			watch := func(s *Store) {
				// A full checkpoint writes every node once, and nothing
				// changes until it is committed.
				ck, err := s.Tree().EncodeCheckpoint(true, func([]byte, bool) (rplustree.Ref, error) {
					return rplustree.Ref{}, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				l, n := ck.Written.Leaves, ck.Written.Nodes
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
					if err != nil && !crashed(err) {
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
					if all[i].then == goOn {
						continue
					}
					before, io := s.CheckpointStats(), s.pg.Stats()
					if died(s.checkpoint(all[i].then == thenFullCheckpoint)) {
						return i + 1, s
					}
					// Pages freed that no published image held are an abandoned
					// attempt's; page writes beyond the live pages of the full
					// checkpoint that replaced it are too.
					if got, now := s.CheckpointStats().since(before), s.pg.Stats(); watching && now.Frees-io.Frees > got.PagesFreed && now.Writes-io.Writes > int64(len(s.live)) {
						redone = true
					}
					if watching && deltas {
						got, want := s.CheckpointStats().since(before), model[0]
						if got.Written.Leaves == want.Leaves && got.Written.Deltas == want.Deltas {
							asModel++
						} else if got.Full == 0 {
							t.Fatalf("checkpoint after op %d wrote %+v, the model %+v", i, got, want)
						}
						model = model[1:]
					}
				}
				return len(all), s
			}

			counter := &fault.Crash{}
			watching = true
			acked, s := run(mkOpts(newMemFS(), counter))
			watching = false
			if acked != len(all) {
				t.Fatalf("dry run acknowledged %d of %d", acked, len(all))
			}
			st := s.CheckpointStats()
			s.Close()
			if st.Checkpoints < 5 || st.Checkpoints-st.Full < 3 || st.PagesFreed == 0 || st.Written.NodeDeltas < 3 {
				t.Fatalf("workload does not chain incremental checkpoints: %+v", st)
			}
			if redo && !redone {
				t.Fatalf("redo chain: no incremental attempt was abandoned with pages written: %+v", st)
			}
			if aimed && !(leafSplit && nodeSplit) {
				t.Fatalf("aimed chain straddles no restructuring: leaf split=%v internal split=%v, %+v", leafSplit, nodeSplit, st)
			}
			if deltas && (len(model) != 0 || asModel < 6 || st.Written.Deltas < 3) {
				t.Fatalf("delta chain: %d checkpoints wrote what the model does, %d never came: %+v", asModel, len(model), st)
			}
			total := counter.Ops()
			checkCensus(t, total)

			// The set-up (Create's own checkpoint) is the older matrices'
			// ground; start at the first durable operation after it.
			first := &fault.Crash{}
			if s, err := Create(mkOpts(newMemFS(), first)); err != nil {
				t.Fatal(err)
			} else {
				s.Close()
			}
			sweptSeen := false
			powerLoss := 0 // power-loss images recovered: those unlike their process-death image
			for at := first.Ops() + 1; at <= total; at++ {
				torn := []float64{0, 0.5, 1}[at%3]
				crash := &fault.Crash{At: at, Torn: torn}
				fs := newMemFS()
				acked, dead := run(mkOpts(fs, crash))
				dead.Close()
				if crash.Err() == nil {
					t.Fatalf("at=%d: crash point never fired", at)
				}
				imgs := fs.images()
				powerLoss += len(imgs) - 1
				for _, img := range imgs {
					row := fmt.Sprintf("at=%d %s torn=%.1f acked=%d", at, img.name, torn, acked)
					s, err := Open(mkOpts(img.fs, nil))
					if err != nil {
						t.Fatalf("%s: recovery failed: %v", row, err)
					}
					sweptSeen = sweptSeen || s.RecoveryStats().PagesFreed > 0
					checkOnlyLivePages(t, s)
					// Committed prefix: every acknowledged operation, plus at
					// most the one in flight (the preload batch counts as one
					// frame).
					seq := int(s.Seq())
					if seq != acked && seq != acked+1 && !(acked == 0 && seq == preload) {
						t.Fatalf("%s: recovered %d ops", row, seq)
					}
					if err := sameRecords(shadowAfter(all, seq), storeRecords(s)); err != nil {
						t.Fatalf("%s: recovered state diverges from committed prefix: %v", row, err)
					}
					// The recovered store checkpoints incrementally and the
					// result reopens byte-identically.
					if err := s.Insert(attr.Record{ID: 1 << 40, QI: all[0].rec.QI, Sensitive: "post"}); err != nil {
						t.Fatalf("%s: insert after recovery: %v", row, err)
					}
					if err := s.Checkpoint(); err != nil {
						t.Fatalf("%s: checkpoint after recovery: %v", row, err)
					}
					reopenEqual(t, s, mkOpts(img.fs, nil)).Close()
				}
			}
			t.Logf("%d crash points, %d power-loss images, over %+v", total-first.Ops(), powerLoss, st)
			if !sweptSeen {
				t.Error("matrix never swept pages leaked by an interrupted checkpoint")
			}
		})
	}
}

// syncTrace records in order the Syncs a store's page disk and log files
// receive (Options.PagerFault, Options.AppendFault).
type syncTrace []string

func (tr *syncTrace) disk(d pager.Disk) pager.Disk { return syncedDisk{d, tr} }
func (tr *syncTrace) log(f pager.File) pager.File  { return syncedLog{f, tr} }

type syncedDisk struct {
	pager.Disk
	tr *syncTrace
}

func (d syncedDisk) Sync() error { *d.tr = append(*d.tr, "disk"); return d.Disk.Sync() }

type syncedLog struct {
	pager.File
	tr *syncTrace
}

func (f syncedLog) Sync() error { *f.tr = append(*f.tr, "log"); return f.File.Sync() }

// TestNoSyncKeepsSyncSequence: NoSync makes the Syncs of the store's files
// do nothing but skips none, so the page disk and the log see the same
// sequence of Sync calls — and a fault schedule drawn on them the same
// draws — with NoSync on and off.
func TestNoSyncKeepsSyncSequence(t *testing.T) {
	recs := makeRecords(dataset.LandsEndSchema(), 200, 5)
	trace := func(noSync bool) syncTrace {
		var tr syncTrace
		opts := testOpts(t, 3)
		opts.NoSync, opts.CheckpointEvery = noSync, 50
		opts.PagerFault, opts.AppendFault = tr.disk, tr.log
		s, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if _, err := s.ApplyBatch([]Op{{Type: TypeInsert, Rec: r}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	synced, unsynced := trace(false), trace(true)
	if !slices.Contains(synced, "disk") {
		t.Fatalf("no page disk Sync in %v", synced)
	}
	if !slices.Equal(synced, unsynced) {
		t.Fatalf("Syncs with NoSync off %v\nand on %v", synced, unsynced)
	}
}

// failNthWrite is a page disk failing exactly one page write-back — the
// n-th it sees once armed — with a transient error.
type failNthWrite struct {
	pager.Disk
	n, seen int
}

func (f *failNthWrite) WritePage(id pager.PageID, data []byte, sum uint32) error {
	if f.n > 0 {
		if f.seen++; f.seen == f.n {
			return &fault.Error{Op: "write", Page: id, Kind: fault.Transient}
		}
	}
	return f.Disk.WritePage(id, data, sum)
}

// wrap puts f in front of a store's page disk (Options.PagerFault).
func (f *failNthWrite) wrap(d pager.Disk) pager.Disk {
	f.Disk = d
	return f
}

// TestCheckpointAbortLeavesStampsAlone: a transient pager fault at any
// page write of an incremental checkpoint aborts it and leaves the
// store serviceable; the attempt's pages are given back, no leaf is
// stamped with a location nothing durable refers to or forgets what was
// removed from its base — what is pending after the abort is what was
// pending before it, to the byte — the next clean checkpoint writes
// exactly that, and the result reopens byte-identically.
func TestCheckpointAbortLeavesStampsAlone(t *testing.T) {
	schema := dataset.LandsEndSchema()
	recs := makeRecords(schema, 400, 77)
	for n := 1; ; n++ {
		opts := testOpts(t, 3)
		opts.PageSize = 512
		opts.PoolPages = 4 // most page writes are evictions mid-stream, the rest the final flush
		policy := &failNthWrite{}
		opts.PagerFault = policy.wrap
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
		pending := dryRun(t, s).Written
		if pending.Deltas < 10 {
			t.Fatalf("40 updates in place left %+v pending: want deltas", pending)
		}
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
		if again := dryRun(t, s).Written; again != pending {
			t.Fatalf("write %d: %+v pending before the aborted checkpoint, %+v after", n, pending, again)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("write %d: clean checkpoint after the abort: %v", n, err)
		}
		wrote := s.CheckpointStats().since(before)
		if leafPart(wrote.Written) != leafPart(pending) {
			t.Fatalf("write %d: retry wrote %+v, pending was %+v", n, wrote, pending)
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
// store the checkpoint after 100 single-record updates performs at most
// 6 of the ≈ 188 page writes of a full one (8 while a node above a changed
// leaf was rewritten whole and the root object had a page, 19 while a
// changed leaf was, 21 while the directory was), it writes what a dry run
// before it did — an uncommitted EncodeCheckpoint changes nothing — and its
// Whole is what a full one right after it puts, within 1 %;
// the checkpoint after ONE update that stays in its leaf writes that
// leaf's delta and a delta of the node above it on each level, in two
// pages: one of the leaf run, one of the node run.
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
		wrote := s.CheckpointStats().since(before)
		if !full && wrote.Full != 0 {
			t.Fatalf("an incremental checkpoint rewrote everything: %+v", wrote)
		}
		return s.pg.Stats().Writes - writes, wrote
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
	pending := dryRun(t, s).Written
	if again := dryRun(t, s).Written; again != pending {
		t.Fatalf("one dry run wrote %+v, the next %+v", pending, again)
	}
	incremental, wrote := checkpoint(false)
	t.Logf("page writes: full %d, after 100 updates %d (%.1f %%): %v",
		fullWrites, incremental, 100*float64(incremental)/float64(fullWrites), wrote.Written)
	if incremental > 6 {
		t.Fatalf("checkpoint after 100 updates wrote %d pages (a full one %d), want at most 6", incremental, fullWrites)
	}
	if w := wrote.Written; leafPart(w) != leafPart(pending) || w.NodeDeltas < w.Nodes {
		t.Fatalf("wrote %+v, the dry run %+v", w, pending)
	}

	// One update that moves nothing, in a leaf the delete half of it does
	// not underflow.
	var target attr.Record
	for _, leaf := range s.Tree().Leaves() {
		if leaf.Size() > opts.Tree.BaseK {
			target = leaf.Record(0)
			break
		}
	}
	target.Sensitive = "edited"
	if found, err := s.Update(target.ID, target.QI, target); err != nil || !found {
		t.Fatalf("update %d: found=%v err=%v", target.ID, found, err)
	}
	single, wrote := checkpoint(false)
	t.Logf("page writes after one update: %d (%v, height %d)", single, wrote.Written, s.Tree().Height())
	if w := wrote.Written; w.Leaves != 0 || w.Deltas != 1 || w.Nodes != 0 || w.NodeDeltas != s.Tree().Height()-1 || single > 2 {
		t.Fatalf("one update cost %d page writes for %+v of a tree of height %d", single, w, s.Tree().Height())
	}

	// What the space rule measures an incremental checkpoint against is what
	// a rewrite would put: the leaves to the byte, the nodes as their
	// references were when last written.
	whole := dryRun(t, s).Whole
	_, wrote = checkpoint(true)
	if put := wrote.Written.Bytes(); whole < put*99/100 || whole > put*101/100 {
		t.Fatalf("the image weighed %d bytes whole, a full checkpoint right after put %d", whole, put)
	}
}

// TestPageFileStaysBounded: 200 checkpoints of stationary churn must
// not grow pages.db past three times the live image, leaf and node
// objects counted alike (at the parent of this test every checkpoint
// appended a whole image's worth of slots, forever). The space rule has
// to fire along the way: 24 times in 200 (18 while rows were fixed
// columns).
func TestPageFileStaysBounded(t *testing.T) {
	opts := testOpts(t, 5)
	fs := newMemFS()
	opts.FS = fs
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
		size, err := fs.names[pagesName].Seek(0, io.SeekEnd)
		if err != nil {
			t.Fatal(err)
		}
		image := s.imageBytes
		ratio := float64(size) / float64(image)
		worst = max(worst, ratio)
		if ratio > 3 {
			t.Fatalf("round %d: pages.db is %d bytes, %.2f× the live image of %d", round, size, ratio, image)
		}
	}
	st := s.CheckpointStats()
	t.Logf("worst pages.db / live image: %.2f; %d full checkpoints, the space rule's %d of them; %+v", worst, st.Full, st.Full-1, st)
	if st.Full < 3 || st.Full > st.Checkpoints/4 {
		t.Fatalf("space rule fired %d times in %d checkpoints", st.Full-1, st.Checkpoints)
	}
}

// TestSpaceRuleRedo drives a small store until an incremental attempt
// overruns the room the space rule leaves it — measured, after the fact, by
// the pages it allocated. The attempt is given back whole — with a four-page
// pool some of its pages had reached the file — and the checkpoint done
// again as a full one: counted once, as full, with what it published alone;
// pages.db holds the published image and nothing else; a reopen equals the
// live tree.
func TestSpaceRuleRedo(t *testing.T) {
	opts := testOpts(t, 5)
	opts.PageSize, opts.PoolPages = 512, 4
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(opts.Tree.Schema, 600, 21)
	if _, err := s.ApplyBatch(insertBatch(recs)); err != nil {
		t.Fatal(err)
	}
	rng := detrng.New(23)
	for round := 0; ; round++ {
		if round == 100 {
			t.Fatalf("no incremental attempt overran its room in %d checkpoints: %+v", round, s.CheckpointStats())
		}
		for i := 0; i < 30; i++ {
			r := &recs[rng.Intn(len(recs))]
			r.Sensitive = fmt.Sprintf("round %d", round)
			if found, err := s.Update(r.ID, r.QI, *r); err != nil || !found {
				t.Fatalf("round %d: update %d: found=%v err=%v", round, r.ID, found, err)
			}
		}
		attempt := dryRun(t, s).Written
		before, io := s.CheckpointStats(), s.pg.Stats()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		checkOnlyLivePages(t, s)
		got, now := s.CheckpointStats().since(before), s.pg.Stats()
		// Pages freed that no published image held are an abandoned attempt's.
		abandoned := now.Frees - io.Frees - got.PagesFreed
		if abandoned == 0 {
			continue
		}
		leaves := len(s.Tree().Leaves())
		t.Logf("round %d: an attempt at %v took %d pages and was abandoned; published %v in %d pages with %d page writes",
			round, attempt, abandoned, got.Written, len(s.live), now.Writes-io.Writes)
		if got.Checkpoints != 1 || got.Full != 1 {
			t.Fatalf("the redone checkpoint was counted as %+v", got)
		}
		if w := got.Written; w.Deltas+w.NodeDeltas != 0 || w.Leaves != leaves || w.Bytes() != s.imageBytes {
			t.Fatalf("the redone checkpoint is said to have written %+v: the image has %d leaves in %d bytes", w, leaves, s.imageBytes)
		}
		if attempt.Deltas == 0 || now.Writes-io.Writes <= int64(len(s.live)) {
			t.Fatalf("want an abandoned attempt with deltas some of whose pages were written: it held %+v, %d page writes for %d live pages", attempt, now.Writes-io.Writes, len(s.live))
		}
		reopenEqual(t, s, opts).Close()
		return
	}
}
