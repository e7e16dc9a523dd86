package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/attr"
	"spatialanon/internal/fault"
	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
	"spatialanon/internal/verify"
)

// TestWriterAbsorbsFlakyFaults: injected transient write faults —
// including torn partial writes — must be absorbed by the writer's retry
// loop, leaving a clean, fully committed log.
func TestWriterAbsorbsFlakyFaults(t *testing.T) {
	opts := testOpts(t, 3)
	opts.AppendFault = fault.NewInjector(7, fault.Config{
		TransientWriteRate: 0.3,
	}).Log
	st, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(opts.Tree.Schema, 60, 7)
	for _, r := range recs {
		if err := st.Insert(r); err != nil {
			t.Fatalf("insert under flaky device: %v", err)
		}
	}
	if err := st.Err(); err != nil {
		t.Fatalf("store poisoned by transient faults: %v", err)
	}
	before := storeRecords(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	opts.AppendFault = nil
	st2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen after flaky run: %v", err)
	}
	defer st2.Close()
	if err := sameRecords(before, storeRecords(st2)); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSurvivesTransientExhaustion: when even the retry budget is
// exhausted by transient faults, the failed operation must leave the
// store serviceable — log rolled back, seq unadvanced — so the SAME
// operation can simply be resubmitted once the device recovers. A
// transient fsync fault, which is never retried, must do the same.
func TestStoreSurvivesTransientExhaustion(t *testing.T) {
	for name, cfg := range map[string]fault.Config{
		// retry.Budget consecutive write faults outlast the writer's
		// retries. After skips Create's own manifest append (one write,
		// one sync).
		"write": {TransientWriteRate: 1, After: 2, MaxFaults: retry.Budget},
		"fsync": {TransientSyncRate: 1, After: 2, MaxFaults: 1},
	} {
		t.Run(name, func(t *testing.T) {
			opts := testOpts(t, 3)
			opts.AppendFault = fault.NewInjector(11, cfg).Log
			st, err := Create(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			recs := makeRecords(opts.Tree.Schema, 2, 11)
			seq := st.Seq()
			err = st.Insert(recs[0])
			if err == nil {
				t.Fatal("insert succeeded through the injected transient faults")
			}
			if !retry.IsTransient(err) {
				t.Fatalf("error lost its transient marker: %v", err)
			}
			if st.Err() != nil {
				t.Fatalf("transient fault poisoned the store: %v", st.Err())
			}
			if st.Seq() != seq {
				t.Fatalf("failed insert advanced seq %d -> %d", seq, st.Seq())
			}
			// The fault budget is spent; the resubmission must land, once.
			if err := st.Insert(recs[0]); err != nil {
				t.Fatalf("resubmit after transient fault: %v", err)
			}
			if st.Seq() != seq+1 || st.Len() != 1 {
				t.Fatalf("seq %d and %d records after one committed insert, want %d and 1", st.Seq(), st.Len(), seq+1)
			}
		})
	}
}

// TestStorePoisonWrapsSentinel: a permanent device fault must poison
// the store with an error chain that matches ErrPoisoned, is not
// transient, and still names the underlying fault.
func TestStorePoisonWrapsSentinel(t *testing.T) {
	opts := testOpts(t, 3)
	opts.AppendFault = fault.NewInjector(13, fault.Config{PermanentWriteRate: 1, After: 2, MaxFaults: 1}).Log
	st, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := makeRecords(opts.Tree.Schema, 2, 13)
	err = st.Insert(recs[0])
	if err == nil {
		t.Fatal("insert succeeded through a permanent fault")
	}
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poisoning error does not match ErrPoisoned: %v", err)
	}
	if !errors.Is(st.Err(), ErrPoisoned) {
		t.Fatalf("Err() does not match ErrPoisoned: %v", st.Err())
	}
	if retry.IsTransient(st.Err()) {
		t.Fatalf("permanent poison reads as transient: %v", st.Err())
	}
	var le *fault.Error
	if !errors.As(st.Err(), &le) || le.Kind != fault.Permanent {
		t.Fatalf("underlying fault lost from the chain: %v", st.Err())
	}
	// Poisoned stores refuse everything with the same chain.
	if _, err := st.Release(0); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("release from poisoned store: %v", err)
	}
}

// TestStoreRecoverFromPoison: a store poisoned by a permanent append
// fault resurrects in place — committed-prefix recovery, full audit —
// and serves writes again, having lost only the unacknowledged
// operation that hit the fault.
func TestStoreRecoverFromPoison(t *testing.T) {
	opts := testOpts(t, 3)
	// The fault arms late enough that some inserts commit first, and
	// its budget is one: after the poison, the device is healthy.
	opts.AppendFault = fault.NewInjector(17, fault.Config{PermanentWriteRate: 1, After: 10, MaxFaults: 1}).Log
	st, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := makeRecords(opts.Tree.Schema, 40, 17)
	var acked []int64
	var poisoned bool
	for _, r := range recs {
		if err := st.Insert(r); err != nil {
			if !errors.Is(err, ErrPoisoned) {
				t.Fatalf("unexpected insert failure: %v", err)
			}
			poisoned = true
			break
		}
		acked = append(acked, r.ID)
	}
	if !poisoned {
		t.Fatal("fault schedule never fired")
	}
	if err := st.Recover(); err != nil {
		t.Fatalf("resurrection: %v", err)
	}
	if st.Err() != nil {
		t.Fatalf("store still poisoned after Recover: %v", st.Err())
	}
	got := storeRecords(st)
	for _, id := range acked {
		if _, ok := got[id]; !ok {
			t.Fatalf("acknowledged record %d lost across resurrection", id)
		}
	}
	if len(got) != len(acked) {
		t.Fatalf("store holds %d records, %d were acknowledged", len(got), len(acked))
	}
	// Writes work again, and the result still audits.
	if err := st.Insert(recs[len(recs)-1]); err != nil {
		t.Fatalf("insert after resurrection: %v", err)
	}
	if err := verify.Tree(st.Tree(), verify.TreeOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRecoverSalvagesRottenCheckpoint: when bit rot lands in a
// live checkpoint page, the durable image alone is unrecoverable —
// but the live audited tree equals checkpoint+log by construction, so
// Recover reseeds the image from it and comes back clean. That holds for
// every live page of an image whose leaves are deltas: a base that only a
// delta refers to is salvaged like any leaf.
func TestStoreRecoverSalvagesRottenCheckpoint(t *testing.T) {
	for nth := 0; ; nth++ {
		opts := testOpts(t, 3)
		opts.PageSize = 128 // every leaf object on pages of its own
		st, err := Create(opts)
		if err != nil {
			t.Fatal(err)
		}
		recs := makeRecords(opts.Tree.Schema, 30, 19)
		for _, r := range recs {
			if err := st.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// One record rewritten where it is in every leaf that can spare it
		// for a moment: those leaves are now a delta over their base.
		bases, first := st.SnapshotPages(), st.CheckpointStats()
		for _, leaf := range st.Tree().Leaves() {
			if r := leaf.Record(0); leaf.Size() > opts.Tree.BaseK {
				if _, err := st.Update(r.ID, r.QI, attr.Record{ID: r.ID, QI: r.QI, Sensitive: "again"}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if ck := st.CheckpointStats(); ck.Written.Deltas < 3 || ck.Written.Leaves != first.Written.Leaves {
			t.Fatalf("want deltas over the first checkpoint's leaves and no leaf rewritten, got %+v after %+v", ck, first)
		}
		before := storeRecords(st)
		pages := st.SnapshotPages()
		if nth == len(pages) {
			if st.Close(); nth < 20 {
				t.Fatalf("only %d live checkpoint pages", nth)
			}
			return
		}
		if nth == 0 && !slices.ContainsFunc(pages, func(id pager.PageID) bool { return slices.Contains(bases, id) }) {
			t.Fatal("no page of the first checkpoint is live after the second")
		}
		if err := st.FlipBit(pages[nth], 12); err != nil {
			t.Fatal(err)
		}
		// A plain reopen of this image would fail on the rotted page; the
		// in-place Recover must fall back to reseeding from the live tree.
		if err := st.Recover(); err != nil {
			t.Fatalf("page %d: salvage resurrection: %v", pages[nth], err)
		}
		if err := sameRecords(before, storeRecords(st)); err != nil {
			t.Fatal(err)
		}
		// The reseeded image must now survive a real process restart.
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(opts)
		if err != nil {
			t.Fatalf("page %d: reopen of reseeded image: %v", pages[nth], err)
		}
		if err := sameRecords(before, storeRecords(st2)); err != nil {
			t.Fatal(err)
		}
		st2.Close()
	}
}

// TestStoreScrubRepairsLiveRot: the scrubber must detect a
// bit-flipped live checkpoint page at rest and repair it by rewriting
// the checkpoint from the audited tree — before any reopen needs the
// rotted page.
func TestStoreScrubRepairsLiveRot(t *testing.T) {
	opts := testOpts(t, 3)
	st, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := makeRecords(opts.Tree.Schema, 30, 23)
	for _, r := range recs {
		if err := st.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Scrub()
	if err != nil || len(rep.Corrupt) != 0 {
		t.Fatalf("clean store scrub: %+v, %v", rep, err)
	}
	pages := st.SnapshotPages()
	if err := st.FlipBit(pages[0], 5); err != nil {
		t.Fatal(err)
	}
	rep, err = st.Scrub()
	if err != nil {
		t.Fatalf("scrub of rotted store: %v", err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != pages[0] || !rep.Rewritten {
		t.Fatalf("scrub report %+v, want page %d detected and rewritten", rep, pages[0])
	}
	rep, err = st.Scrub()
	if err != nil || len(rep.Corrupt) != 0 {
		t.Fatalf("scrub after repair still dirty: %+v, %v", rep, err)
	}
	// The repaired image reopens cleanly.
	before := storeRecords(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(opts)
	if err != nil {
		t.Fatalf("reopen after scrub repair: %v", err)
	}
	defer st2.Close()
	if err := sameRecords(before, storeRecords(st2)); err != nil {
		t.Fatal(err)
	}
}

// TestStoreScrubQuarantinesGarbage: a rotten page OUTSIDE the live
// checkpoint is residue (an aborted checkpoint, a crash); the
// scrubber frees it instead of rewriting anything.
func TestStoreScrubQuarantinesGarbage(t *testing.T) {
	opts := testOpts(t, 3)
	st, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := makeRecords(opts.Tree.Schema, 12, 29)
	for _, r := range recs {
		if err := st.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Fabricate checkpoint residue: an allocated, flushed page no
	// manifest references, then rot it.
	id, _, err := st.pg.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.pg.Unpin(id); err != nil {
		t.Fatal(err)
	}
	if err := st.pg.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.FlipBit(id, 3); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != id || rep.Freed != 1 || rep.Rewritten {
		t.Fatalf("scrub report %+v, want page %d quarantined without a rewrite", rep, id)
	}
}

// TestRecoveryNeverFollowsSupersededReference: a leaf rewritten whole under
// nodes that go out as deltas leaves a base still naming the leaf's old
// object, whose pages the checkpoint gives back. Recovery reads through the
// delta and never looks there — it would find no page — and refuses the image
// when a page written in the old object's place has rotted.
func TestRecoveryNeverFollowsSupersededReference(t *testing.T) {
	opts := testOpts(t, 3)
	opts.PageSize = 128 // a leaf spans pages of its own
	s, err := Create(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyBatch(insertBatch(makeRecords(opts.Tree.Schema, 300, 5))); err != nil {
		t.Fatal(err)
	}
	if err := s.checkpoint(true); err != nil {
		t.Fatal(err)
	}
	leaves := s.Tree().Leaves()
	big := slices.MaxFunc(leaves, func(a, b anonmodel.Partition) int { return a.Size() - b.Size() })
	for _, r := range rows(big) {
		moved := r
		moved.Sensitive = "rewritten where it is"
		if found, err := s.Update(r.ID, r.QI, moved); err != nil || !found {
			t.Fatalf("update %d: found=%v err=%v", r.ID, found, err)
		}
	}
	before, old := s.CheckpointStats(), s.SnapshotPages()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if w := s.CheckpointStats().since(before).Written; w.Leaves != 1 || w.Deltas != 0 || w.NodeDeltas == 0 || len(s.Tree().Leaves()) != len(leaves) {
		t.Fatalf("every record of one leaf rewritten in place: wrote %+v", w)
	}
	live := s.SnapshotPages()
	dead := slices.DeleteFunc(slices.Clone(old), func(id pager.PageID) bool { return slices.Contains(live, id) })
	fresh := slices.DeleteFunc(slices.Clone(live), func(id pager.PageID) bool { return slices.Contains(old, id) })
	if len(dead) == 0 || len(fresh) == 0 {
		t.Fatalf("the checkpoint gave back pages %v and wrote pages %v", dead, fresh)
	}
	s = reopenEqual(t, s, opts)
	if err := s.FlipBit(fresh[0], 9); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(opts); err == nil {
		s.Close()
		t.Fatalf("reopened with page %d, written by the last checkpoint, rotted", fresh[0])
	}
}

// TestOpenRefusesOldFormatStore: a store written before the root object
// moved into the manifest (checkpoint format 6 and older: manifest frame
// type 5, naming the root object's pages) or before rows took varints
// (format 7: manifest frame type 8, u64 sequence numbers) is refused at the
// manifest with an error naming both formats, nothing of it decoded; and a
// manifest of this build's type whose root object carries a retired
// version word — snapshot version 3 and directory version 7 among them —
// is refused there, by version.
func TestOpenRefusesOldFormatStore(t *testing.T) {
	u32 := binary.LittleEndian.AppendUint32
	u64 := binary.LittleEndian.AppendUint64
	dims := uint32(testOpts(t, 3).Tree.Schema.Dims())
	cases := map[string][]byte{
		"checkpoint format 6 or older (manifest frame type 5": u32(u64(u32(u32(u64(u64([]byte{5}, 9), 9), 20), 0xC0FFEE), 1), 3),
		"checkpoint format 7 (manifest frame type 8":          append(u32(u32(u32(u64(u64([]byte{8}, 9), 9), 7), dims), 1), 0, 2, 0, 0, 0, 0, 1, 2),
	}
	for _, version := range []uint32{2, 3, 4, 5, 6, 7} {
		root := u32(u32(u32(nil, version), dims), 1)
		payload, err := Encode(Record{Type: TypeCheckpointEnd, Manifest: &Manifest{Root: append(root, 0, 2, 0, 0, 0, 0, 1, 2)}})
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("format version %d, this build reads version 8", version)] = payload
	}
	for want, payload := range cases {
		opts := testOpts(t, 3).withDefaults()
		pg, err := openPager(opts, os.O_CREATE|os.O_TRUNC, pager.CreateDiskFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := pg.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := opts.open(logName, os.O_WRONLY|os.O_CREATE|os.O_APPEND)
		if err != nil {
			t.Fatal(err)
		}
		w := newWriter(f, 0, opts)
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err = Open(opts); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open: %v, want an error naming %q", err, want)
		}
	}
}
