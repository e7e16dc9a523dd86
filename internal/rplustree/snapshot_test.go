package rplustree

import (
	"bytes"
	"strings"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

// treesEqual compares two trees structurally: same shape, split tries
// (and so regions), MBRs, counts and records in trie order.
func treesEqual(a, b *Tree) bool {
	var eq func(x, y *node) bool
	eq = func(x, y *node) bool {
		if x.isLeaf() != y.isLeaf() || x.count != y.count || !x.mbr.Equal(y.mbr) {
			return false
		}
		if x.isLeaf() {
			if len(x.recs) != len(y.recs) {
				return false
			}
			for i := range x.recs {
				if x.recs[i].ID != y.recs[i].ID || x.recs[i].Sensitive != y.recs[i].Sensitive {
					return false
				}
				for d := range x.recs[i].QI {
					if x.recs[i].QI[d] != y.recs[i].QI[d] {
						return false
					}
				}
			}
			return true
		}
		var eqTrie func(s, u *splitTrie) bool
		eqTrie = func(s, u *splitTrie) bool {
			if s.isLeaf() != u.isLeaf() {
				return false
			}
			if s.isLeaf() {
				return eq(s.child, u.child)
			}
			return s.axis == u.axis && s.value == u.value && eqTrie(s.left, u.left) && eqTrie(s.right, u.right)
		}
		return eqTrie(x.trie, y.trie)
	}
	return a.height == b.height && eq(a.root, b.root)
}

// TestSnapshotRoundTrip: a full checkpoint decodes to a tree equal to
// the source, one that passes its invariants and accepts maintenance, and
// the snapshot is that checkpoint laid out in one byte string — its
// objects, then its root object — taken without committing anything.
func TestSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := continuousRecords(cfg.Schema, 400, 3)
	for i := range recs {
		recs[i].Sensitive = strings.Repeat("s", i%5)
	}
	insertAll(t, tr, recs)

	var store blobStore
	ck := mustCheckpoint(t, tr, true, &store)
	snap := mustSnapshot(t, tr)
	if !bytes.Equal(snap, append(bytes.Clone(store.blob), ck.Root...)) || int64(len(snap)) != ck.Whole+int64(len(ck.Root)) {
		t.Fatalf("snapshot of %d bytes is not the full checkpoint's %d object bytes and %d-byte root", len(snap), ck.Whole, len(ck.Root))
	}
	got, err := DecodeCheckpoint(cfg, ck.Root, store.get)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("decoded tree invalid: %v", err)
	}
	if !treesEqual(tr, got) || !bytes.Equal(snap, mustSnapshot(t, got)) {
		t.Fatal("decoded tree differs from original")
	}
	// The decoded tree is live: it accepts maintenance.
	if found, err := got.Delete(recs[0].ID, recs[0].QI); err != nil || !found {
		t.Fatalf("delete on decoded tree: found=%v err=%v", found, err)
	}
	if err := got.Insert(attr.Record{ID: 99999, QI: recs[0].QI}); err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Taking a snapshot stamps nothing: what an incremental checkpoint
	// would write is the same before and after.
	ck.Commit()
	if err := tr.Insert(attr.Record{ID: 99999, QI: recs[1].QI}); err != nil {
		t.Fatal(err)
	}
	pending := dryRun(t, tr)
	mustSnapshot(t, tr)
	if after := dryRun(t, tr); after != pending || pending.Deltas+pending.Leaves == 0 {
		t.Fatalf("a checkpoint would write %+v before the snapshot, %+v after it", pending, after)
	}
}

func TestSnapshotEmptyTree(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 3}
	tr, _ := New(cfg)
	var store blobStore
	got, err := DecodeCheckpoint(cfg, mustCheckpoint(t, tr, true, &store).Root, store.get)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Height() != 1 {
		t.Fatalf("decoded empty tree: len=%d height=%d", got.Len(), got.Height())
	}
}

// TestSnapshotRejectsDamage: the root object and every object truncated
// at every byte, a trailing byte after either and a schema of other
// dimensions are errors, never panics.
func TestSnapshotRejectsDamage(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 3}
	tr, _ := New(cfg)
	insertAll(t, tr, continuousRecords(cfg.Schema, 100, 5))
	var store blobStore
	ck := mustCheckpoint(t, tr, true, &store)
	if ck.Image.Nodes == 0 {
		t.Fatal("want a tree with internal nodes")
	}
	for cut := 0; cut < len(ck.Root); cut++ {
		if _, err := DecodeCheckpoint(cfg, ck.Root[:cut], store.get); err == nil {
			t.Fatalf("root object truncated to %d bytes accepted", cut)
		}
	}
	if _, err := DecodeCheckpoint(cfg, append(bytes.Clone(ck.Root), 0xEE), store.get); err == nil {
		t.Fatal("trailing root object byte accepted")
	}
	// Damage to the nth object fetched: cut at every byte, or one byte long.
	damaged := func(nth int, damage func([]byte) []byte) error {
		fetched := 0
		_, err := DecodeCheckpoint(cfg, ck.Root, func(r Ref) ([]byte, error) {
			b, err := store.get(r)
			if fetched++; fetched-1 == nth && err == nil {
				b = damage(b)
			}
			return b, err
		})
		return err
	}
	var sizes []int // of the objects, in the order they are fetched
	if _, err := DecodeCheckpoint(cfg, ck.Root, func(r Ref) ([]byte, error) {
		sizes = append(sizes, int(r.Len))
		return store.get(r)
	}); err != nil {
		t.Fatal(err)
	}
	for nth, size := range sizes {
		for cut := 0; cut < size; cut++ {
			if damaged(nth, func(b []byte) []byte { return b[:cut] }) == nil {
				t.Fatalf("object %d truncated to %d of %d bytes accepted", nth, cut, size)
			}
		}
		if damaged(nth, func(b []byte) []byte { return append(bytes.Clone(b), 0xEE) }) == nil {
			t.Fatalf("trailing byte after object %d accepted", nth)
		}
	}
	// A schema of other dimensions is rejected.
	if _, err := DecodeCheckpoint(Config{Schema: dataset.PatientsSchema(), BaseK: 3}, ck.Root, store.get); err == nil {
		t.Fatal("wrong-dimension schema accepted")
	}
}

// TestSnapshotRefusesBufferedRecords: records still in the loader's
// buffers are not placed, so neither a checkpoint nor a snapshot can be
// taken until a flush places them.
func TestSnapshotRefusesBufferedRecords(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 3}
	tr, _ := New(cfg)
	bl, err := NewBulkLoader(tr, BulkLoadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs := continuousRecords(cfg.Schema, 50, 9)
	if err := bl.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	var store blobStore
	if _, err := tr.EncodeCheckpoint(true, store.put); err == nil {
		t.Fatal("checkpoint with buffered records accepted")
	}
	if _, err := tr.EncodeSnapshot(); err == nil {
		t.Fatal("snapshot with buffered records accepted")
	}
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(cfg, mustCheckpoint(t, tr, true, &store).Root, store.get)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(recs) {
		t.Fatalf("after the flush: decoded %d of %d records", got.Len(), len(recs))
	}
}
