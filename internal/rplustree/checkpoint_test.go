package rplustree

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/pager"
)

// blobStore is the simplest possible home for leaf encodings: one
// growing byte string, references addressing it by offset. It stands in
// for internal/wal's page stream.
type blobStore struct{ blob []byte }

func (b *blobStore) put(leaf []byte) (LeafRef, error) {
	ref := LeafRef{Pages: []pager.PageID{1}, Off: uint32(len(b.blob)), Len: uint32(len(leaf))}
	b.blob = append(b.blob, leaf...)
	return ref, nil
}

func (b *blobStore) get(ref LeafRef) ([]byte, error) {
	end := uint64(ref.Off) + uint64(ref.Len)
	if end > uint64(len(b.blob)) {
		return nil, fmt.Errorf("reference [%d,%d) outside a blob of %d bytes", ref.Off, end, len(b.blob))
	}
	return b.blob[ref.Off:end], nil
}

func mustSnapshot(t *testing.T, tr *Tree) []byte {
	t.Helper()
	snap, err := tr.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func mustCheckpoint(t *testing.T, tr *Tree, full bool, b *blobStore) *Checkpoint {
	t.Helper()
	ck, err := tr.EncodeCheckpoint(full, b.put)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestCheckpointRoundTrip: the directory form decodes to a tree whose
// inline snapshot is byte-identical to the source tree's — same trie,
// same leaf order, same record order within a leaf.
func TestCheckpointRoundTrip(t *testing.T) {
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
	ck := mustCheckpoint(t, tr, false, &store)
	if ck.Written != len(ck.Refs) || ck.Written != len(tr.Leaves()) {
		t.Fatalf("first checkpoint wrote %d of %d leaves (tree has %d)", ck.Written, len(ck.Refs), len(tr.Leaves()))
	}
	got, err := DecodeCheckpoint(cfg, ck.Dir, store.get)
	if err != nil {
		t.Fatal(err)
	}
	if !treesEqual(tr, got) || !bytes.Equal(mustSnapshot(t, tr), mustSnapshot(t, got)) {
		t.Fatal("decoded checkpoint differs from the live tree")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The decoded tree is stamped from the directory: with nothing
	// changed, its next checkpoint writes nothing.
	if ck2 := mustCheckpoint(t, got, false, &store); ck2.Written != 0 || got.DirtyBytes(1<<40) != 0 {
		t.Fatalf("checkpoint of an untouched recovered tree wrote %d leaves (%d dirty bytes)", ck2.Written, got.DirtyBytes(1<<40))
	}
	// The two forms are told apart by their version word.
	if _, err := DecodeSnapshot(cfg, ck.Dir); err == nil {
		t.Fatal("a directory decoded as an inline snapshot")
	}
	if _, err := DecodeCheckpoint(cfg, mustSnapshot(t, tr), store.get); err == nil {
		t.Fatal("an inline snapshot decoded as a directory")
	}
}

// TestCheckpointWritesOnlyChangedLeaves pins the stamp rules: nothing
// is stamped before Commit, a committed checkpoint makes the next one
// empty, one insert dirties one leaf (two when it splits), full rewrites
// everything.
func TestCheckpointWritesOnlyChangedLeaves(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 300, 5))
	leaves := len(tr.Leaves())
	var store blobStore

	// An attempt that is never committed stamps nothing: the retry
	// writes every leaf again.
	if ck := mustCheckpoint(t, tr, false, &store); ck.Written != leaves {
		t.Fatalf("first attempt wrote %d leaves, want %d", ck.Written, leaves)
	}
	ck := mustCheckpoint(t, tr, false, &store)
	if ck.Written != leaves {
		t.Fatalf("retry after an uncommitted attempt wrote %d leaves, want %d", ck.Written, leaves)
	}
	ck.Commit()
	if ck := mustCheckpoint(t, tr, false, &store); ck.Written != 0 || len(ck.Refs) != leaves {
		t.Fatalf("checkpoint with nothing changed wrote %d leaves, lists %d of %d", ck.Written, len(ck.Refs), leaves)
	}

	// One more record in a leaf with room dirties exactly that leaf.
	extra := attr.Record{ID: 9001, QI: append([]float64(nil), tr.Leaves()[0].Records[0].QI...)}
	if err := tr.Insert(extra); err != nil {
		t.Fatal(err)
	}
	wantDirty := 1 + len(tr.Leaves()) - leaves // a split replaces one leaf by two fresh ones
	ck = mustCheckpoint(t, tr, false, &store)
	if ck.Written != wantDirty || ck.WrittenBytes != tr.DirtyBytes(1<<40) {
		t.Fatalf("after one insert: wrote %d leaves / %d bytes, want %d leaves / %d bytes", ck.Written, ck.WrittenBytes, wantDirty, tr.DirtyBytes(1<<40))
	}
	ck.Commit()
	if n := tr.DirtyBytes(1 << 40); n != 0 {
		t.Fatalf("%d dirty bytes right after a commit", n)
	}

	// Deleting down to an underflow removes a leaf and reinserts its
	// records elsewhere; every leaf touched is rewritten, the rest keep
	// their references, and the result still round-trips.
	victim := tr.Leaves()[len(tr.Leaves())/2]
	for _, r := range append([]attr.Record(nil), victim.Records...)[:len(victim.Records)-cfg.BaseK+1] {
		if found, err := tr.Delete(r.ID, r.QI); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", r.ID, found, err)
		}
	}
	ck = mustCheckpoint(t, tr, false, &store)
	if ck.Written == 0 || ck.Written >= len(ck.Refs) {
		t.Fatalf("after an underflow repair: wrote %d of %d leaves", ck.Written, len(ck.Refs))
	}
	ck.Commit()
	got, err := DecodeCheckpoint(cfg, ck.Dir, store.get)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustSnapshot(t, tr), mustSnapshot(t, got)) {
		t.Fatal("incremental checkpoint chain decodes to a different tree")
	}

	if ck := mustCheckpoint(t, tr, true, &store); ck.Written != len(ck.Refs) {
		t.Fatalf("full checkpoint wrote %d of %d leaves", ck.Written, len(ck.Refs))
	}
}

// TestDecodeCheckpointRejectsDamage: a leaf that comes back short, long
// or unreadable, a truncated directory and a reference with no pages
// are errors, never panics or quietly wrong trees.
func TestDecodeCheckpointRejectsDamage(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 120, 7))
	var store blobStore
	ck := mustCheckpoint(t, tr, false, &store)

	for cut := 0; cut < len(ck.Dir); cut += 1 + len(ck.Dir)/97 {
		if _, err := DecodeCheckpoint(cfg, ck.Dir[:cut], store.get); err == nil {
			t.Fatalf("directory truncated to %d bytes accepted", cut)
		}
	}
	if _, err := DecodeCheckpoint(cfg, append(append([]byte(nil), ck.Dir...), 0xEE), store.get); err == nil {
		t.Fatal("trailing directory byte accepted")
	}
	damaged := map[string]func(LeafRef) ([]byte, error){
		"short leaf": func(r LeafRef) ([]byte, error) {
			b, err := store.get(r)
			return b[:len(b)-1], err
		},
		"long leaf": func(r LeafRef) ([]byte, error) {
			b, err := store.get(r)
			return append(append([]byte(nil), b...), 0), err
		},
		"unreadable leaf": func(LeafRef) ([]byte, error) { return nil, fmt.Errorf("device gone") },
		"another leaf's bytes": func(r LeafRef) ([]byte, error) {
			return store.get(ck.Refs[0])
		},
	}
	for name, get := range damaged {
		if _, err := DecodeCheckpoint(cfg, ck.Dir, get); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A reference must name at least one page.
	noPages, err := tr.EncodeCheckpoint(true, func(leaf []byte) (LeafRef, error) {
		ref, err := store.put(leaf)
		ref.Pages = nil
		return ref, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(cfg, noPages.Dir, store.get); err == nil {
		t.Fatal("reference without pages accepted")
	}
}
