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

// paperRecords are n distinct records of the paper's shape: eight
// integral attributes (32 bytes in the fixed layout), two-byte ID
// varints, no sensitive value.
func paperRecords(n int) []attr.Record {
	recs := make([]attr.Record, n)
	for i := range recs {
		recs[i] = attr.Record{ID: int64(100 + i), QI: []float64{float64(50000 + 37*i), float64(i % 7), 1, float64(i), 49, 2, 31, 0}}
	}
	return recs
}

// TestImageSizes pins what a record costs in a leaf page and a leaf in
// the directory, so a format regression fails here and not in a
// benchmark. The float64 format spent 76 bytes per record and 39 per
// leaf of a one-level directory.
func TestImageSizes(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := paperRecords(28)
	insertAll(t, tr, recs)
	leaves := len(tr.Leaves())
	if tr.Height() != 2 || leaves < 3 {
		t.Fatalf("want a root over a few leaves, got height %d with %d leaves", tr.Height(), leaves)
	}
	// One leaf per page, so every reference is: offset 0 (1 byte), a
	// length of 128..16383 (2), the CRC (4), one page (1) one further on
	// than the last (1).
	page := pager.PageID(0)
	var leafBytes int
	ck, err := tr.EncodeCheckpoint(true, func(leaf []byte) (LeafRef, error) {
		page++
		leafBytes += len(leaf)
		return LeafRef{Pages: []pager.PageID{page}, Len: uint32(len(leaf))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A leaf is its record count (1 byte here) and, per record, the ID
	// (2), the layout byte, eight 4-byte columns and an empty sensitive
	// value's length: 36 bytes.
	if want := leaves + 36*len(recs); leafBytes != want {
		t.Errorf("%d records in %d leaves encode to %d bytes, want %d (36 per record)", len(recs), leaves, leafBytes, want)
	}
	// The directory is a 12-byte header, the root's tag, and per leaf a
	// trie-leaf tag, a node tag and its 9-byte reference; each of the
	// leaves−1 hyperplanes between them costs a tag, an axis and a
	// one-column row (1 + 1 + 5): 18 bytes per further leaf.
	if want := 12 + 1 + 11*leaves + 7*(leaves-1); len(ck.Dir) != want {
		t.Errorf("directory of %d leaves is %d bytes, want %d (18 per leaf)", leaves, len(ck.Dir), want)
	}
	// A fractional coordinate moves its own row to the raw layout (+32
	// bytes) and nobody else's.
	snap := mustSnapshot(t, tr)
	odd := recs[0]
	odd.ID, odd.QI = 99, append([]float64{odd.QI[0] + 0.5}, odd.QI[1:]...)
	if err := tr.Insert(odd); err != nil {
		t.Fatal(err)
	}
	if grown := len(mustSnapshot(t, tr)) - len(snap); len(tr.Leaves()) == leaves && grown != 1+1+64+1 {
		t.Errorf("one fractional record grew the image by %d bytes, want 67", grown)
	}
}

// TestDecodeRefusesRetiredVersions: images in the fixed-width float64
// format (snapshot version 1, directory version 2) are refused by their
// version word.
func TestDecodeRefusesRetiredVersions(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, _ := New(cfg)
	insertAll(t, tr, paperRecords(10))
	var store blobStore
	for name, decode := range map[string]func(version byte) error{
		"snapshot": func(v byte) error {
			img := mustSnapshot(t, tr)
			img[0] = v
			_, err := DecodeSnapshot(cfg, img)
			return err
		},
		"directory": func(v byte) error {
			img := mustCheckpoint(t, tr, true, &store).Dir
			img[0] = v
			_, err := DecodeCheckpoint(cfg, img, store.get)
			return err
		},
	} {
		for _, v := range []byte{1, 2} {
			if err := decode(v); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format version %d", v)) {
				t.Errorf("%s with version word %d: %v, want a version error", name, v, err)
			}
		}
	}
}

// TestDecodeLeafAllocations: decoding a leaf allocates a fixed number of
// arrays — the node, its boxes, the record array and ONE array for every
// record's coordinates — however many records it holds.
func TestDecodeLeafAllocations(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 10}
	allocs := func(n int) float64 {
		tr, _ := New(cfg)
		insertAll(t, tr, paperRecords(n))
		if tr.Height() != 1 {
			t.Fatalf("%d records split the root leaf", n)
		}
		snap := mustSnapshot(t, tr)
		return testing.AllocsPerRun(50, func() {
			got, err := DecodeSnapshot(cfg, snap)
			if err != nil || got.Len() != n {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(2), allocs(20)
	if few != many || many > 12 {
		t.Errorf("decoding a leaf of 2 records allocates %v times, of 20 records %v times; want the same small number", few, many)
	}
	// The vectors are windows of one array, clipped so that growing one
	// cannot reach into its neighbour.
	tr, _ := New(cfg)
	insertAll(t, tr, paperRecords(3))
	got, err := DecodeSnapshot(cfg, mustSnapshot(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got.Leaves()[0].Records {
		if cap(r.QI) != len(r.QI) {
			t.Errorf("decoded vector of record %d has capacity %d beyond its %d values", r.ID, cap(r.QI), len(r.QI))
		}
	}
}
