package rplustree

import (
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
		if len(x.children) != len(y.children) {
			return false
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

	snap, err := tr.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("decoded tree invalid: %v", err)
	}
	if !treesEqual(tr, got) {
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
}

func TestSnapshotEmptyTree(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 3}
	tr, _ := New(cfg)
	snap, err := tr.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Height() != 1 {
		t.Fatalf("decoded empty tree: len=%d height=%d", got.Len(), got.Height())
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 3}
	tr, _ := New(cfg)
	insertAll(t, tr, continuousRecords(cfg.Schema, 100, 5))
	snap, err := tr.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(snap); cut += 7 {
		if _, err := DecodeSnapshot(cfg, snap[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeSnapshot(cfg, append(append([]byte(nil), snap...), 0xEE)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A wrong-dimension schema is rejected.
	if _, err := DecodeSnapshot(Config{Schema: dataset.PatientsSchema(), BaseK: 3}, snap); err == nil {
		t.Fatal("wrong-dimension schema accepted")
	}
}

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
	if _, err := tr.EncodeSnapshot(); err == nil {
		t.Fatal("snapshot with buffered records accepted")
	}
	if err := bl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.EncodeSnapshot(); err != nil {
		t.Fatal(err)
	}
}
