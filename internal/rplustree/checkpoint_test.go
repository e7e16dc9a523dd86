package rplustree

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
	"spatialanon/internal/pager"
)

// blobStore is the simplest possible home for node objects: one growing
// byte string, references addressing it by offset. It stands in for
// internal/wal's page streams.
type blobStore struct{ blob []byte }

func (b *blobStore) put(enc []byte, leaf bool) (Ref, error) {
	ref := Ref{Pages: []pager.PageID{1}, Off: uint32(len(b.blob)), Len: uint32(len(enc))}
	b.blob = append(b.blob, enc...)
	return ref, nil
}

func (b *blobStore) get(ref Ref) ([]byte, error) {
	end := uint64(ref.Off) + uint64(ref.Len)
	if end > uint64(len(b.blob)) {
		return nil, fmt.Errorf("reference [%d,%d) outside a blob of %d bytes", ref.Off, end, len(b.blob))
	}
	return b.blob[ref.Off:end], nil
}

// mustSnapshot is the tree's canonical image: a full checkpoint in one
// byte string. Equal images mean the same trie, the same leaf order and
// the same record order within every leaf.
func mustSnapshot(t testing.TB, tr *Tree) []byte {
	t.Helper()
	snap, err := tr.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func mustCheckpoint(t testing.TB, tr *Tree, full bool, b *blobStore) *Checkpoint {
	t.Helper()
	ck, err := tr.EncodeCheckpoint(full, b.put)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// dryRun is what an incremental checkpoint of tr would write right now,
// found by encoding one into a store of its own and never committing it.
func dryRun(t testing.TB, tr *Tree) Footprint {
	t.Helper()
	return mustCheckpoint(t, tr, false, &blobStore{}).Written
}

// leafPart is the part of a footprint that does not depend on where the
// objects are stored: leaves and their deltas to the byte; of the internal
// nodes how many are written, not how long the references in them are.
func leafPart(f Footprint) Footprint {
	return Footprint{Leaves: f.Leaves, LeafBytes: f.LeafBytes, Deltas: f.Deltas, DeltaBytes: f.DeltaBytes, Nodes: f.Nodes + f.NodeDeltas}
}

// countNodes returns the tree's leaves and internal nodes.
func countNodes(tr *Tree) (leaves, nodes int) {
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			leaves++
			return
		}
		nodes++
		for _, c := range n.childNodes() {
			walk(c)
		}
	}
	walk(tr.root)
	return leaves, nodes
}

// TestCheckpointRoundTrip: an incremental checkpoint decodes to a tree
// whose snapshot is byte-identical to the source tree's — same trie,
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
	leaves, nodes := countNodes(tr)
	if ck.Written != ck.Image || ck.Written.Leaves != leaves || ck.Written.Nodes != nodes {
		t.Fatalf("first checkpoint wrote %+v of %+v (tree has %d leaves, %d nodes)", ck.Written, ck.Image, leaves, nodes)
	}
	if ck.Image.Bytes() != int64(len(store.blob)) || len(ck.Pages) != leaves+nodes {
		t.Fatalf("image of %d bytes on %d pages, stored %d bytes in %d objects", ck.Image.Bytes(), len(ck.Pages), len(store.blob), leaves+nodes)
	}
	got, err := DecodeCheckpoint(cfg, ck.Root, store.get)
	if err != nil {
		t.Fatal(err)
	}
	if !treesEqual(tr, got) || !bytes.Equal(mustSnapshot(t, tr), mustSnapshot(t, got)) {
		t.Fatal("decoded checkpoint differs from the live tree")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The decoded tree is stamped from its references: with nothing
	// changed, its next checkpoint writes nothing.
	if ck2 := mustCheckpoint(t, got, false, &store); ck2.Written != (Footprint{}) || ck2.Image != ck.Image || ck2.Whole != ck.Image.Bytes() {
		t.Fatalf("checkpoint of an untouched recovered tree wrote %+v (image %+v, %d bytes whole)", ck2.Written, ck2.Image, ck2.Whole)
	}
}

// TestCheckpointWritesOnlyChangedLeaves pins the stamp rules: nothing is
// stamped before Commit, a committed checkpoint makes the next one
// empty, one insert dirties one leaf (two when it splits) and the nodes
// above it — the leaf going out as a delta, fresh halves whole — and full
// rewrites everything whole.
func TestCheckpointWritesOnlyChangedLeaves(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 300, 5))
	leaves, nodes := countNodes(tr)
	var store blobStore

	// An attempt that is never committed stamps nothing: the retry
	// writes every node again.
	if ck := mustCheckpoint(t, tr, false, &store); ck.Written.Leaves != leaves || ck.Written.Nodes != nodes {
		t.Fatalf("first attempt wrote %+v, want %d leaves and %d nodes", ck.Written, leaves, nodes)
	}
	ck := mustCheckpoint(t, tr, false, &store)
	if ck.Written.Leaves != leaves || ck.Written.Nodes != nodes {
		t.Fatalf("retry after an uncommitted attempt wrote %+v, want %d leaves and %d nodes", ck.Written, leaves, nodes)
	}
	ck.Commit()
	if ck := mustCheckpoint(t, tr, false, &store); ck.Written != (Footprint{}) || ck.Image.Leaves != leaves || ck.Image.Nodes != nodes {
		t.Fatalf("checkpoint with nothing changed wrote %+v, lists %+v of %d leaves and %d nodes", ck.Written, ck.Image, leaves, nodes)
	}

	// One more record in a leaf with room dirties exactly that leaf and
	// the one node per level above it.
	extra := attr.Record{ID: 9001, QI: append([]float64(nil), tr.Leaves()[0].Record(0).QI...)}
	if err := tr.Insert(extra); err != nil {
		t.Fatal(err)
	}
	nowLeaves, nowNodes := countNodes(tr)
	wantLeaves := 1 + nowLeaves - leaves // a split replaces one leaf by two fresh ones
	wantNodes := tr.Height() - 1 + nowNodes - nodes
	pending := dryRun(t, tr)
	ck = mustCheckpoint(t, tr, false, &store)
	if ck.Written.Leaves+ck.Written.Deltas != wantLeaves || (wantLeaves == 1) != (ck.Written.Deltas == 1) || ck.Written.Nodes+ck.Written.NodeDeltas != wantNodes {
		t.Fatalf("after one insert: wrote %+v, want %d leaves and %d nodes", ck.Written, wantLeaves, wantNodes)
	}
	if leafPart(pending) != leafPart(ck.Written) {
		t.Fatalf("after one insert: %+v pending, %+v written", pending, ck.Written)
	}
	ck.Commit()
	if p := dryRun(t, tr); p != (Footprint{}) {
		t.Fatalf("%+v pending right after a commit", p)
	}

	// Deleting down to an underflow removes a leaf and reinserts its
	// records elsewhere; every leaf touched is rewritten, the rest keep
	// their references, and the result still round-trips.
	victim := tr.Leaves()[len(tr.Leaves())/2]
	for _, r := range rows(victim)[:victim.Size()-cfg.BaseK+1] {
		if found, err := tr.Delete(r.ID, r.QI); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", r.ID, found, err)
		}
	}
	ck = mustCheckpoint(t, tr, false, &store)
	if wrote, nodes := ck.Written.Leaves+ck.Written.Deltas, ck.Written.Nodes+ck.Written.NodeDeltas; wrote == 0 || wrote >= ck.Image.Leaves || nodes == 0 || nodes >= ck.Image.Nodes {
		t.Fatalf("after an underflow repair: wrote %+v of %+v", ck.Written, ck.Image)
	}
	ck.Commit()
	got, err := DecodeCheckpoint(cfg, ck.Root, store.get)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustSnapshot(t, tr), mustSnapshot(t, got)) {
		t.Fatal("incremental checkpoint chain decodes to a different tree")
	}

	if ck := mustCheckpoint(t, tr, true, &store); ck.Written != ck.Image || ck.Written.Deltas != 0 {
		t.Fatalf("full checkpoint wrote %+v of %+v", ck.Written, ck.Image)
	}
}

// TestStructuralEditsInvalidateStamps pins the rule itself, not only its
// outcome: an insert under a node stamps it — its durable copy no longer
// stands for the subtree — but the copy stays, as the base of the node's
// next delta; a node whose trie is edited — a child split
// in two, a child spliced out by an underflow repair — forgets its copy
// there and then, whatever the next checkpoint walk would find beneath it.
func TestStructuralEditsInvalidateStamps(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 300, 5))
	var store blobStore
	mustCheckpoint(t, tr, false, &store).Commit()

	leaf := tr.routeToLeaf(tr.root, tr.Leaves()[0].Record(0).QI)
	parent, fanout := leaf.parent, leaf.parent.trie.fanout()
	for id := int64(9000); parent.trie.fanout() == fanout; id++ {
		if parent.dur == nil || parent.durable() != (id == 9000) {
			t.Fatalf("after %d inserts into a leaf with room its parent's base is %v, durable %v", id-9000, parent.dur, parent.durable())
		}
		qi := append([]float64(nil), leaf.recs[0].QI...)
		qi[0] += float64(id-9000) / 16
		if err := tr.Insert(attr.Record{ID: id, QI: qi}); err != nil {
			t.Fatal(err)
		}
	}
	if parent.dur != nil {
		t.Fatal("a leaf split left its parent's base standing")
	}
	mustCheckpoint(t, tr, false, &store).Commit()

	leaf = tr.routeToLeaf(tr.root, tr.Leaves()[len(tr.Leaves())/2].Record(0).QI)
	parent, fanout = leaf.parent, leaf.parent.trie.fanout()
	if fanout < 2 || !parent.durable() {
		t.Fatalf("want a durable parent of several leaves, got %d children, durable=%v", fanout, parent.durable())
	}
	for _, r := range append([]attr.Record(nil), leaf.recs...)[:len(leaf.recs)-cfg.BaseK+1] {
		if found, err := tr.Delete(r.ID, r.QI); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", r.ID, found, err)
		}
	}
	if parent.trie.fanout() >= fanout && parent.parent != nil {
		t.Fatalf("the underflow repair did not remove a child: %d of %d left", parent.trie.fanout(), fanout)
	}
	if parent.dur != nil {
		t.Fatal("an underflow repair left the spliced node's base standing")
	}
}

// checkpointMatches takes an incremental checkpoint of tr through store
// and asserts that decoding it yields tr byte for byte — a stale stamp
// anywhere (a node whose trie changed without its stamp
// noticing, a leaf whose delta misses a change) would resurrect the old
// state here. Most checkpoints are committed; one in four is abandoned, as
// a failed publish would. It returns the checkpoint and the decoded tree.
func checkpointMatches(t testing.TB, tr *Tree, store *blobStore, n int) (*Checkpoint, *Tree) {
	t.Helper()
	ck := mustCheckpoint(t, tr, false, store)
	got, err := DecodeCheckpoint(tr.cfg, ck.Root, store.get)
	if err != nil {
		t.Fatalf("checkpoint %d does not decode: %v", n, err)
	}
	if !bytes.Equal(mustSnapshot(t, tr), mustSnapshot(t, got)) {
		t.Fatalf("checkpoint %d decodes to a different tree", n)
	}
	if n%4 != 3 {
		ck.Commit()
	}
	return ck, got
}

// TestCheckpointFollowsRestructuring is the stale-stamp property: seeded
// runs interleave inserts, deletes that force underflow repairs, and —
// with three children per node — internal splits and collapsing
// single-child chains, with a checkpoint every few operations; each must
// decode to the live tree, and now and then the run goes on against the
// decoded tree, as after a reopen.
func TestCheckpointFollowsRestructuring(t *testing.T) {
	var sawLeafSplit, sawNodeSplit, sawRepair, sawChain, sawPartial, sawShrink, sawDelta, sawNodeDelta bool
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Schema: dataset.PatientsSchema(), BaseK: 2, NodeCapacity: 2 + int(seed%3)}
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var store blobStore
		var live []attr.Record
		leaves, nodes, height, ckpts := 1, 0, 1, 0
		for step := 0; step < 600; step++ {
			// Growth, then a purge down to the empty tree, then both again.
			purge := step%300 >= 150
			if len(live) > 0 && rng.Float64() < map[bool]float64{false: 0.2, true: 0.9}[purge] {
				// The lowest ages first: neighbouring leaves drain together.
				j := 0
				for i, r := range live {
					if r.QI[0] < live[j].QI[0] {
						j = i
					}
				}
				victim := live[j]
				live = append(live[:j], live[j+1:]...)
				if found, err := tr.Delete(victim.ID, victim.QI); err != nil || !found {
					t.Fatalf("seed %d step %d: delete %d: found=%v err=%v", seed, step, victim.ID, found, err)
				}
			} else {
				r := attr.Record{ID: int64(step), QI: []float64{float64(rng.Intn(90)), float64(rng.Intn(2)), float64(52000 + rng.Intn(900))}}
				live = append(live, r)
				if err := tr.Insert(r); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(5) != 0 {
				continue
			}
			ck, got := checkpointMatches(t, tr, &store, ckpts)
			if sawDelta = sawDelta || ck.Written.Deltas > 0; ckpts%4 == 1 {
				tr = got // a committed one: go on as if reopened
			}
			ckpts++
			l, n := countNodes(tr)
			sawLeafSplit = sawLeafSplit || l > leaves
			sawNodeSplit = sawNodeSplit || (n > nodes+1 && tr.height == height)
			sawRepair = sawRepair || l < leaves
			sawChain = sawChain || (n < nodes && tr.height == height)
			sawShrink = sawShrink || tr.height < height
			sawPartial = sawPartial || (ck.Written.Nodes+ck.Written.NodeDeltas > 0 && ck.Written.Nodes+ck.Written.NodeDeltas < ck.Image.Nodes)
			sawNodeDelta = sawNodeDelta || ck.Written.NodeDeltas > 0
			leaves, nodes, height = l, n, tr.height
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	for name, saw := range map[string]bool{
		"a leaf split": sawLeafSplit, "an internal split": sawNodeSplit, "an underflow repair": sawRepair,
		"a removed internal node": sawChain, "a tree collapsing to a lower height": sawShrink, "a checkpoint writing some nodes and keeping others": sawPartial,
		"a leaf delta": sawDelta, "a node delta": sawNodeDelta,
	} {
		if !saw {
			t.Errorf("the seed matrix never put %s between two checkpoints", name)
		}
	}
}

// TestDecodeCheckpointRejectsDamage: an object that comes back short,
// long or unreadable, a truncated root object, a reference with no
// pages, and a node object whose child reference leads to a sibling's
// object, to an ancestor's or to an object of the wrong kind are errors,
// never panics or quietly wrong trees.
func TestDecodeCheckpointRejectsDamage(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 400, 7))
	if tr.Height() < 3 {
		t.Fatalf("want internal nodes under the root, got height %d", tr.Height())
	}
	var store blobStore
	ck := mustCheckpoint(t, tr, false, &store)
	ck.Commit()

	for cut := 0; cut < len(ck.Root); cut++ {
		if _, err := DecodeCheckpoint(cfg, ck.Root[:cut], store.get); err == nil {
			t.Fatalf("root object truncated to %d bytes accepted", cut)
		}
	}
	if _, err := DecodeCheckpoint(cfg, append(bytes.Clone(ck.Root), 0xEE), store.get); err == nil {
		t.Fatal("trailing root object byte accepted")
	}
	// Damage to the n-th object fetched: 0 is the root node, the last one
	// a leaf.
	someLeaf := tr.routeToLeaf(tr.root, make([]float64, cfg.Schema.Dims())).dur.ref
	objects := ck.Image.Leaves + ck.Image.Nodes
	for _, nth := range []int{0, 1, objects / 2, objects - 1} {
		for name, damage := range map[string]func([]byte) ([]byte, error){
			"short":                  func(b []byte) ([]byte, error) { return b[:len(b)-1], nil },
			"long":                   func(b []byte) ([]byte, error) { return append(bytes.Clone(b), 0), nil },
			"unreadable":             func([]byte) ([]byte, error) { return nil, fmt.Errorf("device gone") },
			"replaced by a leaf":     func([]byte) ([]byte, error) { return store.get(someLeaf) },
			"replaced by a sibling":  func([]byte) ([]byte, error) { return store.get(tr.root.childNodes()[1].dur.ref) },
			"replaced by its parent": func([]byte) ([]byte, error) { return store.get(tr.root.dur.ref) },
		} {
			fetched, damaged := 0, false
			_, err := DecodeCheckpoint(cfg, ck.Root, func(r Ref) ([]byte, error) {
				b, err := store.get(r)
				if fetched++; fetched-1 != nth || err != nil {
					return b, err
				}
				d, err := damage(b)
				damaged = !bytes.Equal(d, b)
				return d, err
			})
			if err == nil && damaged {
				t.Errorf("object %d %s accepted", nth, name)
			}
		}
	}

	// The same tree with the first of the root's child references
	// redirected, the object it led to now unreachable.
	redirected := func(tr *Tree, to Ref) []byte {
		return redirectedRoot(tr, &store, map[*node]Ref{tr.root.childNodes()[0]: to})
	}
	a, b := tr.root.childNodes()[0], tr.root.childNodes()[1]
	if _, err := DecodeCheckpoint(cfg, redirected(tr, a.dur.ref), store.get); err != nil {
		t.Fatalf("a root node rebuilt with its own references: %v", err)
	}
	for name, to := range map[string]Ref{
		"at a sibling's object":          b.dur.ref,
		"at an ancestor's object":        tr.root.dur.ref,
		"at a leaf where a node is due":  tr.routeToLeaf(a, make([]float64, cfg.Schema.Dims())).dur.ref,
		"at a reference without pages":   {Len: a.dur.ref.Len},
		"past the end of what is stored": {Pages: []pager.PageID{1}, Off: uint32(len(store.blob)), Len: 8},
	} {
		if _, err := DecodeCheckpoint(cfg, redirected(tr, to), store.get); err == nil {
			t.Errorf("a child reference pointing %s accepted", name)
		}
	}
	// A node where a leaf is due: a root over leaves, one reference led
	// to a node object of the tree above.
	low, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, low, continuousRecords(cfg.Schema, 30, 7))
	if low.Height() != 2 {
		t.Fatalf("want a root over leaves, got height %d", low.Height())
	}
	mustCheckpoint(t, low, false, &store).Commit()
	if _, err := DecodeCheckpoint(cfg, redirected(low, b.dur.ref), store.get); err == nil {
		t.Error("a child reference pointing at a node where a leaf is due accepted")
	}
}

// paperRecords are n distinct records of the paper's shape: eight
// integral attributes (32 bytes in fixed columns, 10 as varints: a
// zip-sized first column and seven small ones), two-byte ID varints, no
// sensitive value.
func paperRecords(n int) []attr.Record {
	recs := make([]attr.Record, n)
	for i := range recs {
		recs[i] = attr.Record{ID: int64(100 + i), QI: []float64{float64(50000 + 37*i), float64(i % 7), 1, float64(i), 49, 2, 31, 0}}
	}
	return recs
}

// TestImageSizes pins what a record costs in a leaf page, a child in a
// node object and the root object, so a format regression fails here and
// not in a benchmark. The float64 format spent 76 bytes per record and
// 39 per leaf of a one-level directory, the one-buffer directory 18 per
// leaf, the fixed columns 36 per record (1 018 bytes for these 28).
func TestImageSizes(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := paperRecords(28)
	insertAll(t, tr, recs)
	leaves := len(tr.Leaves())
	if tr.Height() != 2 || leaves != 5 {
		t.Fatalf("want a root over 5 leaves, got height %d with %d leaves", tr.Height(), leaves)
	}
	// One object per page, so every reference is: offset 0 (1 byte), a
	// length (1 below 128, as every object here is), the CRC (4), one page
	// (1) one further on than the last (1).
	page := pager.PageID(0)
	var node []byte
	ck, err := tr.EncodeCheckpoint(true, func(enc []byte, leaf bool) (Ref, error) {
		page++
		if !leaf {
			node = bytes.Clone(enc)
		}
		return Ref{Pages: []pager.PageID{page}, Len: uint32(len(enc))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A leaf is its kind byte, its record count (1 byte here) and, per
	// record, the ID (2), the row (the layout byte, a 3-byte varint and
	// seven 1-byte ones) and an empty sensitive value's length: 14 bytes.
	if want := int64(2*leaves + 14*len(recs)); ck.Written.LeafBytes != want || want != 402 {
		t.Errorf("%d records in %d leaves encode to %d bytes, want %d (14 per record)", len(recs), leaves, ck.Written.LeafBytes, want)
	}
	// The root node's object is its kind byte and, per leaf, a trie-leaf
	// tag and an 8-byte reference; each of the four hyperplanes between
	// them costs a tag, an axis and a one-column row — 2 bytes for the two
	// on the second axis (2 and 4), 4 for the two in the zip range.
	if want := 1 + 9*leaves + 2*(2+2) + 2*(2+4); len(node) != want || ck.Written.NodeBytes != int64(want) || ck.Written.Nodes != 1 {
		t.Errorf("root node over %d leaves is %d bytes (%+v), want %d", leaves, len(node), ck.Written, want)
	}
	// The root object is the 12-byte header and one 8-byte reference.
	if len(ck.Root) != 12+8 {
		t.Errorf("root object is %d bytes, want 20", len(ck.Root))
	}
	// A fractional coordinate moves its own row to the raw layout and
	// nobody else's: a leaf with room grows by the record alone — its ID
	// (2), a 65-byte row and the sensitive length.
	leafBytes := func() int64 { return mustCheckpoint(t, tr, true, &blobStore{}).Written.LeafBytes }
	before := leafBytes()
	odd := roomyLeaf(t, tr).recs[0]
	odd.ID, odd.QI = 99, append([]float64{odd.QI[0] + 0.5}, odd.QI[1:]...)
	if err := tr.Insert(odd); err != nil {
		t.Fatal(err)
	}
	if grown := leafBytes() - before; len(tr.Leaves()) != leaves || grown != 2+65+1 {
		t.Errorf("one fractional record grew the leaves by %d bytes and %d leaves to %d, want 68 bytes", grown, leaves, len(tr.Leaves()))
	}
}

// TestDeltaSize pins what a change costs in a delta object: the kind
// byte, the base's 8-byte reference, a count and a byte per deleted
// record, a count and the record (14 bytes, TestImageSizes) per inserted
// one — 25 bytes for one insert, where fixed columns took 48.
func TestDeltaSize(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, paperRecords(28))
	page := pager.PageID(0)
	put := func(enc []byte, leaf bool) (Ref, error) {
		page++
		return Ref{Pages: []pager.PageID{page}, Len: uint32(len(enc))}, nil
	}
	ck, err := tr.EncodeCheckpoint(false, put)
	if err != nil {
		t.Fatal(err)
	}
	ck.Commit()
	leaf := roomyLeaf(t, tr)
	extra := leaf.recs[0]
	extra.ID = 999
	if err := tr.Insert(extra); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1 + 8 + 1 + 1 + 14, 1 + 8 + 2 + 1 + 14} {
		if ck, err = tr.EncodeCheckpoint(false, put); err != nil {
			t.Fatal(err)
		}
		ck.Commit()
		if ck.Written.Deltas != 1 || ck.Written.DeltaBytes != want {
			t.Errorf("delta %d: wrote %+v, want one delta of %d bytes", i, ck.Written, want)
		}
		if _, err := tr.Delete(leaf.recs[0].ID, leaf.recs[0].QI); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeRefusesRetiredVersions: root objects in the fixed-width
// float64 format (versions 1 and 2), trees with every child inline
// (versions 3 and 4), checkpoints whose directory was one buffer (version
// 4), whose leaves had no deltas (version 5), whose nodes had none
// (version 6) or whose rows took no varints (version 7) are refused by
// their version word.
func TestDecodeRefusesRetiredVersions(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, _ := New(cfg)
	insertAll(t, tr, paperRecords(10))
	var store blobStore
	root := mustCheckpoint(t, tr, true, &store).Root
	decode := func(v byte) error {
		img := bytes.Clone(root)
		img[0] = v
		_, err := DecodeCheckpoint(cfg, img, store.get)
		return err
	}
	if err := decode(directoryVersion); err != nil {
		t.Fatalf("root object in this build's version %d: %v", directoryVersion, err)
	}
	for v := byte(1); v < directoryVersion; v++ {
		if err := decode(v); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format version %d", v)) {
			t.Errorf("version word %d: %v, want a version error", v, err)
		}
	}
}

// TestDecodeLeafAllocations: decoding a leaf allocates a fixed number of
// arrays — the node, its boxes, the record array and ONE array for every
// record's coordinates — however many records it holds.
func TestDecodeLeafAllocations(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 10}
	decoded := func(n int) (*Tree, float64) {
		tr, _ := New(cfg)
		insertAll(t, tr, paperRecords(n))
		if tr.Height() != 1 {
			t.Fatalf("%d records split the root leaf", n)
		}
		var store blobStore
		root, get := mustCheckpoint(t, tr, true, &store).Root, store.get
		var got *Tree
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if got, err = DecodeCheckpoint(cfg, root, get); err != nil || got.Len() != n {
				t.Fatal(err)
			}
		})
		return got, allocs
	}
	_, few := decoded(2)
	got, many := decoded(20)
	if few != many || many > 12 {
		t.Errorf("decoding a leaf of 2 records allocates %v times, of 20 records %v times; want the same small number", few, many)
	}
	// The vectors are windows of one array, clipped so that growing one
	// cannot reach into its neighbour.
	for _, r := range rows(got.Leaves()[0]) {
		if cap(r.QI) != len(r.QI) {
			t.Errorf("decoded vector of record %d has capacity %d beyond its %d values", r.ID, cap(r.QI), len(r.QI))
		}
	}
}
