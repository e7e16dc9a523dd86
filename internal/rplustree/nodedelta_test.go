package rplustree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

// widestParent returns the node over leaves with the most children, at
// most max of them.
func widestParent(t *testing.T, tr *Tree, max int) *node {
	t.Helper()
	var parent *node
	tr.walkLeaves(tr.root, func(l *node) {
		if p := l.parent; p.trie.fanout() <= max && (parent == nil || p.trie.fanout() > parent.trie.fanout()) {
			parent = p
		}
	})
	if parent == nil || parent.trie.fanout() < 5 {
		t.Fatal("no node over at least five leaves")
	}
	return parent
}

// nudge changes the leaf's records without changing the tree's shape: one
// more where there is room, one fewer where there is not.
func nudge(t *testing.T, tr *Tree, leaf *node, id int64) {
	t.Helper()
	if len(leaf.recs) < tr.cfg.leafCapacity() {
		if err := tr.Insert(attr.Record{ID: id, QI: slices.Clone(leaf.recs[0].QI)}); err != nil {
			t.Fatal(err)
		}
	} else if found, err := tr.Delete(leaf.recs[1].ID, leaf.recs[1].QI); err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
}

// TestNodeDeltaChain dirties a different child of one node before each
// checkpoint. The node goes out as a delta over the same base, one moved
// child longer each time, until the delta would pass half the node: then
// whole, its own base again, and the next one is cut against that. Every
// checkpoint decodes to the live tree — without fetching a reference the
// delta supersedes, and not without the one it puts in its place — and
// every other round goes on against the decoded tree, as after a reopen.
func TestNodeDeltaChain(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 8}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 1500, 5))
	var store blobStore
	mustCheckpoint(t, tr, false, &store).Commit()
	var anchors [][]float64 // a point in each leaf under the node
	for _, c := range widestParent(t, tr, tr.cfg.NodeCapacity).childNodes() {
		anchors = append(anchors, slices.Clone(c.recs[0].QI))
	}
	parentOf := func(tr *Tree) *node { return tr.routeToLeaf(tr.root, anchors[0]).parent }
	base, last, rebased := parentOf(tr).dur.ref, int64(0), -1
	for round, at := range anchors {
		leaf := tr.routeToLeaf(tr.root, at)
		old := leaf.dur.ref
		if nudge(t, tr, leaf, int64(9000+round)); round%2 == 0 {
			leaf.dur = nil // as a vetoed split plan leaves it: written whole, the old object dead
		}
		pending := dryRun(t, tr)
		if again := dryRun(t, tr); again != pending {
			t.Fatalf("round %d: one dry run wrote %+v, the next %+v", round, pending, again)
		}
		ck := mustCheckpoint(t, tr, false, &store)
		ck.Commit()
		if leafPart(pending) != leafPart(ck.Written) {
			t.Fatalf("round %d: %+v pending, %+v written", round, pending, ck.Written)
		}
		parent := parentOf(tr)
		stamp := parent.dur
		switch {
		case stamp.kind == kindNodeDelta && stamp.base.ref.equal(base) && int64(stamp.ref.Len) > last && int64(stamp.ref.Len)*deltaShare <= stamp.whole:
			last = int64(stamp.ref.Len)
		case stamp.kind == kindNode && stamp.base.ref.equal(stamp.ref) && rebased < 0 && round >= 2:
			rebased, base, last = round, stamp.ref, 0
		default:
			t.Fatalf("round %d: the node is an object of kind %d, %d bytes (the delta before it %d, the node whole %d) over base %+v", round, stamp.kind, stamp.ref.Len, last, stamp.whole, stamp.base.ref)
		}
		if nodes, _ := countNodes(tr); ck.Image.Leaves != nodes || ck.Image.NodeDeltas == 0 {
			t.Fatalf("round %d: image %+v", round, ck.Image)
		}
		// Damage to the leaf's superseded object, which the node's base still
		// names, goes unnoticed; damage to the one written in its place does not.
		refuse := func(dead Ref) func(Ref) ([]byte, error) {
			return func(r Ref) ([]byte, error) {
				if r.equal(dead) {
					return nil, fmt.Errorf("object at %d is damaged", r.Off)
				}
				return store.get(r)
			}
		}
		if round%2 == 1 {
			old = Ref{} // a delta'd leaf's old object is its base still
		}
		got, err := DecodeCheckpoint(cfg, ck.Root, refuse(old))
		if err != nil {
			t.Fatalf("round %d: with the superseded leaf object damaged: %v", round, err)
		}
		if !bytes.Equal(mustSnapshot(t, tr), mustSnapshot(t, got)) {
			t.Fatalf("round %d: the checkpoint decodes to a different tree", round)
		}
		if _, err := DecodeCheckpoint(cfg, ck.Root, refuse(leaf.dur.ref)); err == nil {
			t.Fatalf("round %d: decoded without the leaf's current object", round)
		}
		if twin := parentOf(got).dur; twin.kind != stamp.kind || !twin.ref.equal(stamp.ref) || !twin.base.ref.equal(stamp.base.ref) || !slices.EqualFunc(twin.base.children, stamp.base.children, Ref.equal) {
			t.Fatalf("round %d: the decoded node's stamp is %+v, the live one's %+v", round, twin, stamp)
		}
		if round%2 == 1 {
			tr = got
		}
	}
	if rebased < 0 || rebased == len(anchors)-1 {
		t.Fatalf("%d rounds: the node was written whole in round %d; want a rebase and a delta after it", len(anchors), rebased)
	}
}

// TestTrieEditForgetsNodeBase: a delta'd node whose child splits, or loses
// a child to an underflow repair, is written whole by the next checkpoint
// and is its own base again; one whose leaf only planned a split the guard
// vetoed keeps its trie, and its base.
func TestTrieEditForgetsNodeBase(t *testing.T) {
	veto := false
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4, Guard: func(l, r []attr.Record) bool { return !veto }}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 300, 5))
	var store blobStore
	mustCheckpoint(t, tr, false, &store).Commit()
	parent := widestParent(t, tr, tr.cfg.NodeCapacity-2)
	next := int64(9000)
	// crowd inserts around the leaf's first record until done says so.
	crowd := func(leaf *node, done func() bool) {
		for at := slices.Clone(leaf.recs[0].QI); !done(); next++ {
			at[0] += 1.0 / 1024
			if err := tr.Insert(attr.Record{ID: next, QI: slices.Clone(at)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	delta := func(step string) {
		t.Helper()
		next++
		nudge(t, tr, parent.childNodes()[0], next)
		if checkpointMatches(t, tr, &store, 0); parent.dur.kind != kindNodeDelta {
			t.Fatalf("%s: a change under the node wrote it as kind %d", step, parent.dur.kind)
		}
	}
	whole := func(step string) {
		t.Helper()
		if parent.dur != nil {
			t.Fatalf("%s left the node's base standing", step)
		}
		if ck, _ := checkpointMatches(t, tr, &store, 0); parent.dur.kind != kindNode || !parent.dur.base.ref.equal(parent.dur.ref) || ck.Image.Nodes+ck.Image.Leaves != len(ck.Pages)-ck.Image.Deltas-ck.Image.NodeDeltas {
			t.Fatalf("%s: the node is an object of kind %d over %+v; image %+v", step, parent.dur.kind, parent.dur.base.ref, ck.Image)
		}
	}

	delta("at first")
	base, leaf := parent.dur.base.ref, parent.childNodes()[1]
	veto = true
	crowd(leaf, func() bool { return len(leaf.recs) > tr.cfg.leafCapacity()+1 })
	if leaf.dur != nil || parent.dur == nil || parent.durable() {
		t.Fatalf("a vetoed split plan: leaf base %v, node base %v, node durable %v", leaf.dur, parent.dur, parent.durable())
	}
	if ck, _ := checkpointMatches(t, tr, &store, 0); ck.Written.Leaves != 1 || parent.dur.kind != kindNodeDelta || !parent.dur.base.ref.equal(base) {
		t.Fatalf("after a vetoed split plan: wrote %+v, the node is kind %d over %+v", ck.Written, parent.dur.kind, parent.dur.base.ref)
	}

	veto = false
	fanout := parent.trie.fanout()
	crowd(leaf, func() bool { return parent.trie.fanout() > fanout })
	whole("a leaf split")

	delta("after the split")
	victim := parent.childNodes()[parent.trie.fanout()-1]
	for _, r := range slices.Clone(victim.recs)[:len(victim.recs)-cfg.BaseK+1] {
		if found, err := tr.Delete(r.ID, r.QI); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", r.ID, found, err)
		}
	}
	if slices.Contains(parent.childNodes(), victim) {
		t.Fatal("draining a leaf did not dissolve it")
	}
	whole("an underflow repair")
}

// TestDecodeCheckpointRejectsNodeDeltaDamage: a node delta where a leaf is
// due, over another delta, over a leaf or over one of its own children,
// moving no child, a child the
// base does not have, children out of order or one twice, with trailing
// or missing bytes — each is refused with an error that names it.
func TestDecodeCheckpointRejectsNodeDeltaDamage(t *testing.T) {
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
	mustCheckpoint(t, tr, false, &store).Commit()
	a, b := tr.root.childNodes()[0], tr.root.childNodes()[1]
	leaf := tr.routeToLeaf(a, make([]float64, cfg.Schema.Dims()))
	// deltaOf stores a hand-made node delta claiming count moved children.
	deltaOf := func(base Ref, count int, moved []movedChild, tail ...byte) Ref {
		enc, prev := appendRef([]byte{kindNodeDelta}, base, 0)
		enc = binary.AppendUvarint(enc, uint64(count))
		for _, m := range moved {
			enc, prev = appendRef(binary.AppendUvarint(enc, m.pos), m.ref, prev)
		}
		ref, _ := store.put(append(enc, tail...), false)
		return ref
	}
	decode := func(tr *Tree, at *node, to Ref) error {
		_, err := DecodeCheckpoint(cfg, redirectedRoot(tr, &store, map[*node]Ref{at: to}), store.get)
		return err
	}
	kids := a.dur.base.children
	same := func(pos ...int) (moved []movedChild) {
		for _, p := range pos {
			moved = append(moved, movedChild{pos: uint64(p), ref: kids[min(p, len(kids)-1)]})
		}
		return moved
	}
	good := deltaOf(a.dur.ref, 2, same(0, 1))
	if err := decode(tr, a, good); err != nil {
		t.Fatalf("a delta moving two children to where they are: %v", err)
	}
	low, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, low, continuousRecords(cfg.Schema, 30, 7))
	mustCheckpoint(t, low, false, &store).Commit()
	if err := decode(low, low.root.childNodes()[0], good); err == nil || !strings.Contains(err.Error(), "of kind 3 at depth 1") {
		t.Errorf("a node delta where a leaf is due: %v", err)
	}
	for name, c := range map[string]struct {
		to   Ref
		want string
	}{
		"a delta over a delta":      {deltaOf(deltaOf(b.dur.ref, 1, same(0)), 1, same(0)), "names an object of kind 3 as its base"},
		"a delta over a leaf":       {deltaOf(leaf.dur.ref, 1, same(0)), "names an object of kind 0 as its base"},
		"its base as a child too":   {deltaOf(a.dur.ref, 1, []movedChild{{ref: a.dur.ref}}), "referenced twice"},
		"no moved child":            {deltaOf(a.dur.ref, 0, nil), "moves no child"},
		"a child beyond the base's": {deltaOf(a.dur.ref, 2, same(0, len(kids))), fmt.Sprintf("moves child %d of a base of %d children", len(kids), len(kids))},
		"children descending":       {deltaOf(a.dur.ref, 2, same(1, 0)), "out of ascending order"},
		"a child twice":             {deltaOf(a.dur.ref, 2, same(1, 1)), "out of ascending order"},
		"a trailing byte":           {deltaOf(a.dur.ref, 1, same(0), 0), "trailing bytes"},
		"fewer entries than said":   {deltaOf(a.dur.ref, 2, same(0)), "claims 2 elements"},
	} {
		if err := decode(tr, a, c.to); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", name, err, c.want)
		}
	}
	whole, _ := store.get(good)
	for cut := 0; cut < len(whole); cut++ {
		ref, _ := store.put(whole[:cut:cut], false)
		if err := decode(tr, a, ref); err == nil {
			t.Fatalf("node delta cut to %d of %d bytes accepted", cut, len(whole))
		}
	}
}
