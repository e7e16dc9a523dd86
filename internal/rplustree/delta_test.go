package rplustree

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"spatialanon/internal/attr"
	"spatialanon/internal/dataset"
)

// redirectedRoot is tr's root object over a fresh copy of its root node's
// object in which the references of the children named in to lead
// elsewhere.
func redirectedRoot(tr *Tree, store *blobStore, to map[*node]Ref) []byte {
	var refs []Ref
	tr.root.trie.each(func(c *node) {
		ref, ok := to[c]
		if !ok {
			ref = c.dur.ref
		}
		refs = append(refs, ref)
	})
	ref, _ := store.put(appendWhole(nil, tr.root, refs), false)
	root, _ := tr.appendHeader()
	root, _ = appendRef(root, ref, 0)
	return root
}

// roomyLeaf returns a leaf that takes an insert without splitting and a
// delete without underflowing.
func roomyLeaf(t *testing.T, tr *Tree, not ...*node) *node {
	t.Helper()
	var found *node
	tr.walkLeaves(tr.root, func(n *node) {
		if found == nil && len(n.recs) > tr.cfg.BaseK && len(n.recs) < tr.cfg.leafCapacity() && !slices.Contains(not, n) {
			found = n
		}
	})
	if found == nil {
		t.Fatal("no leaf with room both ways")
	}
	return found
}

// TestLeafBaseRemove: whatever order base records are deleted in, removed
// lists their base positions ascending and kept counts the survivors;
// deleting appended records leaves both alone.
func TestLeafBaseRemove(t *testing.T) {
	for _, order := range [][]int{{0, 0, 0}, {4, 3, 2, 1, 0}, {2, 0, 2, 0, 0}, {1, 3, 1}, {5, 5, 4}} {
		base := &baseCopy{kept: 5}
		live := []int{0, 1, 2, 3, 4, 100, 101} // base positions, then two appended records
		var want []uint32
		for _, idx := range order {
			if live[idx] < 100 {
				want = append(want, uint32(live[idx]))
			}
			base.remove(idx)
			live = slices.Delete(live, idx, idx+1)
		}
		slices.Sort(want)
		if !slices.Equal(base.removed, want) || base.kept != 5-len(want) {
			t.Errorf("deleting at %v: removed %v kept %d, want %v kept %d", order, base.removed, base.kept, want, 5-len(want))
		}
	}
}

// TestLeafDeltaChain walks one tree through every turn a leaf's durable
// form can take — a delta, the delta superseding it, an aborted attempt, a
// decoded tree cutting its next delta against the same base, a rebase
// forced by the size rule, a split of a delta'd leaf, an underflow repair
// dissolving one, a full rewrite — and after each the checkpoint decodes
// to the live tree byte for byte and writes what a dry run before it did:
// an EncodeCheckpoint that is never committed changes nothing.
func TestLeafDeltaChain(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 8}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 600, 5))
	var store blobStore
	mustCheckpoint(t, tr, false, &store).Commit()
	leaves, _ := countNodes(tr)

	// checkpoint takes an incremental checkpoint of tree and returns it
	// uncommitted with what it decodes to.
	checkpoint := func(step string, tree *Tree, full bool) (*Checkpoint, *Tree) {
		t.Helper()
		pending := dryRun(t, tree)
		if again := dryRun(t, tree); again != pending {
			t.Fatalf("%s: one dry run wrote %+v, the next %+v", step, pending, again)
		}
		ck := mustCheckpoint(t, tree, full, &store)
		if !full && leafPart(pending) != leafPart(ck.Written) {
			t.Fatalf("%s: %+v pending, %+v written", step, pending, ck.Written)
		}
		got, err := DecodeCheckpoint(cfg, ck.Root, store.get)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !bytes.Equal(mustSnapshot(t, tree), mustSnapshot(t, got)) {
			t.Fatalf("%s: the checkpoint decodes to a different tree", step)
		}
		if n, _ := countNodes(tree); ck.Image.Leaves != n {
			t.Fatalf("%s: image of %+v for %d leaves", step, ck.Image, n)
		}
		// The decoded tree's stamps know what every leaf weighs whole,
		// behind a delta too.
		want := ck.Image.NodeBytes
		got.walkLeaves(got.root, func(n *node) { want += 1 + leafSize(n.recs) })
		if whole := mustCheckpoint(t, got, false, &blobStore{}).Whole; whole != want {
			t.Fatalf("%s: the decoded tree weighs %d bytes whole, its leaves and nodes %d", step, whole, want)
		}
		return ck, got
	}
	update := func(tree *Tree, r attr.Record, note string) {
		t.Helper()
		moved := r
		moved.Sensitive = note
		if found, err := tree.Update(r.ID, r.QI, moved); err != nil || !found {
			t.Fatalf("update %d: found=%v err=%v", r.ID, found, err)
		}
	}

	// A delta: one appended row against the leaf's whole copy.
	leaf := roomyLeaf(t, tr)
	base := leaf.dur.ref
	extra := attr.Record{ID: 9001, QI: slices.Clone(leaf.recs[0].QI)}
	if err := tr.Insert(extra); err != nil {
		t.Fatal(err)
	}
	ck, _ := checkpoint("delta", tr, false)
	if ck.Written.Leaves != 0 || ck.Written.Deltas != 1 || ck.Image.Deltas != 1 || len(ck.Pages) != ck.Image.Leaves+ck.Image.Deltas+ck.Image.Nodes+ck.Image.NodeDeltas {
		t.Fatalf("one insert: wrote %+v of %+v on %d page references", ck.Written, ck.Image, len(ck.Pages))
	}
	ck.Commit()
	if !(leaf.dur.kind == kindDelta) || leaf.dur.base.ref.key() != base.key() {
		t.Fatalf("after a delta the leaf's stamp is %+v over base %+v, want a delta over %+v", leaf.dur.ref, leaf.dur.base.ref, base)
	}

	// A superseding delta: cumulative against the same base, still the
	// only one in the image.
	first := leaf.dur.ref
	if _, err := tr.Delete(leaf.recs[1].ID, leaf.recs[1].QI); err != nil {
		t.Fatal(err)
	}
	ck, _ = checkpoint("superseding delta", tr, false)
	if ck.Written.Leaves != 0 || ck.Written.Deltas != 1 || ck.Image.Deltas != 1 {
		t.Fatalf("a second change: wrote %+v of %+v", ck.Written, ck.Image)
	}
	ck.Commit()
	if leaf.dur.ref.key() == first.key() || leaf.dur.base.ref.key() != base.key() || !slices.Equal(leaf.dur.base.removed, []uint32{1}) {
		t.Fatalf("the second delta is %+v over base %+v minus %v", leaf.dur.ref, leaf.dur.base.ref, leaf.dur.base.removed)
	}

	// An attempt that is never committed changes nothing the leaf
	// remembers, and the retry writes the same bytes.
	update(tr, leaf.recs[0], "while the checkpoint fails")
	stamp, kept, removed := leaf.dur, leaf.dur.base.kept, slices.Clone(leaf.dur.base.removed)
	aborted, _ := checkpoint("aborted attempt", tr, false)
	if leaf.dur != stamp || leaf.dur.base.kept != kept || !slices.Equal(leaf.dur.base.removed, removed) {
		t.Fatal("an uncommitted checkpoint touched the leaf's stamp")
	}
	ck, got := checkpoint("retry", tr, false)
	if ck.Written != aborted.Written {
		t.Fatalf("the retry wrote %+v, the aborted attempt %+v", ck.Written, aborted.Written)
	}
	ck.Commit()

	// The decoded tree knows its leaf as the live one does, and cuts its
	// next delta against the same base.
	twin := got.routeToLeaf(got.root, leaf.recs[0].QI)
	if twin.dur.base.ref.key() != base.key() || twin.dur.base.kept != leaf.dur.base.kept || !slices.Equal(twin.dur.base.removed, leaf.dur.base.removed) {
		t.Fatalf("decoded leaf remembers %+v, live leaf %+v", twin.dur.base, leaf.dur.base)
	}
	update(got, twin.recs[0], "after reopen")
	if ck, _ := checkpoint("delta after reopen", got, false); ck.Written.Leaves != 0 || ck.Written.Deltas != 1 || twin.dur.base.ref.key() != base.key() {
		t.Fatalf("the decoded tree's next checkpoint wrote %+v", ck.Written)
	}

	// Updates in place grow the delta until the size rule rewrites the
	// leaf whole: it is its own base again.
	n := len(leaf.recs)
	for rounds := 1; ; rounds++ {
		update(tr, leaf.recs[0], "again")
		ck, _ := checkpoint("rebase", tr, false)
		ck.Commit()
		if ck.Written.Leaves+ck.Written.Deltas != 1 || len(leaf.recs) != n {
			t.Fatalf("an update in place wrote %+v, leaf went from %d to %d records", ck.Written, n, len(leaf.recs))
		}
		if ck.Written.Leaves == 1 {
			if rounds < 2 || (leaf.dur.kind == kindDelta) || leaf.dur.base.kept != n || len(leaf.dur.base.removed) != 0 || ck.Image.Deltas != 0 {
				t.Fatalf("rebase after %d updates: stamp %+v base %+v image %+v", rounds, leaf.dur.ref, leaf.dur.base, ck.Image)
			}
			break
		}
		if int64(leaf.dur.ref.Len)*deltaShare > 1+leafSize(leaf.recs) || rounds > n {
			t.Fatalf("after %d updates a delta of %d bytes stands for a leaf of %d", rounds, leaf.dur.ref.Len, 1+leafSize(leaf.recs))
		}
	}

	// A delta'd leaf that splits: both halves are fresh and go out whole.
	update(tr, leaf.recs[0], "before the split")
	mustCheckpoint(t, tr, false, &store).Commit()
	if !(leaf.dur.kind == kindDelta) {
		t.Fatal("want a delta'd leaf to split")
	}
	for id := int64(9100); ; id++ {
		qi := slices.Clone(leaf.recs[0].QI)
		qi[0] += float64(id-9100) / 16
		if err := tr.Insert(attr.Record{ID: id, QI: qi}); err != nil {
			t.Fatal(err)
		}
		if now, _ := countNodes(tr); now > leaves {
			leaves = now
			break
		}
	}
	ck, _ = checkpoint("split of a delta'd leaf", tr, false)
	if ck.Written.Leaves != 2 || ck.Written.Deltas != 0 || ck.Image.Deltas != 0 {
		t.Fatalf("a split wrote %+v of %+v", ck.Written, ck.Image)
	}
	ck.Commit()

	// A delta'd leaf dissolved by an underflow repair: its records land
	// in its neighbours' deltas.
	victim := roomyLeaf(t, tr)
	update(tr, victim.recs[0], "doomed")
	mustCheckpoint(t, tr, false, &store).Commit()
	if !(victim.dur.kind == kindDelta) {
		t.Fatal("want a delta'd leaf to dissolve")
	}
	for _, r := range slices.Clone(victim.recs)[:len(victim.recs)-cfg.BaseK+1] {
		if found, err := tr.Delete(r.ID, r.QI); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", r.ID, found, err)
		}
	}
	if now, _ := countNodes(tr); now != leaves-1 {
		t.Fatalf("draining a leaf left %d of %d leaves", now, leaves)
	}
	ck, _ = checkpoint("underflow repair", tr, false)
	if ck.Written.Deltas == 0 || ck.Image.Deltas != ck.Written.Deltas {
		t.Fatalf("a repair wrote %+v of %+v", ck.Written, ck.Image)
	}
	ck.Commit()

	// A full checkpoint writes every node whole: what the incremental one
	// before it weighed the image at — the leaves to the byte, the nodes as
	// their references were then.
	full, _ := checkpoint("full", tr, true)
	if put := full.Written.Bytes(); full.Written != full.Image || full.Image.Deltas != 0 || full.Whole != put || ck.Whole < put*99/100 || ck.Whole > put*101/100 {
		t.Fatalf("full checkpoint wrote %+v of %+v, %d bytes whole; the incremental one before it said %d", full.Written, full.Image, full.Whole, ck.Whole)
	}
}

// TestDecodeCheckpointRejectsDeltaDamage: a delta over a delta, a base
// two deltas share, removed positions out of order or beyond the base, an
// appended row that is NaN or outside the leaf's region, a delta where a
// node is due, trailing or missing bytes — each is refused with an error
// that names it.
func TestDecodeCheckpointRejectsDeltaDamage(t *testing.T) {
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 30, 7))
	if tr.Height() != 2 {
		t.Fatalf("want a root over leaves, got height %d", tr.Height())
	}
	var store blobStore
	mustCheckpoint(t, tr, false, &store).Commit()
	a := roomyLeaf(t, tr)
	b := roomyLeaf(t, tr, a)
	for _, leaf := range []*node{a, b} {
		moved := leaf.recs[1]
		moved.Sensitive = "moved"
		if found, err := tr.Update(moved.ID, moved.QI, moved); err != nil || !found {
			t.Fatalf("update %d: found=%v err=%v", moved.ID, found, err)
		}
	}
	mustCheckpoint(t, tr, false, &store).Commit()
	if !(a.dur.kind == kindDelta) || !(b.dur.kind == kindDelta) {
		t.Fatal("want two delta'd leaves")
	}

	// deltaOf stores a hand-made delta object for leaf a.
	deltaOf := func(base Ref, removed []uint32, rows []attr.Record, tail ...byte) Ref {
		enc, _ := appendPatch(nil, &node{recs: rows}, &baseCopy{ref: base, removed: removed}, nil)
		ref, _ := store.put(append(enc, tail...), true)
		return ref
	}
	decode := func(to map[*node]Ref) error {
		_, err := DecodeCheckpoint(cfg, redirectedRoot(tr, &store, to), store.get)
		return err
	}
	good := a.dur.base
	rows := a.recs[good.kept:]
	if err := decode(map[*node]Ref{a: deltaOf(good.ref, good.removed, rows)}); err != nil {
		t.Fatalf("a copy of the leaf's own delta: %v", err)
	}
	nan, outside := rows[0], rows[0]
	nan.QI = append([]float64{math.NaN()}, nan.QI[1:]...)
	outside.QI = b.recs[0].QI
	baseRecords := good.kept + len(good.removed)
	empty, _ := store.put([]byte{kindLeaf, 0}, true) // a base any leaf's region admits
	for name, c := range map[string]struct {
		to   map[*node]Ref
		want string
	}{
		"a delta over a delta":           {map[*node]Ref{a: deltaOf(b.dur.ref, nil, rows)}, "names an object of kind 1 as its base"},
		"two deltas over one base":       {map[*node]Ref{a: deltaOf(empty, nil, a.recs), b: deltaOf(empty, nil, b.recs)}, "referenced twice"},
		"positions descending":           {map[*node]Ref{a: deltaOf(good.ref, []uint32{2, 1}, rows)}, "out of ascending order"},
		"a position twice":               {map[*node]Ref{a: deltaOf(good.ref, []uint32{1, 1}, rows)}, "out of ascending order"},
		"a position beyond the base":     {map[*node]Ref{a: deltaOf(good.ref, []uint32{0, uint32(baseRecords)}, rows)}, "of a base of"},
		"a NaN appended row":             {map[*node]Ref{a: deltaOf(good.ref, good.removed, []attr.Record{nan})}, "NaN coordinate"},
		"an appended row from elsewhere": {map[*node]Ref{a: deltaOf(good.ref, good.removed, []attr.Record{outside})}, "outside its leaf region"},
		"a trailing byte":                {map[*node]Ref{a: deltaOf(good.ref, good.removed, rows, 0)}, "trailing bytes"},
	} {
		if err := decode(c.to); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", name, err, c.want)
		}
	}
	// The delta object cut short anywhere, and an object of no known kind.
	whole, _ := store.get(a.dur.ref)
	for cut := 0; cut < len(whole); cut++ {
		ref, _ := store.put(whole[:cut:cut], true)
		if err := decode(map[*node]Ref{a: ref}); err == nil {
			t.Fatalf("delta object cut to %d of %d bytes accepted", cut, len(whole))
		}
	}
	unknown, _ := store.put([]byte{kindNodeDelta + 1}, true)
	if err := decode(map[*node]Ref{a: unknown}); err == nil || !strings.Contains(err.Error(), "of kind 4 at depth 1") {
		t.Errorf("an object of no known kind: %v", err)
	}

	// A delta where a node is due: the root of a taller tree led to one.
	tall, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tall, continuousRecords(cfg.Schema, 400, 7))
	if tall.Height() < 3 {
		t.Fatalf("want internal nodes under the root, got height %d", tall.Height())
	}
	mustCheckpoint(t, tall, false, &store).Commit()
	_, err = DecodeCheckpoint(cfg, redirectedRoot(tall, &store, map[*node]Ref{tall.root.childNodes()[0]: a.dur.ref}), store.get)
	if err == nil || !strings.Contains(err.Error(), "of kind 1 at depth 1") {
		t.Errorf("a delta above the leaves: %v, want an error naming its kind and depth", err)
	}
}

// TestVetoedSplitForgetsBase: planning a split partitions the leaf's
// records in place even when the guard then refuses it, so the leaf is no
// longer its base's survivors in base order; the next checkpoint must not
// cut a delta against that base.
func TestVetoedSplitForgetsBase(t *testing.T) {
	veto := false
	cfg := Config{Schema: dataset.LandsEndSchema(), BaseK: 4, Guard: func(l, r []attr.Record) bool { return !veto }}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insertAll(t, tr, continuousRecords(cfg.Schema, 60, 11))
	var store blobStore
	mustCheckpoint(t, tr, false, &store).Commit()
	veto = true
	leaf := roomyLeaf(t, tr)
	before := slices.Clone(leaf.recs)
	for id := int64(9000); len(leaf.recs) <= tr.cfg.leafCapacity()+1; id++ {
		qi := slices.Clone(leaf.recs[int(id)%len(leaf.recs)].QI)
		qi[0] += 1.0 / 1024
		if err := tr.Insert(attr.Record{ID: id, QI: qi}); err != nil {
			t.Fatal(err)
		}
	}
	reordered := false
	for i, r := range before {
		reordered = reordered || leaf.recs[i].ID != r.ID
	}
	if !reordered {
		ids := func(recs []attr.Record) (out []int64) {
			for _, r := range recs {
				out = append(out, r.ID)
			}
			return out
		}
		t.Fatalf("the vetoed plan left the records in order: %v then %v", ids(before), ids(leaf.recs))
	}
	ck, got := checkpointMatches(t, tr, &store, 0)
	if ck.Written.Leaves != 1 || ck.Written.Deltas != 0 || !bytes.Equal(mustSnapshot(t, tr), mustSnapshot(t, got)) {
		t.Fatalf("an oversized, reordered leaf was written as %+v", ck.Written)
	}
}
