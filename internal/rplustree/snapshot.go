package rplustree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"spatialanon/internal/attr"
	"spatialanon/internal/pager"
)

// This file is the tree's durable codec. internal/wal serializes a
// tree at checkpoint time and rebuilds it during recovery; records and
// hyperplane values go through the repository's one row codec
// (internal/attr, row.go), counts and references are varints.
//
// The checkpoint (EncodeCheckpoint/DecodeCheckpoint) is the tree's one
// serialization. It makes every tree node a durable OBJECT of its own,
// stored wherever the caller puts it and opened by a kind byte. Every
// node is one WHOLE object — a leaf's records, an internal node's split
// trie with a Ref per child — or one cumulative DELTA over one whole
// object stored earlier, its BASE: a leaf's names the base's Ref, the
// base positions deleted and the rows appended since; an internal
// node's, whose trie has not changed, the base's Ref and the Refs of the
// children that have moved, by position in trie order. Never a delta over
// a delta, so a node is at most two objects. The root object is the
// header and the root node's Ref. A checkpoint therefore writes what
// changed in the changed leaves and in the nodes above them — the nodes
// stamped (node.stamp, the tree's one change clock) since their copy was
// made: O(changed records + changed leaves × height) — and recovery
// fetches object by object. EncodeSnapshot is a full checkpoint laid out
// in one byte string, the image tests and probes compare trees with.
//
// A checkpoint stores only what cannot be re-derived: the trie structure
// and the leaf payloads. Routing regions, which the tree does not store
// either, are derived from the split-trie hyperplanes as the tries are
// read, MBRs and counts are recomputed bottom-up, and the decoder
// validates what it builds (dimensions, axis bounds, region membership
// of every record, leaves exactly at the header's depth, every object of
// the kind its depth calls for, none referenced twice) so a damaged image
// yields an error, never a quietly wrong tree. Defense in depth:
// internal/wal checksums every object, each CRC held by the object above,
// and recovery runs the full internal/verify audit on the decoded tree.

// directoryVersion is the root object's leading word, bumped on any
// incompatible layout change. Every earlier word is refused with a
// version error: 1 and 2 were the fixed-width float64 forms, 3 and 4
// trees with every child inline, 4 also the checkpoint whose directory
// was one buffer, 5 the one without leaf deltas or kind bytes, 6 the one
// without node deltas and 7 the one without varint rows.
const directoryVersion = 8

// The kinds of checkpoint object, each object's first byte: a delta's is
// its base's with the low bit set.
const (
	kindLeaf      byte = iota // a whole leaf: its records
	kindDelta                 // a leaf as changes to a whole leaf stored earlier
	kindNode                  // a whole internal node: its trie, a Ref per child
	kindNodeDelta             // a node as the child Refs changed since a whole node stored earlier
)

// deltaShare: a delta is written while its encoding times deltaShare does
// not exceed the whole object's; else that is, and becomes its own base.
const deltaShare = 2

// snapMaxDepth bounds the recursion while decoding: deeper nesting
// than this in a well-formed checkpoint would need more nodes than the
// encoding could hold, so it can only mean corruption (and protects
// the decoder's stack from adversarial input).
const snapMaxDepth = 4096

// Ref says where the durable encoding of one tree node lives: Len bytes
// starting Off bytes into the first of Pages and running on through the
// rest, sealed by CRC. The tree only carries it — the checkpoint's
// caller assigns and interprets every field.
type Ref struct {
	Pages []pager.PageID
	Off   uint32
	Len   uint32
	CRC   uint32
}

// equal reports whether the two references name the same stored bytes.
func (r Ref) equal(o Ref) bool {
	return r.Off == o.Off && r.Len == o.Len && r.CRC == o.CRC && slices.Equal(r.Pages, o.Pages)
}

// Footprint counts objects and their encoded bytes by kind: whole
// leaves, leaf deltas, whole internal nodes and node deltas.
type Footprint struct {
	Leaves, Deltas, Nodes, NodeDeltas                int
	LeafBytes, DeltaBytes, NodeBytes, NodeDeltaBytes int64
}

// Bytes is the footprint's total size.
func (f Footprint) Bytes() int64 {
	return f.LeafBytes + f.DeltaBytes + f.NodeBytes + f.NodeDeltaBytes
}

// Add returns the field-wise sum.
func (f Footprint) Add(g Footprint) Footprint {
	return Footprint{
		f.Leaves + g.Leaves, f.Deltas + g.Deltas, f.Nodes + g.Nodes, f.NodeDeltas + g.NodeDeltas,
		f.LeafBytes + g.LeafBytes, f.DeltaBytes + g.DeltaBytes, f.NodeBytes + g.NodeBytes, f.NodeDeltaBytes + g.NodeDeltaBytes,
	}
}

// String renders the footprint as a phrase of a report line.
func (f Footprint) String() string {
	return fmt.Sprintf("%d leaves / %d leaf bytes + %d deltas / %d delta bytes + %d nodes / %d node bytes + %d node deltas / %d node delta bytes",
		f.Leaves, f.LeafBytes, f.Deltas, f.DeltaBytes, f.Nodes, f.NodeBytes, f.NodeDeltas, f.NodeDeltaBytes)
}

func (f *Footprint) add(kind byte, size int64) {
	count, bytes := &f.Leaves, &f.LeafBytes
	switch kind {
	case kindDelta:
		count, bytes = &f.Deltas, &f.DeltaBytes
	case kindNode:
		count, bytes = &f.Nodes, &f.NodeBytes
	case kindNodeDelta:
		count, bytes = &f.NodeDeltas, &f.NodeDeltaBytes
	}
	*count++
	*bytes += size
}

// Checkpoint is one EncodeCheckpoint pass: the root object to publish
// and the stamps to apply once it is durable.
type Checkpoint struct {
	// Root is the root object: the header and the root node's Ref.
	Root []byte
	// Image sizes every object Root reaches — freshly written or carried
	// over, the base behind every delta among them — and Pages lists the
	// pages their references name (a page once per object on it), so the
	// caller can recompute which pages are live from this walk alone.
	Image Footprint
	Pages []pager.PageID
	// Whole is the image's size with every node one whole object: what a
	// full checkpoint taken now would write.
	Whole int64
	// Written sizes the objects handed to put.
	Written Footprint

	pending []stamp
}

// durableCopy is what a node knows of its durable encoding: where it lives,
// its kind, the Tree.clock it was encoded at, what the node weighs as a whole
// object (a leaf as it is now, behind a delta too; an internal node as its
// base was written) and its base: the object at ref itself, or the one the
// delta was cut against.
type durableCopy struct {
	ref   Ref
	at    uint64
	kind  byte
	whole int64
	base  *baseCopy
}

// baseCopy is what a node remembers of its last whole durable copy, so
// that a checkpoint can write what changed in it instead. A delta shares
// its predecessor's pointer and an aborted one has nothing to undo.
//
// A leaf's: inserts append to node.recs and Delete removes in place, so
// recs is always the base's survivors in base order, then the surviving
// appended rows in append order: the difference is a count and a list of
// positions, kept up by Delete alone.
//
// An internal node's: the references the base holds, in trie order. It
// stands while node.dur does — an edit of the trie forgets it — so the trie
// and the children are the base's, and a child whose reference differs now
// has moved since.
type baseCopy struct {
	ref      Ref
	kept     int      // recs[:kept] are the base's survivors
	removed  []uint32 // base positions deleted since, ascending
	children []Ref
}

// remove notes that recs[idx] is about to be deleted.
func (b *baseCopy) remove(idx int) {
	if idx >= b.kept {
		return // appended after the base: the delta never mentions it
	}
	// The idx-th survivor's base position: idx, plus one for every removed
	// position at or before where that puts it.
	pos, at := uint32(idx), 0
	for ; at < len(b.removed) && b.removed[at] <= pos; at++ {
		pos++
	}
	b.removed = slices.Insert(b.removed, at, pos)
	b.kept--
}

// stamp is a durableCopy waiting for its checkpoint to be published.
type stamp struct {
	n   *node
	dur *durableCopy
}

// Commit records, on every node this checkpoint wrote, where its
// durable copy now lives. Call it only after the root object has been
// published durably: a checkpoint that aborts before that must leave
// every node's copy as it was, so the retry rewrites those nodes instead
// of trusting pages nothing durable refers to.
func (c *Checkpoint) Commit() {
	for _, s := range c.pending {
		s.n.dur = s.dur
	}
	c.pending = nil
}

// durable reports whether the node's last durable copy still stands for
// its whole subtree: every mutation stamps its root path with the tree's
// clock (node.stamp), so nothing beneath n has changed since the copy was
// encoded exactly when n has not been stamped since. A freshly minted node
// has no copy, and neither has one whose trie was edited.
func (n *node) durable() bool { return n.dur != nil && n.stamp <= n.dur.at }

// EncodeSnapshot is what a full checkpoint writes, in one byte string:
// every object whole, children first, each referenced by its offset into
// the string on page 1 with no CRC, then the root object. Two trees with
// the same tries, leaf order and record order have the same snapshot. It
// commits nothing, so the tree is left as it was. A tree with records
// still blocked in bulk-load buffers cannot be snapshotted — those records
// are not yet placed — so callers flush first.
func (t *Tree) EncodeSnapshot() ([]byte, error) {
	var img []byte
	ck, err := t.EncodeCheckpoint(true, func(enc []byte, _ bool) (Ref, error) {
		ref := Ref{Pages: []pager.PageID{1}, Off: uint32(len(img)), Len: uint32(len(enc))}
		img = append(img, enc...)
		return ref, nil
	})
	if err != nil {
		return nil, err
	}
	return append(img, ck.Root...), nil
}

// EncodeCheckpoint walks the tree children first and hands put the object
// of every node something beneath which has changed since its last durable
// copy — a changed leaf and each node on the path above it, whose object
// holds the child's Ref — as a delta when it has a base and deltaShare
// allows, and every node whole when full is set. Unchanged subtrees keep
// their references. The byte slice put receives is reused between calls.
// Nothing in the tree changes until the Checkpoint is committed.
func (t *Tree) EncodeCheckpoint(full bool, put func(enc []byte, leaf bool) (Ref, error)) (*Checkpoint, error) {
	root, err := t.appendHeader()
	if err != nil {
		return nil, err
	}
	c := &checkpointWalk{Checkpoint: &Checkpoint{}, full: full, put: put, at: t.clock}
	ref, err := c.object(t.root, 0)
	if err != nil {
		return nil, err
	}
	c.Root, _ = appendRef(root, ref, 0)
	return c.Checkpoint, nil
}

type checkpointWalk struct {
	*Checkpoint
	full bool
	put  func(enc []byte, leaf bool) (Ref, error)
	at   uint64        // the tree's clock: what every copy made is stamped with
	bufs []walkScratch // one per tree depth
}

// walkScratch is one depth's reusable buffers: the references of the
// children of the node the walk is at, in trie order, and its two objects.
type walkScratch struct {
	refs         []Ref
	whole, patch []byte
}

// object makes n's subtree durable, children first, and returns n's
// reference.
func (c *checkpointWalk) object(n *node, depth int) (Ref, error) {
	if depth == len(c.bufs) {
		c.bufs = append(c.bufs, walkScratch{})
	}
	refs := c.bufs[depth].refs[:0]
	var err error
	if !n.isLeaf() {
		n.trie.each(func(child *node) {
			if err == nil {
				var ref Ref
				ref, err = c.object(child, depth+1)
				refs = append(refs, ref)
			}
		})
	}
	if c.bufs[depth].refs = refs; err != nil {
		return Ref{}, err
	}
	dur := n.dur
	if c.full || !n.durable() {
		// One rule for leaves and nodes: the whole object, or while a base
		// stands a delta against it no larger than the whole's 1/deltaShare.
		enc := appendWhole(c.bufs[depth].whole[:0], n, refs)
		c.bufs[depth].whole = enc
		dur = &durableCopy{at: c.at, whole: int64(len(enc))}
		if !c.full && n.dur != nil {
			patch, ok := appendPatch(c.bufs[depth].patch[:0], n, n.dur.base, refs)
			if c.bufs[depth].patch = patch; ok && len(patch)*deltaShare <= len(enc) {
				enc, dur.base = patch, n.dur.base
				if !n.isLeaf() {
					dur.whole = n.dur.whole
				}
			}
		}
		if dur.ref, err = c.put(enc, n.isLeaf()); err != nil {
			return Ref{}, err
		}
		dur.kind = enc[0]
		if dur.base == nil { // written whole: it is its own base
			dur.base = &baseCopy{ref: dur.ref, kept: len(n.recs), children: slices.Clone(refs)}
		}
		c.pending = append(c.pending, stamp{n: n, dur: dur})
		c.Written.add(dur.kind, int64(len(enc)))
	}
	// The image holds what the parent refers to and, behind a delta, its base.
	c.Whole += dur.whole
	if c.image(dur.kind, dur.ref); dur.kind&1 != 0 {
		c.image(dur.kind&^1, dur.base.ref)
	}
	return dur.ref, nil
}

func (c *Checkpoint) image(kind byte, ref Ref) {
	c.Image.add(kind, int64(ref.Len))
	c.Pages = append(c.Pages, ref.Pages...)
}

// appendWhole appends n's whole object: its kind, then a leaf's records or
// a node's trie with refs, its children's references in trie order.
func appendWhole(e []byte, n *node, refs []Ref) []byte {
	if n.isLeaf() {
		return appendLeaf(append(e, kindLeaf), n.recs)
	}
	var prev pager.PageID
	return appendTrie(append(e, kindNode), n.trie, func(e []byte) []byte {
		e, prev = appendRef(e, refs[0], prev)
		refs = refs[1:]
		return e
	})
}

// appendPatch appends n's delta object against base: its kind and the
// base's reference, then a count and that many ascending base positions —
// a leaf's of the records removed, the rows appended since following as a
// leaf payload; a node's of the children whose reference in refs is not the
// base's, each followed by that reference. A node delta that moves no child
// is none: ok is false.
func appendPatch(e []byte, n *node, base *baseCopy, refs []Ref) (enc []byte, ok bool) {
	if n.isLeaf() {
		e, _ = appendRef(append(e, kindDelta), base.ref, 0)
		e = binary.AppendUvarint(e, uint64(len(base.removed)))
		for _, pos := range base.removed {
			e = binary.AppendUvarint(e, uint64(pos))
		}
		return appendLeaf(e, n.recs[base.kept:]), true
	}
	moved := 0
	for i, ref := range refs {
		if !ref.equal(base.children[i]) {
			moved++
		}
	}
	e, prev := appendRef(append(e, kindNodeDelta), base.ref, 0)
	e = binary.AppendUvarint(e, uint64(moved))
	for i, ref := range refs {
		if !ref.equal(base.children[i]) {
			e, prev = appendRef(binary.AppendUvarint(e, uint64(i)), ref, prev)
		}
	}
	return e, moved > 0
}

// appendHeader starts the root object: version, dimensions and height.
func (t *Tree) appendHeader() ([]byte, error) {
	if bl := t.loader; bl != nil && bl.buffered > 0 {
		return nil, fmt.Errorf("rplustree: checkpoint with %d records still buffered; flush the loader first", bl.buffered)
	}
	e := make([]byte, 0, 1024)
	e = appendU32(e, directoryVersion)
	e = appendU32(e, uint32(t.cfg.Schema.Dims()))
	return appendU32(e, uint32(t.height)), nil
}

// appendTrie writes a split trie; child appends the next child's
// reference at each trie leaf.
func appendTrie(e []byte, st *splitTrie, child func(e []byte) []byte) []byte {
	if st.isLeaf() {
		return child(append(e, 0))
	}
	e = append(e, 1)
	e = binary.AppendUvarint(e, uint64(st.axis))
	e = attr.AppendRow(e, []float64{st.value}) // a hyperplane value is a row of one
	return appendTrie(appendTrie(e, st.left, child), st.right, child)
}

// appendLeaf is the leaf payload of a leaf object or a delta's appended
// rows. A record costs its ID varint, its row (attr/row.go: 13 bytes for the
// paper's record, 33 at most for eight integral attributes) and its
// sensitive value behind a length byte.
func appendLeaf(e []byte, recs []attr.Record) []byte {
	e = binary.AppendUvarint(e, uint64(len(recs)))
	for _, r := range recs {
		e = attr.AppendRecord(e, r, 0)
	}
	return e
}

// leafSize is len(appendLeaf(nil, recs)).
func leafSize(recs []attr.Record) int64 {
	var count [binary.MaxVarintLen64]byte
	size := int64(binary.PutUvarint(count[:], uint64(len(recs))))
	for _, r := range recs {
		size += int64(attr.RecordSize(r, 0))
	}
	return size
}

// appendRef writes one reference. Page IDs are written as signed
// distances from prev, the page the reference before it in the same
// object ended on (0 for the first): children stored back to back share
// or continue a page, so a distance is usually 0 or 1 — one byte where
// an ID took eight.
func appendRef(e []byte, r Ref, prev pager.PageID) ([]byte, pager.PageID) {
	e = binary.AppendUvarint(e, uint64(r.Off))
	e = binary.AppendUvarint(e, uint64(r.Len))
	e = appendU32(e, r.CRC)
	e = binary.AppendUvarint(e, uint64(len(r.Pages)))
	for _, id := range r.Pages {
		e = binary.AppendVarint(e, int64(id-prev))
		prev = id
	}
	return e, prev
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// DecodeCheckpoint rebuilds a tree from a checkpoint's root object,
// asking get for the stored object behind each reference, parents before
// children (the slice get returns is consumed or copied before the next
// call, so get may reuse it). Every structural property the rest of the
// package relies on is re-validated during the decode, and a reference
// already followed is refused: arbitrary input yields an error, never a
// panic or a malformed tree. Every node gets its reference as its durable
// copy, so the next checkpoint of the recovered tree rewrites only what
// changes from here on.
func DecodeCheckpoint(cfg Config, root []byte, get func(Ref) ([]byte, error)) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := &source{Reader: *attr.NewReader(root)}
	version, err := src.U32()
	if err != nil {
		return nil, err
	}
	if version != directoryVersion {
		return nil, fmt.Errorf("rplustree: checkpoint in format version %d, this build reads version %d", version, directoryVersion)
	}
	dims, err := src.U32()
	if err != nil {
		return nil, err
	}
	if int(dims) != cfg.Schema.Dims() {
		return nil, fmt.Errorf("rplustree: checkpoint has %d dimensions, schema has %d", dims, cfg.Schema.Dims())
	}
	height, err := src.U32()
	if err != nil {
		return nil, err
	}
	if height < 1 || height > snapMaxDepth {
		return nil, fmt.Errorf("rplustree: checkpoint height %d out of range", height)
	}
	d := &snapDecoder{height: int(height), get: get, seen: map[objectKey]struct{}{}}
	n, err := d.child(src, infiniteRegion(int(dims)), 0)
	if err != nil {
		return nil, err
	}
	if src.Remaining() != 0 {
		return nil, fmt.Errorf("rplustree: root object has %d trailing bytes", src.Remaining())
	}
	return &Tree{cfg: cfg, root: n, height: int(height)}, nil
}

// snapDecoder rebuilds nodes of a tree whose height the header gave:
// the node at depth height-1 is a leaf, every node above it internal —
// so the recursion is bounded and the leaves sit at one depth by
// construction. Children are references resolved through get.
type snapDecoder struct {
	height int
	get    func(Ref) ([]byte, error)
	seen   map[objectKey]struct{} // where the objects followed so far start
}

// source is one encoded byte string — the root object or one object of
// the tree — read through the row codec's bounds-checked reader, with
// appendRef's prev replayed. Of a node object it keeps the child
// references read so far, and takes those a node delta puts in their place.
type source struct {
	attr.Reader
	prevPage pager.PageID
	refs     []Ref
	moved    []movedChild // ascending by position, consumed as applied
}

// movedChild is one entry of a node delta: the child at pos, in trie
// order, is at ref now.
type movedChild struct {
	pos uint64
	ref Ref
}

// objectKey is where an object starts. Objects are not empty, so two of
// them never start at the same byte.
type objectKey struct {
	page pager.PageID
	off  uint32
}

// child reads the reference standing for one node at the given depth and
// decodes the object behind it.
func (d *snapDecoder) child(src *source, region attr.Box, depth int) (*node, error) {
	ref, err := src.ref()
	if err != nil {
		return nil, err
	}
	// A reference a delta supersedes is parsed and dropped, never followed.
	pos := uint64(len(src.refs))
	if src.refs = append(src.refs, ref); len(src.moved) > 0 && src.moved[0].pos == pos {
		ref, src.moved = src.moved[0].ref, src.moved[1:]
	}
	return d.object(ref, region, depth)
}

// key is where the object behind the reference starts.
func (r Ref) key() objectKey { return objectKey{page: r.Pages[0], off: r.Off} }

// fetch opens the object behind ref — each object once — and consumes its
// kind byte. The bytes are get's, good until the next fetch.
func (d *snapDecoder) fetch(ref Ref) (source, byte, error) {
	key := ref.key()
	if _, dup := d.seen[key]; dup {
		return source{}, 0, fmt.Errorf("rplustree: checkpoint object at page %d offset %d is referenced twice", key.page, key.off)
	}
	d.seen[key] = struct{}{}
	enc, err := d.get(ref)
	if err != nil {
		return source{}, 0, err
	}
	src := source{Reader: *attr.NewReader(enc)}
	kind, err := src.Byte()
	return src, kind, err
}

// end passes err on, or refuses bytes left over in the object.
func (src *source) end(err error) error {
	if err == nil && src.Remaining() != 0 {
		err = fmt.Errorf("rplustree: checkpoint object has %d trailing bytes", src.Remaining())
	}
	return err
}

// object fetches and decodes the node behind ref: above the leaf depth a
// node object or a node delta, at it a leaf object or a leaf delta, and
// behind a delta — read to its end first — the whole object of its depth
// only. MBRs and counts are rebuilt as it goes.
func (d *snapDecoder) object(ref Ref, region attr.Box, depth int) (*node, error) {
	leaf, wholeKind := depth == d.height-1, kindNode
	if leaf {
		wholeKind = kindLeaf
	}
	obj, kind, err := d.fetch(ref)
	src := &obj
	if err == nil && kind&^1 != wholeKind {
		err = fmt.Errorf("rplustree: checkpoint object of kind %d at depth %d of a tree of height %d", kind, depth, d.height)
	}
	if err != nil {
		return nil, err
	}
	base := &baseCopy{ref: ref}
	var appended *node
	var moved []movedChild
	if kind != wholeKind {
		if base.ref, err = src.ref(); err != nil {
			return nil, err
		}
		if leaf {
			// A removed record's entry is its position alone.
			err = src.positions(1, func(pos uint64) error {
				base.removed = append(base.removed, uint32(pos))
				return nil
			})
			if err == nil {
				appended, err = src.leaf(region)
			}
		} else {
			// A moved child's is its position and a reference of at least 8 bytes.
			err = src.positions(9, func(pos uint64) error {
				ref, err := src.ref()
				moved = append(moved, movedChild{pos: pos, ref: ref})
				return err
			})
			if err == nil && len(moved) == 0 {
				err = fmt.Errorf("rplustree: node delta moves no child")
			}
		}
		if err = src.end(err); err != nil {
			return nil, err
		}
		var under byte
		if obj, under, err = d.fetch(base.ref); err == nil && under != wholeKind {
			err = fmt.Errorf("rplustree: checkpoint delta of kind %d names an object of kind %d as its base", kind, under)
		}
		if err != nil {
			return nil, err
		}
	}
	var n *node
	if leaf {
		n, err = src.leaf(region)
	} else {
		// Its children are fetched while it is read: the bytes must outlast that.
		rest, _ := src.Bytes(src.Remaining())
		obj = source{Reader: *attr.NewReader(slices.Clone(rest)), moved: moved, refs: make([]Ref, 0, 8)}
		n = &node{mbr: attr.NewBox(len(region))}
		n.trie, err = d.trie(src, n, region, depth, 0)
	}
	whole := int64(base.ref.Len)
	switch {
	case err != nil:
	case appended != nil:
		err = n.replay(base, appended)
		whole = 1 + leafSize(n.recs)
	case len(src.moved) > 0:
		err = fmt.Errorf("rplustree: node delta moves child %d of a base of %d children", src.moved[0].pos, len(src.refs))
	default:
		base.kept, base.children = len(n.recs), src.refs
	}
	if err = src.end(err); err != nil {
		return nil, err
	}
	// A decoded tree's clock, every node's stamp and every copy's at start at 0.
	n.dur = &durableCopy{ref: ref, kind: kind, whole: whole, base: base}
	return n, nil
}

// positions reads what either delta lists after its base's reference: a
// count (bounded by what entries of at least minEntry bytes the object can
// still hold), then per entry a base position, strictly ascending, and
// whatever entry reads after it.
func (src *source) positions(minEntry int, entry func(pos uint64) error) error {
	n, err := src.Count(minEntry)
	if err != nil {
		return err
	}
	for i, last := 0, uint64(0); i < n; i++ {
		pos, err := src.Uvarint()
		if err != nil {
			return err
		}
		if pos > math.MaxUint32 || (i > 0 && pos <= last) {
			return fmt.Errorf("rplustree: delta names base position %d out of ascending order", pos)
		}
		if err := entry(pos); err != nil {
			return err
		}
		last = pos
	}
	return nil
}

// replay turns n, a delta's base as decoded, into the leaf the delta
// stands for: the base's records minus the removed positions, then the
// appended rows — the live leaf's record order exactly — and notes in base
// how many of them survived.
func (n *node) replay(base *baseCopy, appended *node) error {
	survivors, removed := n.recs[:0], base.removed
	mbr := appended.mbr
	for pos, rec := range n.recs {
		if len(removed) > 0 && int(removed[0]) == pos {
			removed = removed[1:]
			continue
		}
		survivors = append(survivors, rec)
		mbr.Include(rec.QI)
	}
	if len(removed) > 0 {
		return fmt.Errorf("rplustree: delta removes position %d of a base of %d records", removed[0], len(n.recs))
	}
	base.kept = len(survivors)
	n.recs, n.mbr = append(survivors, appended.recs...), mbr
	n.count = len(n.recs)
	return nil
}

// leaf decodes one leaf payload (appendLeaf's output) owning region. The
// records' QI vectors are cap-clipped windows of ONE array per leaf, so
// a recovered tree holds one QI allocation per leaf, not per record.
func (src *source) leaf(region attr.Box) (*node, error) {
	dims := len(region)
	// A record occupies at least an ID byte, a row (attr.MinRowSize) and a
	// sensitive-length byte; Count rejects a claim the remaining bytes
	// cannot hold before anything is allocated.
	nrecs, err := src.Count(2 + attr.MinRowSize(dims))
	if err != nil {
		return nil, err
	}
	n := &node{mbr: attr.NewBox(dims)}
	n.recs = make([]attr.Record, 0, nrecs)
	qis := make([]float64, nrecs*dims)
	for i := 0; i < nrecs; i++ {
		rec, err := src.Record(qis[i*dims:(i+1)*dims:(i+1)*dims], 0)
		if err != nil {
			return nil, err
		}
		for _, v := range rec.QI {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("rplustree: checkpoint record %d has NaN coordinate", rec.ID)
			}
		}
		if !regionContains(region, rec.QI) {
			return nil, fmt.Errorf("rplustree: checkpoint record %d at %v outside its leaf region", rec.ID, rec.QI)
		}
		n.recs = append(n.recs, rec)
		n.mbr.Include(rec.QI)
	}
	n.count = len(n.recs)
	return n, nil
}

// ref decodes one reference (appendRef's output).
func (src *source) ref() (Ref, error) {
	var r Ref
	off, err := src.Uvarint()
	if err != nil {
		return r, err
	}
	length, err := src.Uvarint()
	if err != nil {
		return r, err
	}
	if off > math.MaxUint32 || length > math.MaxUint32 {
		return r, fmt.Errorf("rplustree: reference to %d bytes at offset %d exceeds 32 bits", length, off)
	}
	r.Off, r.Len = uint32(off), uint32(length)
	if r.CRC, err = src.U32(); err != nil {
		return r, err
	}
	npages, err := src.Count(1)
	if err != nil {
		return r, err
	}
	if npages == 0 {
		return r, fmt.Errorf("rplustree: reference names no page")
	}
	r.Pages = make([]pager.PageID, npages)
	for i := range r.Pages {
		delta, err := src.Varint()
		if err != nil {
			return r, err
		}
		src.prevPage += pager.PageID(delta)
		r.Pages[i] = src.prevPage
	}
	return r, nil
}

// trie decodes the split trie of parent owning region, wiring children
// to parent. Each child is decoded with its region derived from the
// hyperplanes, cut in region in place and restored on the way back up,
// as walkRegions does. depth is the parent's tree depth (child nodes sit
// at depth+1 regardless of how deep in the trie their leaf is); guard
// counts trie nesting only, as a corruption backstop.
func (d *snapDecoder) trie(src *source, parent *node, region attr.Box, depth, guard int) (*splitTrie, error) {
	if guard > snapMaxDepth {
		return nil, fmt.Errorf("rplustree: checkpoint nests deeper than %d", snapMaxDepth)
	}
	tag, err := src.Byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case 0: // trie leaf: a child node
		child, err := d.child(src, region, depth+1)
		if err != nil {
			return nil, err
		}
		child.parent = parent
		parent.count += child.count
		parent.mbr.IncludeBox(child.mbr)
		return &splitTrie{child: child}, nil
	case 1: // trie split
		axis, err := src.Uvarint()
		if err != nil {
			return nil, err
		}
		if axis >= uint64(len(region)) {
			return nil, fmt.Errorf("rplustree: checkpoint split axis %d, schema has %d dimensions", axis, len(region))
		}
		var plane [1]float64
		if err := src.Row(plane[:]); err != nil {
			return nil, err
		}
		value := plane[0]
		iv := region[axis]
		if math.IsNaN(value) || value <= iv.Lo || value >= iv.Hi {
			return nil, fmt.Errorf("rplustree: checkpoint split at %v outside region axis %d %v", value, axis, iv)
		}
		region[axis].Hi = value
		left, err := d.trie(src, parent, region, depth, guard+1)
		var right *splitTrie
		if err == nil {
			region[axis] = attr.Interval{Lo: value, Hi: iv.Hi}
			right, err = d.trie(src, parent, region, depth, guard+1)
		}
		region[axis] = iv
		if err != nil {
			return nil, err
		}
		return &splitTrie{axis: int(axis), value: value, left: left, right: right}, nil
	default:
		return nil, fmt.Errorf("rplustree: checkpoint trie tag %d", tag)
	}
}
