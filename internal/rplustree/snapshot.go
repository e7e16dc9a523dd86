package rplustree

import (
	"encoding/binary"
	"fmt"
	"math"

	"spatialanon/internal/attr"
	"spatialanon/internal/pager"
)

// This file is the tree's durable codec. internal/wal serializes a
// tree at checkpoint time and rebuilds it during recovery; records and
// hyperplane values go through the repository's one row codec
// (internal/attr, row.go), counts and references are varints.
//
// One encoder and one decoder serve two forms that differ only in what
// stands for a leaf:
//
//   - the snapshot (EncodeSnapshot/DecodeSnapshot) carries every leaf's
//     records inline — the whole tree in one byte string, the in-memory
//     form tests and probes compare trees with;
//   - the checkpoint directory (EncodeCheckpoint/DecodeCheckpoint)
//     carries a LeafRef per leaf — where the caller stored that leaf's
//     encoding — so a checkpoint rewrites only the leaves that changed
//     since their last durable copy and recovery reads leaves one at a
//     time instead of materialising the image.
//
// Either form stores only what cannot be re-derived: the recursive
// trie structure and the leaf payloads. Routing regions are NOT
// stored — they are reconstructed from the split-trie hyperplanes
// exactly as splits created them (bit-identical floats), MBRs and
// counts are recomputed bottom-up, and the decoder validates what it
// builds (dimensions, axis bounds, region membership of every record,
// uniform leaf depth) so a damaged image yields an error, never a
// quietly wrong tree. Defense in depth: internal/wal checksums the
// directory and every leaf encoding, and recovery runs the full
// internal/verify audit on the decoded tree.

// The two encoding forms, told apart by the leading version word so one
// can never be decoded as the other. Bumped on any incompatible layout
// change: 1 and 2 were the fixed-width float64 forms, refused with a
// version error.
const (
	snapshotVersion  = 3 // leaves inline
	directoryVersion = 4 // leaves by reference
)

// snapMaxDepth bounds the recursion while decoding: deeper nesting
// than this in a well-formed snapshot would need more nodes than the
// encoding could hold, so it can only mean corruption (and protects
// the decoder's stack from adversarial input).
const snapMaxDepth = 4096

// LeafRef says where the durable encoding of one leaf lives: Len bytes
// starting Off bytes into the first of Pages and running on through the
// rest, sealed by CRC. The tree only carries it — the checkpoint's
// caller assigns and interprets every field.
type LeafRef struct {
	Pages []pager.PageID
	Off   uint32
	Len   uint32
	CRC   uint32
}

// Checkpoint is one EncodeCheckpoint pass: the directory to publish and
// the stamps to apply once it is durable.
type Checkpoint struct {
	// Dir is the directory encoding: the trie with a LeafRef per leaf.
	Dir []byte
	// Refs holds every leaf's reference in trie order — the freshly
	// written ones and the ones carried over — so the caller can
	// recompute which pages are live from this walk alone.
	Refs []LeafRef
	// Written and WrittenBytes count the leaves handed to put.
	Written      int
	WrittenBytes int64

	pending []leafStamp
}

// durableCopy is a leaf's stamp: where its durable encoding lives and
// the node.ver that encoding captured.
type durableCopy struct {
	ref LeafRef
	ver uint64
}

// leafStamp is a stamp waiting for its checkpoint to be published.
type leafStamp struct {
	n   *node
	dur *durableCopy
}

// Commit records, on every leaf this checkpoint wrote, where its
// durable copy now lives. Call it only after the directory has been
// published durably: a checkpoint that aborts before that must leave
// every stamp as it was, so the retry rewrites those leaves instead of
// trusting pages nothing durable refers to.
func (c *Checkpoint) Commit() {
	for _, s := range c.pending {
		s.n.dur = s.dur
	}
	c.pending = nil
}

// durable reports whether the leaf's last durable copy still matches
// its content. A freshly minted node has no copy at all.
func (n *node) durable() bool { return n.dur != nil && n.dur.ver == n.ver }

// EncodeSnapshot serializes the tree structure and payloads into one
// byte string. A tree with records still blocked in bulk-load buffers
// cannot be snapshotted — those records are not yet placed — so callers
// flush first.
func (t *Tree) EncodeSnapshot() ([]byte, error) {
	return t.encodeTree(snapshotVersion, func(e []byte, n *node) ([]byte, error) {
		return appendLeaf(e, n.recs), nil
	})
}

// EncodeCheckpoint walks the tree in trie order and hands put the
// encoding of every leaf whose content changed since its last durable
// copy — every leaf when full is set — collecting the references put
// returns, and the unchanged leaves' existing ones, into the directory.
// The byte slice put receives is reused between calls. Nothing in the
// tree changes until the returned Checkpoint is committed.
func (t *Tree) EncodeCheckpoint(full bool, put func(leaf []byte) (LeafRef, error)) (*Checkpoint, error) {
	ck := &Checkpoint{}
	var scratch []byte
	var prev pager.PageID // the page the previous reference ended on
	dir, err := t.encodeTree(directoryVersion, func(e []byte, n *node) ([]byte, error) {
		dur := n.dur
		if full || !n.durable() {
			scratch = appendLeaf(scratch[:0], n.recs)
			ref, err := put(scratch)
			if err != nil {
				return nil, err
			}
			dur = &durableCopy{ref: ref, ver: n.ver}
			ck.pending = append(ck.pending, leafStamp{n: n, dur: dur})
			ck.Written++
			ck.WrittenBytes += int64(len(scratch))
		}
		ck.Refs = append(ck.Refs, dur.ref)
		e, prev = appendRef(e, dur.ref, prev)
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	ck.Dir = dir
	return ck, nil
}

// DirtyBytes sizes what an incremental EncodeCheckpoint would hand to
// put right now: the encoded length of every leaf without a current
// durable copy. It stops counting once the total passes limit — the
// caller only wants to know whether it does.
func (t *Tree) DirtyBytes(limit int64) int64 {
	var total int64
	var scratch []byte
	t.walkLeaves(t.root, func(n *node) {
		if total <= limit && !n.durable() {
			scratch = appendLeaf(scratch[:0], n.recs)
			total += int64(len(scratch))
		}
	})
	return total
}

// encodeTree writes the header and the trie; leaf appends what stands
// for one leaf in this form.
func (t *Tree) encodeTree(version uint32, leaf func(e []byte, n *node) ([]byte, error)) ([]byte, error) {
	if t.root.pending > 0 {
		return nil, fmt.Errorf("rplustree: snapshot with %d records still buffered; flush the loader first", t.root.pending)
	}
	e := make([]byte, 0, 1024)
	e = appendU32(e, version)
	e = appendU32(e, uint32(t.cfg.Schema.Dims()))
	e = appendU32(e, uint32(t.height))
	return encodeNode(e, t.root, leaf)
}

func encodeNode(e []byte, n *node, leaf func([]byte, *node) ([]byte, error)) ([]byte, error) {
	if n.isLeaf() {
		return leaf(append(e, 0), n)
	}
	return encodeTrie(append(e, 1), n.trie, leaf)
}

func encodeTrie(e []byte, st *splitTrie, leaf func([]byte, *node) ([]byte, error)) ([]byte, error) {
	if st.isLeaf() {
		return encodeNode(append(e, 0), st.child, leaf)
	}
	e = append(e, 1)
	e = binary.AppendUvarint(e, uint64(st.axis))
	e = attr.AppendRow(e, []float64{st.value}) // a hyperplane value is a row of one
	e, err := encodeTrie(e, st.left, leaf)
	if err != nil {
		return nil, err
	}
	return encodeTrie(e, st.right, leaf)
}

// appendLeaf is the leaf payload encoding both forms share: inline in a
// snapshot, stored wherever a LeafRef points in a checkpoint. A record
// of eight integral attributes costs its ID varint + 34 bytes.
func appendLeaf(e []byte, recs []attr.Record) []byte {
	e = binary.AppendUvarint(e, uint64(len(recs)))
	for _, r := range recs {
		e = attr.AppendRecord(e, r, 0)
	}
	return e
}

// appendRef writes one leaf reference. Page IDs are written as signed
// distances from prev, the page the reference before it ended on:
// leaves packed back to back share or continue a page, so a distance is
// usually 0 or 1 — one byte where an ID took eight.
func appendRef(e []byte, r LeafRef, prev pager.PageID) ([]byte, pager.PageID) {
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

// DecodeSnapshot rebuilds a tree from EncodeSnapshot output under the
// given configuration. Every structural property the rest of the
// package relies on is re-validated during the decode; arbitrary
// input yields an error, never a panic or a malformed tree.
func DecodeSnapshot(cfg Config, data []byte) (*Tree, error) {
	return decodeTree(cfg, data, snapshotVersion, nil)
}

// DecodeCheckpoint rebuilds a tree from a checkpoint directory, asking
// get for the stored encoding of each leaf in trie order (the slice get
// returns is consumed before the next call, so get may reuse it). It
// validates exactly what DecodeSnapshot validates, and stamps every
// leaf with its reference so the next checkpoint of the recovered tree
// rewrites only what changes from here on.
func DecodeCheckpoint(cfg Config, dir []byte, get func(LeafRef) ([]byte, error)) (*Tree, error) {
	return decodeTree(cfg, dir, directoryVersion, get)
}

func decodeTree(cfg Config, data []byte, wantVersion uint32, get func(LeafRef) ([]byte, error)) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &snapDecoder{Reader: attr.NewReader(data), leafDepth: -1, get: get}
	version, err := d.U32()
	if err != nil {
		return nil, err
	}
	if version != wantVersion {
		return nil, fmt.Errorf("rplustree: snapshot in format version %d, this build reads version %d", version, wantVersion)
	}
	dims, err := d.U32()
	if err != nil {
		return nil, err
	}
	if int(dims) != cfg.Schema.Dims() {
		return nil, fmt.Errorf("rplustree: snapshot has %d dimensions, schema has %d", dims, cfg.Schema.Dims())
	}
	height, err := d.U32()
	if err != nil {
		return nil, err
	}
	if height < 1 || height > snapMaxDepth {
		return nil, fmt.Errorf("rplustree: snapshot height %d out of range", height)
	}
	t := &Tree{cfg: cfg, height: int(height)}
	root, err := d.node(cfg, infiniteRegion(int(dims)), 0)
	if err != nil {
		return nil, err
	}
	t.root = root
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("rplustree: snapshot has %d trailing bytes", d.Remaining())
	}
	if d.leafDepth != int(height)-1 {
		return nil, fmt.Errorf("rplustree: snapshot leaves at depth %d, header says height %d", d.leafDepth, height)
	}
	return t, nil
}

// snapDecoder reads the encoded byte stream through the row codec's
// bounds-checked reader. With get set, leaves are references resolved
// through it; otherwise they are inline.
type snapDecoder struct {
	*attr.Reader
	leafDepth int
	get       func(LeafRef) ([]byte, error)
	prevPage  pager.PageID // appendRef's prev, replayed
}

// node decodes one node owning the given routing region at the given
// depth, rebuilding MBRs and counts as it goes.
func (d *snapDecoder) node(cfg Config, region attr.Box, depth int) (*node, error) {
	if depth > snapMaxDepth {
		return nil, fmt.Errorf("rplustree: snapshot nests deeper than %d", snapMaxDepth)
	}
	tag, err := d.Byte()
	if err != nil {
		return nil, err
	}
	dims := cfg.Schema.Dims()
	switch tag {
	case 0: // leaf
		if d.leafDepth == -1 {
			d.leafDepth = depth
		} else if d.leafDepth != depth {
			return nil, fmt.Errorf("rplustree: snapshot leaf at depth %d, expected %d", depth, d.leafDepth)
		}
		if d.get == nil {
			return d.leaf(cfg, region)
		}
		ref, err := d.ref()
		if err != nil {
			return nil, err
		}
		enc, err := d.get(ref)
		if err != nil {
			return nil, err
		}
		sub := &snapDecoder{Reader: attr.NewReader(enc)}
		n, err := sub.leaf(cfg, region)
		if err != nil {
			return nil, err
		}
		if sub.Remaining() != 0 {
			return nil, fmt.Errorf("rplustree: stored leaf has %d trailing bytes", sub.Remaining())
		}
		n.dur = &durableCopy{ref: ref} // a decoded node starts at ver 0
		return n, nil
	case 1: // internal: the trie follows
		n := &node{region: region, mbr: attr.NewBox(dims)}
		trie, err := d.trie(cfg, n, region, depth, 0)
		if err != nil {
			return nil, err
		}
		n.trie = trie
		if len(n.children) == 0 {
			return nil, fmt.Errorf("rplustree: snapshot internal node with no children")
		}
		return n, nil
	default:
		return nil, fmt.Errorf("rplustree: snapshot node tag %d", tag)
	}
}

// leaf decodes one leaf payload (appendLeaf's output) owning region. The
// records' QI vectors are cap-clipped windows of ONE array per leaf, so
// a recovered tree holds one QI allocation per leaf, not per record.
func (d *snapDecoder) leaf(cfg Config, region attr.Box) (*node, error) {
	dims := cfg.Schema.Dims()
	// A record occupies at least an ID byte, a layout byte, 4 bytes per
	// attribute and a sensitive-length byte; Count rejects a claim the
	// remaining bytes cannot hold before anything is allocated.
	nrecs, err := d.Count(3 + attr.FixedRowSize(dims))
	if err != nil {
		return nil, err
	}
	n := &node{region: region, mbr: attr.NewBox(dims)}
	n.recs = make([]attr.Record, 0, nrecs)
	qis := make([]float64, nrecs*dims)
	for i := 0; i < nrecs; i++ {
		rec, err := d.Record(qis[i*dims:(i+1)*dims:(i+1)*dims], 0)
		if err != nil {
			return nil, err
		}
		for _, v := range rec.QI {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("rplustree: snapshot record %d has NaN coordinate", rec.ID)
			}
		}
		if !regionContains(region, rec.QI) {
			return nil, fmt.Errorf("rplustree: snapshot record %d at %v outside its leaf region", rec.ID, rec.QI)
		}
		n.recs = append(n.recs, rec)
		n.mbr.Include(rec.QI)
	}
	n.count = len(n.recs)
	return n, nil
}

// ref decodes one leaf reference (appendRef's output).
func (d *snapDecoder) ref() (LeafRef, error) {
	var r LeafRef
	off, err := d.Uvarint()
	if err != nil {
		return r, err
	}
	length, err := d.Uvarint()
	if err != nil {
		return r, err
	}
	if off > math.MaxUint32 || length > math.MaxUint32 {
		return r, fmt.Errorf("rplustree: leaf reference to %d bytes at offset %d exceeds 32 bits", length, off)
	}
	r.Off, r.Len = uint32(off), uint32(length)
	if r.CRC, err = d.U32(); err != nil {
		return r, err
	}
	npages, err := d.Count(1)
	if err != nil {
		return r, err
	}
	if npages == 0 {
		return r, fmt.Errorf("rplustree: leaf reference names no page")
	}
	r.Pages = make([]pager.PageID, npages)
	for i := range r.Pages {
		delta, err := d.Varint()
		if err != nil {
			return r, err
		}
		d.prevPage += pager.PageID(delta)
		r.Pages[i] = d.prevPage
	}
	return r, nil
}

// trie decodes the split trie of parent, deriving each child's region
// from the hyperplanes and wiring children into parent. depth is the
// parent's tree depth (child nodes sit at depth+1 regardless of how
// deep in the trie their leaf is); guard counts trie nesting only, as
// a corruption backstop.
func (d *snapDecoder) trie(cfg Config, parent *node, region attr.Box, depth, guard int) (*splitTrie, error) {
	if guard > snapMaxDepth {
		return nil, fmt.Errorf("rplustree: snapshot nests deeper than %d", snapMaxDepth)
	}
	tag, err := d.Byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case 0: // trie leaf: a child node
		child, err := d.node(cfg, region, depth+1)
		if err != nil {
			return nil, err
		}
		child.parent = parent
		parent.children = append(parent.children, child)
		parent.count += child.count
		parent.mbr.IncludeBox(child.mbr)
		return &splitTrie{child: child}, nil
	case 1: // trie split
		axis, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if axis >= uint64(cfg.Schema.Dims()) {
			return nil, fmt.Errorf("rplustree: snapshot split axis %d, schema has %d dimensions", axis, cfg.Schema.Dims())
		}
		var plane [1]float64
		if err := d.Row(plane[:]); err != nil {
			return nil, err
		}
		value := plane[0]
		iv := region[axis]
		if math.IsNaN(value) || value <= iv.Lo || value >= iv.Hi {
			return nil, fmt.Errorf("rplustree: snapshot split at %v outside region axis %d %v", value, axis, iv)
		}
		leftRegion, rightRegion := splitRegion(region, int(axis), value)
		left, err := d.trie(cfg, parent, leftRegion, depth, guard+1)
		if err != nil {
			return nil, err
		}
		right, err := d.trie(cfg, parent, rightRegion, depth, guard+1)
		if err != nil {
			return nil, err
		}
		return &splitTrie{axis: int(axis), value: value, left: left, right: right}, nil
	default:
		return nil, fmt.Errorf("rplustree: snapshot trie tag %d", tag)
	}
}
