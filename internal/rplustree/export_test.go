package rplustree

// MoveBottomPlane moves the hyperplane between two sibling leaves — the
// first trie split, in the first internal node above the leaves, whose
// halves are both leaves — up to the right leaf's largest coordinate on
// its axis, without touching anything else: every record of the right
// leaf below that coordinate now routes to the left leaf. It returns how
// many of the right leaf's records that misroutes, and how many it holds.
// The tree must have at least two levels.
func (t *Tree) MoveBottomPlane() (misrouted, of int) {
	n := t.root
	for !n.children[0].isLeaf() {
		n = n.children[0]
	}
	st := n.trie
	for !st.left.isLeaf() || !st.right.isLeaf() {
		if st.left.isLeaf() {
			st = st.right
		} else {
			st = st.left
		}
	}
	right := st.right.child
	st.value = right.mbr[st.axis].Hi
	for _, r := range right.recs {
		if r.QI[st.axis] < st.value {
			misrouted++
		}
	}
	return misrouted, len(right.recs)
}

// BlobStore is the package tests' one-byte-string object store, for the
// external tests: Blob wraps given object bytes, a zero one starts empty.
type BlobStore = blobStore

func Blob(objects []byte) *BlobStore                        { return &blobStore{blob: objects} }
func (b *blobStore) Put(enc []byte, leaf bool) (Ref, error) { return b.put(enc, leaf) }
func (b *blobStore) Get(ref Ref) ([]byte, error)            { return b.get(ref) }
func (b *blobStore) Bytes() []byte                          { return b.blob }
