package rplustree

import (
	"fmt"
	"slices"

	"spatialanon/internal/attr"
	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
)

// This file implements the buffer-tree bulk loading algorithm of
// Section 2.1 (after Arge [2] and van den Bercken et al. [6]): every
// internal node owns a record buffer; insertions are blocked in the root
// buffer, and when a buffer exceeds its threshold all of its records are
// "re-activated" and pushed one level down, either into child buffers or
// — at the last internal level — into the leaves themselves, where
// ordinary splits restructure the tree bottom-up. The paper's Figures 2
// and 3 illustrate exactly this flow.
//
// I/O accounting. The experiments in Figure 8 measure explicit I/O
// operations under a fixed memory budget. The loader stores its cost
// model in an internal/pager pool: buffered records spill to pager pages
// (one page per recordsPerPage records), each leaf owns a proxy page,
// and each structural node owns a proxy page. Reads and writes charged
// by the pager under LRU eviction are the reproduced quantity. Record
// payloads themselves stay in the Go heap — the pages carry cost, not
// truth — which keeps the simulation honest about I/O counts without
// double-storing multi-gigabyte data sets.
//
// Row numbers. In the heap a record descends as a uint32 row number into
// the load's row table (rowTable), not as a copy of its attr.Record: a
// node buffer is an array of row numbers, routing partitions row numbers,
// and records are copied only when a delivery lands them in a leaf. A
// one-shot Load numbers the rows of the caller's slice in place; Insert
// and InsertBatch copy their records into rows the loader owns.
//
// Failure semantics. Every pager access can fail (BulkLoadConfig.Fault
// puts the pager's disk behind a failing device; see internal/fault).
// The loader retries transient faults (retry.Do, retry.Budget tries) and
// then propagates the error, under one consistent-state guarantee: no
// record is ever silently dropped. Concretely:
//
//   - Buffer consumption charges its reads before the buffer is taken,
//     so a failed emptying leaves the buffer intact and retryable.
//   - Once a batch is taken, it is always delivered: records land in
//     child buffers or leaves before (or regardless of) the I/O
//     charges for the move, and routing delivers every share of a
//     batch even after one share's charge fails.
//   - Structural restructuring (splits) runs to completion through
//     errors, so the tree's shape never depends on fault timing; the
//     first error is surfaced to the caller.
//
// On a permanent fault the affected records therefore remain either in
// the tree or in a node buffer, Flush keeps returning the error, and
// the load can resume after the storage is repaired (see
// pager.Scrub) — the property the chaos suite in internal/verify
// asserts schedule by schedule.

// bufferPages is the per-node buffer threshold in pages: a node's
// buffer is emptied once it exceeds this many pages of records. The
// paper's running example uses two pages.
const bufferPages = 2

// BulkLoadConfig parameterizes a BulkLoader.
type BulkLoadConfig struct {
	// PageSize in bytes. Default 4096.
	PageSize int
	// MemoryBytes is the memory allotted to the load — the paper's
	// 256 MB budget in Section 5.1/5.2. Default 256 MiB.
	MemoryBytes int
	// RecordBytes is the on-disk record size (32 for the Lands End
	// layout, 36 for the synthetic one). Default 4 x dims.
	RecordBytes int
	// Fault, when non-nil, wraps the pager's disk (a DiskFile on an
	// in-memory File) in a failing device (fault.Injector.Disk): the chaos
	// suite's storage failures. Production loads leave it nil.
	Fault func(pager.Disk) pager.Disk
}

func (c BulkLoadConfig) withDefaults(dims int) BulkLoadConfig {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 256 << 20
	}
	if c.RecordBytes == 0 {
		c.RecordBytes = 4 * dims
	}
	return c
}

// nodeBuffer holds a node's blocked records, as row numbers, plus the
// pager pages that carry their I/O cost.
type nodeBuffer struct {
	rows  []uint32
	pages []pager.PageID
}

// rowShift sizes the row table's blocks: 1 024 rows, 48 KiB of records.
const rowShift = 10

// maxRows is the most rows a load can number: a row number is a uint32.
const maxRows uint64 = 1 << 32

// rowTable holds the records a load moves, numbered: row r is
// blocks[r>>rowShift][r&(1<<rowShift-1)]. Blocks are fixed-size, so the
// table never regrows and copies. Rows the loader owns (Insert's copies)
// fill blocks it allocates; a one-shot Load appends blocks that window
// the caller's slice, lent, and ends the loan when it returns. Once no
// buffer names a row (the end of a Flush) the table starts afresh.
type rowTable struct {
	blocks [][]attr.Record
	n      int    // rows numbered: the next owned row is n
	lent   [2]int // the blocks [lent[0], lent[1]) window a Load's slice
}

// at returns row r.
func (t *rowTable) at(r uint32) *attr.Record {
	return &t.blocks[r>>rowShift][r&(1<<rowShift-1)]
}

// own copies rec into the next owned row.
func (t *rowTable) own(rec attr.Record) (uint32, error) {
	if uint64(t.n) >= maxRows {
		return 0, fmt.Errorf("rplustree: a load numbers at most %d rows", maxRows)
	}
	b := t.n >> rowShift
	if b == len(t.blocks) {
		t.blocks = append(t.blocks, make([]attr.Record, 1<<rowShift))
	}
	r := uint32(t.n)
	t.blocks[b][t.n&(1<<rowShift-1)] = rec
	t.n++
	return r, nil
}

// lend numbers recs in place, from the next whole block on, and returns
// the row number of recs[0].
func (t *rowTable) lend(recs []attr.Record) (uint32, error) {
	first := (t.n + 1<<rowShift - 1) &^ (1<<rowShift - 1) // = len(t.blocks) << rowShift
	if uint64(first)+uint64(len(recs)) > maxRows {
		return 0, fmt.Errorf("rplustree: a load numbers at most %d rows; %d more do not fit", maxRows, len(recs))
	}
	t.lent[0] = len(t.blocks)
	for i := 0; i < len(recs); i += 1 << rowShift {
		end := min(i+1<<rowShift, len(recs))
		t.blocks = append(t.blocks, recs[i:end:end])
	}
	t.lent[1] = len(t.blocks)
	t.n = len(t.blocks) << rowShift
	return uint32(first), nil
}

// BulkLoader drives buffer-tree insertion into a Tree.
type BulkLoader struct {
	tree        *Tree
	pg          *pager.Pager
	cfg         BulkLoadConfig
	recsPerPage int
	bufferCap   int // records per buffer before it empties

	nodePages map[*node]pager.PageID // structural + leaf proxy pages
	buffered  int                    // records blocked in node buffers

	rows rowTable // the records the buffers' row numbers name

	// scratch and box gather one delivery's records and their bounds for
	// bulkAppendLeaf; scratch is sized by the largest delivery and
	// dropped at the end of Flush.
	scratch []attr.Record
	box     attr.Box

	// free holds emptied buffer arrays for the next buffer that needs
	// one: every record passes through a buffer per level, and arrays
	// grown by append and dropped at each emptying were four fifths of a
	// load's allocation. At most maxFreeArrays are kept, and none past
	// the end of Flush.
	free [][]uint32
}

// maxFreeArrays bounds BulkLoader.free: an emptying frees one array
// while up to NodeCapacity freshly filled children wait their turn, so a
// few levels' worth is all a load can reuse.
const maxFreeArrays = 64

// NewBulkLoader attaches a buffer-tree loader to an (typically empty)
// tree. Loading is a phase: until Close the loader is the tree's only
// writer, and the tree's own Insert, Delete and Update return ErrLoading.
func NewBulkLoader(t *Tree, cfg BulkLoadConfig) (*BulkLoader, error) {
	if t.loader != nil {
		return nil, fmt.Errorf("rplustree: tree already has a bulk loader")
	}
	cfg = cfg.withDefaults(t.cfg.Schema.Dims())
	if cfg.PageSize < cfg.RecordBytes {
		return nil, fmt.Errorf("rplustree: page size %d smaller than record size %d", cfg.PageSize, cfg.RecordBytes)
	}
	poolPages := cfg.MemoryBytes / cfg.PageSize
	if poolPages < 4 {
		return nil, fmt.Errorf("rplustree: memory budget %dB yields a pool of %d pages; need at least 4", cfg.MemoryBytes, poolPages)
	}
	// The pager's pages are cost proxies: record payloads stay in the
	// tree, so the pages carry no bytes worth storing. Registering them
	// with a tiny internal size keeps the counting semantics (pool
	// capacity = MemoryBytes/PageSize pages, one transfer per page
	// moved) while avoiding zeroing megabytes of real 4 KiB buffers.
	mem, err := pager.CreateDiskFile(pager.NewMemFile(), 8)
	if err != nil {
		return nil, err
	}
	var disk pager.Disk = mem
	if cfg.Fault != nil {
		disk = cfg.Fault(disk)
	}
	pg, err := pager.NewWithDisk(8, poolPages, disk)
	if err != nil {
		return nil, err
	}
	bl := &BulkLoader{
		tree:        t,
		pg:          pg,
		cfg:         cfg,
		recsPerPage: cfg.PageSize / cfg.RecordBytes,
		nodePages:   make(map[*node]pager.PageID),
		box:         attr.NewBox(t.cfg.Schema.Dims()),
	}
	bl.bufferCap = bufferPages * bl.recsPerPage
	t.loader = bl
	return bl, nil
}

// Stats returns the pager's I/O counters — the quantity plotted in
// Figure 8(b).
func (bl *BulkLoader) Stats() pager.Stats { return bl.pg.Stats() }

// ResetStats zeroes the I/O counters.
func (bl *BulkLoader) ResetStats() { bl.pg.ResetStats() }

// Pager exposes the loader's pager so tests and recovery tooling can
// repair corruption (Scrub); production loads should not need it.
func (bl *BulkLoader) Pager() *pager.Pager { return bl.pg }

// Close detaches the loader from the tree after flushing. On a flush
// error the loader stays attached so the flush can be retried once the
// storage recovers.
func (bl *BulkLoader) Close() error {
	if err := bl.Flush(); err != nil {
		return err
	}
	bl.tree.loader = nil
	return nil
}

// Insert copies one record into a row the loader owns and blocks it in
// the root buffer, emptying it downward when it exceeds the threshold. A
// record attr.ValidateQI refuses is not blocked, nor is one past the
// rows a load can number; on any other error it is (or is already in a
// leaf) — only I/O charges failed, so no record is ever silently dropped.
func (bl *BulkLoader) Insert(rec attr.Record) error {
	if err := attr.ValidateQI(bl.tree.cfg.Schema.Dims(), rec.QI); err != nil {
		return fmt.Errorf("rplustree: %w", err)
	}
	r, err := bl.rows.own(rec)
	if err != nil {
		return err
	}
	return bl.block(r)
}

// InsertBatch copies a batch of records into rows the loader owns and
// blocks them, so the caller may reuse recs once it returns. A failure
// mid-batch does not silently drop the tail: every record is still
// inserted and the first error is returned.
func (bl *BulkLoader) InsertBatch(recs []attr.Record) error {
	var err error
	for _, r := range recs {
		if e := bl.Insert(r); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Load is a one-shot load of recs: it blocks them as InsertBatch does —
// a record attr.ValidateQI refuses is skipped and the first error is
// returned — then flushes and closes the loader. The records descend as
// row numbers into recs itself, which Load only reads: it never writes
// or reorders recs, and holds no reference to it once it returns. Each
// leaf receives copies, as from InsertBatch, and the tree, its record
// order and the I/O charged are those of InsertBatch, Flush and Close on
// the same records. On any error the loader stays attached with its own
// copies of the records it still buffers, and Flush or Close finishes
// the load once the storage recovers. A slice with more records than a
// uint32 can number is refused whole.
func (bl *BulkLoader) Load(recs []attr.Record) error {
	first, err := bl.rows.lend(recs)
	if err != nil {
		return err
	}
	dims := bl.tree.cfg.Schema.Dims()
	for i := range recs {
		e := attr.ValidateQI(dims, recs[i].QI)
		if e != nil {
			e = fmt.Errorf("rplustree: %w", e)
		} else {
			e = bl.block(first + uint32(i))
		}
		if e != nil && err == nil {
			err = e
		}
	}
	if err == nil {
		err = bl.Close()
	}
	if err != nil && bl.rows.lent != [2]int{} {
		bl.endLoan()
	}
	return err
}

// endLoan ends a failed Load's loan of the caller's slice: a lent block
// that a buffered row still names becomes an owned copy, the others are
// dropped.
func (bl *BulkLoader) endLoan() {
	t := &bl.rows
	live := make([]bool, len(t.blocks))
	var mark func(n *node)
	mark = func(n *node) {
		if n.buffer != nil {
			for _, r := range n.buffer.rows {
				live[r>>rowShift] = true
			}
		}
		if !n.isLeaf() {
			n.trie.each(mark)
		}
	}
	mark(bl.tree.root)
	for b := t.lent[0]; b < t.lent[1]; b++ {
		if live[b] {
			t.blocks[b] = slices.Clone(t.blocks[b])
		} else {
			t.blocks[b] = nil
		}
	}
	t.lent = [2]int{}
}

// block appends row r to the root buffer, emptying the buffer downward
// when it exceeds its threshold.
func (bl *BulkLoader) block(r uint32) error {
	root := bl.tree.root
	err := bl.appendBufferBatch(root, []uint32{r})
	if len(root.buffer.rows) > bl.rootBufferCap() {
		if e := bl.emptyBuffer(root); err == nil {
			err = e
		}
	}
	return err
}

// Flush pushes every blocked record all the way into the leaves. Must be
// called before reading anonymizations off the tree. On error the
// not-yet-drained buffers keep their records; Flush can be called again
// once the storage recovers.
func (bl *BulkLoader) Flush() error {
	// Restructuring can, in rare shapes, move a still-buffered node above
	// an already-visited position; loop until nothing is buffered (the
	// second pass almost never happens).
	for bl.buffered > 0 {
		if err := bl.flush(bl.tree.root); err != nil {
			return err
		}
	}
	bl.free, bl.scratch, bl.rows = nil, nil, rowTable{}
	// Make the flushed state durable: dirty pages still in the pool are
	// written back (and charged) now, so the I/O counters reflect a
	// complete, persistent load.
	_, err := retry.Do(bl.pg.Flush)
	return err
}

// flush empties the buffers under n top-down: pre-order, children in trie
// order, so a node's buffer is emptied before its children's and one pass
// drains every record to the leaf frontier. The emptying may replace n;
// walking on through a replaced node's trie is harmless (its buffer is
// empty). The first error stops the walk.
func (bl *BulkLoader) flush(n *node) (err error) {
	if n.buffer != nil && len(n.buffer.rows) > 0 {
		err = bl.emptyBuffer(n)
	}
	if err == nil && !n.isLeaf() {
		n.trie.each(func(c *node) {
			if err == nil {
				err = bl.flush(c)
			}
		})
	}
	return err
}

// rootBufferCap lets the root block more records than interior nodes
// (64 buffer units) so bulk loads amortize full-tree drains. It is
// deliberately independent of the memory budget: with the page access
// trace fixed, LRU's inclusion property makes measured I/O monotone in
// pool size, which is what lets Figure 8(b) isolate the effect of
// memory on I/O.
func (bl *BulkLoader) rootBufferCap() int {
	return 64 * bl.bufferCap
}

// appendBufferBatch blocks a non-empty batch of rows in n's buffer in
// one append, spilling a cost page per recsPerPage records. The batch
// lands before the fallible spill, so an error never loses it, and it is
// copied: the caller keeps its array.
func (bl *BulkLoader) appendBufferBatch(n *node, rows []uint32) error {
	buf := bl.reserve(n, len(rows))
	buf.rows = append(buf.rows, rows...)
	return bl.spillPages(buf)
}

// reserve returns n's buffer with room for extra more records, counted
// as buffered. Arrays hold whole pages of records and come from the free
// list when one there is big enough (the smallest such); growth at least
// doubles.
func (bl *BulkLoader) reserve(n *node, extra int) *nodeBuffer {
	if n.buffer == nil {
		n.buffer = &nodeBuffer{}
	}
	bl.buffered += extra
	buf := n.buffer
	need := len(buf.rows) + extra
	if need <= cap(buf.rows) {
		return buf
	}
	pages := (max(need, 2*cap(buf.rows)) + bl.recsPerPage - 1) / bl.recsPerPage
	want := pages * bl.recsPerPage
	best := -1
	for i, a := range bl.free {
		// Not an array far larger than asked for: a buffer near the leaves
		// would sit on the root's.
		if cap(a) >= need && cap(a) <= 2*want && (best < 0 || cap(a) < cap(bl.free[best])) {
			best = i
		}
	}
	var grown []uint32
	if best >= 0 {
		last := len(bl.free) - 1
		grown = bl.free[best]
		bl.free[best], bl.free[last] = bl.free[last], nil
		bl.free = bl.free[:last]
	} else {
		grown = make([]uint32, 0, want)
	}
	old := buf.rows
	buf.rows = append(grown, old...)
	bl.recycle(old)
	return buf
}

// recycle offers an array nobody refers to any more to the free list.
func (bl *BulkLoader) recycle(rows []uint32) {
	if cap(rows) > 0 && len(bl.free) < maxFreeArrays {
		bl.free = append(bl.free, rows[:0])
	}
}

// spillPages allocates cost pages for every full page's worth of
// buffered records not yet backed by one. The writes are charged when
// the LRU evicts them (or at Flush). On error the records stay
// buffered and unbacked; a later spill of the same buffer resumes
// where this one stopped.
func (bl *BulkLoader) spillPages(buf *nodeBuffer) error {
	for len(buf.pages) < len(buf.rows)/bl.recsPerPage {
		id, err := bl.allocPage()
		if err != nil {
			return err
		}
		buf.pages = append(buf.pages, id)
	}
	return nil
}

// allocPage allocates a cost page and unpins it, under retry. A fresh
// page is dirty: its write is charged when the LRU evicts it (or at
// Flush).
func (bl *BulkLoader) allocPage() (pager.PageID, error) {
	var id pager.PageID
	_, err := retry.Do(func() error {
		var err error
		if id, _, err = bl.pg.Alloc(); err != nil {
			return err
		}
		return bl.pg.Unpin(id)
	})
	return id, err
}

// readPage charges a read of page id (and, when dirty, its later write)
// and unpins it, under retry.
func (bl *BulkLoader) readPage(id pager.PageID, dirty bool) error {
	_, err := retry.Do(func() error {
		if _, err := bl.pg.Read(id); err != nil {
			return err
		}
		if dirty {
			bl.pg.MarkDirty(id)
		}
		return bl.pg.Unpin(id)
	})
	return err
}

// takeBuffer drains n's buffer, charging reads for its spilled pages.
// Every read is charged (and can fault) before the buffer is consumed,
// so on error the buffer is intact and the emptying can be retried
// without record loss. The caller recycles the array once the batch is
// delivered.
func (bl *BulkLoader) takeBuffer(n *node) ([]uint32, error) {
	if n.buffer == nil {
		return nil, nil
	}
	for _, id := range n.buffer.pages {
		if err := bl.readPage(id, false); err != nil {
			return nil, err
		}
	}
	rows := n.buffer.rows
	for _, id := range n.buffer.pages {
		bl.pg.Free(id)
	}
	n.buffer = nil
	bl.buffered -= len(rows)
	return rows, nil
}

// touchNode charges a read (and optional write) of the node's proxy
// page, allocating it on first touch.
func (bl *BulkLoader) touchNode(n *node, dirty bool) error {
	if id, ok := bl.nodePages[n]; ok {
		return bl.readPage(id, dirty)
	}
	id, err := bl.allocPage()
	if err == nil {
		bl.nodePages[n] = id // a fresh page is already dirty
	}
	return err
}

// dropNode releases a discarded node's proxy page.
func (bl *BulkLoader) dropNode(n *node) {
	if id, ok := bl.nodePages[n]; ok {
		bl.pg.Free(id)
		delete(bl.nodePages, n)
	}
}

// emptyBuffer implements one buffer-emptying step: push n's blocked
// records one level down. At the leaf frontier records terminate in
// leaves and splits restructure bottom-up, exactly as in Figure 3.
//
// Distribution partitions the batch in place along each trie
// hyperplane rather than routing record by record — one sequential
// sweep per trie level instead of a root-to-leaf pointer chase per
// record, which is what makes buffer emptying cheaper than
// tuple-at-a-time insertion even for memory-resident data.
//
// Error handling follows the file-level guarantee: takeBuffer is the
// only early-out (the buffer is then intact and retryable); once the
// batch is taken, it is pushed down in full and the first I/O-charge
// error is collected and returned.
func (bl *BulkLoader) emptyBuffer(n *node) error {
	rows, err := bl.takeBuffer(n)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	err = bl.touchNode(n, false)
	var e error
	if n.isLeaf() {
		e = bl.terminate(n, rows)
	} else {
		e = bl.routeTrie(n.trie, rows)
	}
	if err == nil {
		err = e
	}
	// Every delivery copies its share, so once the batch is routed its
	// array is free for the next buffer — the children's, if they empty
	// in turn.
	bl.recycle(rows)
	// Empty any child buffer that overflowed, in trie order: a split the
	// recursion causes cuts only the trie leaf of the child being emptied,
	// which the walk has passed, so neither half is visited. Leaf children
	// have no buffers.
	if !n.isLeaf() {
		n.trie.each(func(c *node) {
			if c.buffer != nil && len(c.buffer.rows) > bl.bufferCap {
				if e := bl.emptyBuffer(c); e != nil && err == nil {
					err = e
				}
			}
		})
	}
	return err
}

// terminate lands a non-empty batch in a leaf and lets splits
// restructure upward. The I/O charge goes to the leaf's parent: with the
// default geometry a last-level internal node's ~NodeCapacity leaves of
// c·k records fit one physical page, so the parent is the page-granular
// unit a real layout would read and write (charging per tiny leaf would
// bill one 4 KiB transfer per ~10 records, which no packed leaf file
// pays). The charge is computed and attempted before the append (the
// append re-parents the leaf), but its failure does not stop the records
// from landing.
func (bl *BulkLoader) terminate(leaf *node, rows []uint32) error {
	err := bl.touchNode(unitOf(leaf), true)
	if cap(bl.scratch) < len(rows) {
		bl.scratch = make([]attr.Record, len(rows))
	}
	recs := bl.scratch[:len(rows)]
	for i := range bl.box {
		bl.box[i] = attr.EmptyInterval()
	}
	for i, r := range rows {
		recs[i] = *bl.rows.at(r)
		bl.box.Include(recs[i].QI)
	}
	if e := bl.tree.bulkAppendLeaf(leaf, recs, bl.box); err == nil {
		err = e
	}
	return err
}

// unitOf maps a node to its page-granular I/O unit: leaves are billed
// to their parent (a last-level internal node's leaves fill about one
// physical page); internal nodes are their own unit.
func unitOf(n *node) *node {
	if n.isLeaf() && n.parent != nil {
		return n.parent
	}
	return n
}

// routeTrie is one walk down the trie: it partitions rows in place at
// each hyperplane, recurses left then right, and delivers each trie
// leaf's share as soon as it is cut off — into the child itself when
// the child is a leaf, into its buffer otherwise. Every share is
// delivered even after an earlier delivery errors (an undelivered share
// would be silent record loss), and the first error is returned.
//
// Deliveries restructure the tree while the walk still reads the trie,
// and leave every trie node it has yet to read untouched: a delivery
// splits only the leaf it went to, rewriting that leaf's own trie leaf,
// and the nodes above it, and splitInternal reuses its trie's subtrees
// without writing a trie node.
func (bl *BulkLoader) routeTrie(st *splitTrie, rows []uint32) error {
	if len(rows) == 0 {
		return nil
	}
	if st.isLeaf() {
		if st.child.isLeaf() {
			return bl.terminate(st.child, rows)
		}
		return bl.appendBufferBatch(st.child, rows)
	}
	mid := bl.partitionRows(rows, st.axis, st.value)
	err := bl.routeTrie(st.left, rows[:mid])
	if e := bl.routeTrie(st.right, rows[mid:]); err == nil {
		err = e
	}
	return err
}

// partitionRows is partition's Hoare sweep over row numbers: the same
// comparisons, hence the same permutation, as partition makes on the
// records themselves.
func (bl *BulkLoader) partitionRows(rows []uint32, axis int, value float64) int {
	tab := bl.rows
	lo, hi := 0, len(rows)
	for lo < hi {
		if tab.at(rows[lo]).QI[axis] < value {
			lo++
		} else {
			hi--
			rows[lo], rows[hi] = rows[hi], rows[lo]
		}
	}
	return lo
}

// splitBuffer is the Tree's hook into the loader when a node splits:
// proxy pages move with the structure. Without a loader it is a no-op. A
// node being split always has an empty buffer — the loader is the tree's
// only writer, and it empties buffers top-down before restructuring runs
// bottom-up — so no blocked record needs to follow the halves.
func (t *Tree) splitBuffer(old, left, right *node) error {
	bl := t.loader
	if bl == nil {
		return nil
	}
	bl.dropNode(old)
	// New structure: charge the write of the page unit(s) the fresh
	// halves live in (for leaf splits both halves share their parent's
	// unit, so this is typically one page).
	lu, ru := unitOf(left), unitOf(right)
	err := bl.touchNode(lu, true)
	if ru != lu {
		if e := bl.touchNode(ru, true); err == nil {
			err = e
		}
	}
	return err
}
