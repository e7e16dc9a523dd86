// Package pager is a paged storage manager: a byte-addressable "disk"
// of fixed-size pages fronted by an LRU buffer pool with a hard memory
// budget, pin/unpin semantics, dirty-page write-back, explicit I/O
// statistics, per-page CRC32 checksums and pluggable disk backends.
//
// The paper's scalability experiments (Figure 8) report *counts of
// explicit I/O system calls* while varying the memory allotted to the
// anonymization process. A counting pager reproduces exactly that
// quantity — deterministically, independent of the host machine — which
// is why the buffer-tree bulk loader (internal/rplustree) stores its
// node pages and buffer-spill pages here rather than in plain Go heap
// memory.
//
// Backends. The pager's disk is a Disk; the one implementation is
// DiskFile, sealed pages in a File: New puts it on an in-memory File
// (all the I/O *counting* experiments need), the durability subsystem
// (internal/wal) on a real one. A Disk may wrap another: internal/fault
// models a failing device as a Disk around the real one.
//
// Failure semantics. Every page carries a CRC32-Castagnoli checksum,
// sealed when the page is written back to the disk and verified when it
// is next read from disk. A mismatch is reported as a typed
// *CorruptError — the pager never silently returns rotted bytes, even
// when the disk damaged them after the seal, which is exactly how torn
// writes and bit rot escape a real storage stack until the page is next
// read. Scrub is the recovery hook: it re-seals the checksum of every
// corrupt page, modeling a restore from replica once corruption has
// been detected.
package pager

import (
	"container/list"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
)

// PageID names one page of the disk. Zero is never a valid ID.
type PageID int64

// Stats counts the explicit I/O operations the pager has performed.
// Reads and Writes are page transfers between the buffer pool and the
// disk; Allocs counts pages ever allocated; Hits counts buffer pool
// hits that avoided a read.
type Stats struct {
	Reads  int64
	Writes int64
	Allocs int64
	Frees  int64
	Hits   int64
}

// CorruptError reports that a page read from disk failed its checksum:
// the bytes on disk are not the bytes that were written. It is never
// transient — retrying the read returns the same rotten page; recovery
// requires Scrub (restore from replica) or Free.
type CorruptError struct {
	Page PageID
	Want uint32 // checksum sealed at write-back
	Got  uint32 // checksum of the bytes actually on disk
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("pager: page %d corrupt: checksum %08x, stored %08x", e.Page, e.Got, e.Want)
}

// ErrUnknownPage reports a read of a page the disk has never stored.
var ErrUnknownPage = errors.New("pager: read of unknown page")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum is CRC32-C (Castagnoli, as iSCSI and ext4 metadata; hardware-
// accelerated on amd64/arm64): the page seals, and the log's frame
// trailers and checkpoint references (internal/wal).
func Checksum(data []byte) uint32 { return crc32.Checksum(data, crcTable) }

// Disk is the storage behind the buffer pool: sealed pages at rest.
// Implementations store the payload together with the checksum sealed
// at write-back; the pager verifies the seal on read, so a backend
// never needs to interpret page contents. Implementations are driven
// from the pager's single goroutine. A Disk that wraps another — the
// device path between pool and media, which may fail or damage what
// passes — returns it from an Unwrap() Disk method; FlipBit, Scrub and
// VerifyPages work on the innermost disk, the pages at rest.
type Disk interface {
	// ReadPage returns the stored payload and its sealed checksum.
	// Unknown pages report an error wrapping ErrUnknownPage. The
	// returned slice may alias backend storage; the pager copies it.
	ReadPage(id PageID) (data []byte, sum uint32, err error)
	// WritePage stores the payload under the (already sealed) checksum,
	// overwriting any previous version of the page.
	WritePage(id PageID, data []byte, sum uint32) error
	// FreePage drops the page. It reports whether the page was stored.
	FreePage(id PageID) (bool, error)
	// IDs returns every stored page in ascending order.
	IDs() ([]PageID, error)
	// MaxID returns the highest page ID ever stored (0 when empty), so
	// a reopened pager resumes allocation past persisted pages.
	MaxID() (PageID, error)
	// Sync forces stored pages to stable media (no-op for memory).
	Sync() error
	// Close releases backend resources.
	Close() error
}

type frame struct {
	id    PageID
	data  []byte
	dirty bool
	pins  int
	elem  *list.Element
}

// Pager is the storage manager. It is not safe for concurrent use; the
// anonymization pipeline is single-threaded, as was the paper's.
type Pager struct {
	pageSize  int
	poolPages int

	disk   Disk
	rest   Disk // disk with every wrapper unwrapped: the pages at rest
	frames map[PageID]*frame
	lru    *list.List // front = most recently used; holds *frame
	nextID PageID
	stats  Stats

	// reuse and free are the slot recycler ReuseFreed turns on: free is
	// the ascending set of IDs at or below nextID that hold no page.
	reuse bool
	free  []PageID
}

// New returns a pager over a DiskFile on an in-memory File with the
// given page size in bytes and a buffer pool of poolPages pages. It
// returns an error when pageSize is not positive or poolPages is below
// 1 — both reachable from user-supplied memory budgets, so they are
// errors rather than panics.
func New(pageSize, poolPages int) (*Pager, error) {
	d, err := CreateDiskFile(NewMemFile(), pageSize)
	if err != nil {
		return nil, err
	}
	return NewWithDisk(pageSize, poolPages, d)
}

// NewWithDisk returns a pager over the given backend. Pages the backend
// already stores stay readable, and allocation resumes past the highest
// stored ID — this is how a reopened DiskFile recovers its pages.
func NewWithDisk(pageSize, poolPages int, d Disk) (*Pager, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("pager: page size %d must be positive", pageSize)
	}
	if poolPages < 1 {
		return nil, fmt.Errorf("pager: buffer pool of %d pages must hold at least 1", poolPages)
	}
	if d == nil {
		return nil, fmt.Errorf("pager: nil disk")
	}
	max, err := d.MaxID()
	if err != nil {
		return nil, fmt.Errorf("pager: scanning disk: %w", err)
	}
	rest := d
	for u, ok := rest.(interface{ Unwrap() Disk }); ok; u, ok = rest.(interface{ Unwrap() Disk }) {
		rest = u.Unwrap()
	}
	return &Pager{
		pageSize:  pageSize,
		poolPages: poolPages,
		disk:      d,
		rest:      rest,
		frames:    make(map[PageID]*frame),
		lru:       list.New(),
		nextID:    max,
	}, nil
}

// ReuseFreed makes Alloc hand out freed page IDs again, lowest first,
// before minting new ones, so a long-lived page file whose owner frees
// as much as it allocates stops growing. The free set starts as every
// ID up to the highest ever stored that the backend does not hold —
// for a DiskFile, what its open-time slot scan found free — so call it
// before the first Alloc. It is opt-in because an ID names a page to
// disk wrappers too (an injected permanent fault sticks to its ID): the
// I/O counting pagers of the bulk loader keep never-reused IDs and their
// pinned fault schedules.
func (p *Pager) ReuseFreed() error {
	ids, err := p.disk.IDs()
	if err != nil {
		return fmt.Errorf("pager: scanning disk: %w", err)
	}
	p.reuse = true
	p.free = p.free[:0]
	next := PageID(1)
	for _, id := range ids {
		for ; next < id; next++ {
			p.free = append(p.free, next)
		}
		next = id + 1
	}
	for ; next <= p.nextID; next++ {
		p.free = append(p.free, next)
	}
	return nil
}

// PageSize returns the page size in bytes.
func (p *Pager) PageSize() int { return p.pageSize }

// PoolPages returns the buffer pool capacity in pages.
func (p *Pager) PoolPages() int { return p.poolPages }

// Stats returns a snapshot of the I/O counters.
func (p *Pager) Stats() Stats { return p.stats }

// ResetStats zeroes the I/O counters (page contents are untouched). The
// experiment harness calls this between measurement phases.
func (p *Pager) ResetStats() { p.stats = Stats{} }

// Alloc creates a new zeroed page, resident in the pool and pinned once.
// The caller must Unpin it when done mutating.
func (p *Pager) Alloc() (PageID, []byte, error) {
	var id PageID
	if len(p.free) > 0 {
		id, p.free = p.free[0], p.free[1:]
	} else {
		p.nextID++
		id = p.nextID
	}
	p.stats.Allocs++
	f, err := p.install(id, make([]byte, p.pageSize))
	if err != nil {
		p.release(id)
		return 0, nil, err
	}
	f.dirty = true // a fresh page must reach "disk" eventually
	f.pins++
	return id, f.data, nil
}

// Read pins the page into the pool and returns its contents. Mutations of
// the returned slice are only persisted if the caller also calls
// MarkDirty before Unpin. A checksum mismatch on the disk read is
// reported as a *CorruptError.
func (p *Pager) Read(id PageID) ([]byte, error) {
	f, err := p.fetch(id)
	if err != nil {
		return nil, err
	}
	f.pins++
	return f.data, nil
}

// MarkDirty records that the page's pooled contents differ from disk.
func (p *Pager) MarkDirty(id PageID) error {
	f, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("pager: MarkDirty of non-resident page %d", id)
	}
	f.dirty = true
	return nil
}

// Unpin releases one pin on the page, making it evictable when the count
// reaches zero.
func (p *Pager) Unpin(id PageID) error {
	f, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("pager: Unpin of non-resident page %d", id)
	}
	if f.pins == 0 {
		return fmt.Errorf("pager: Unpin of unpinned page %d", id)
	}
	f.pins--
	return nil
}

// Free releases a page entirely: it is dropped from the pool (without
// write-back) and from the disk. Freeing a pinned page is an error.
func (p *Pager) Free(id PageID) error {
	if f, ok := p.frames[id]; ok {
		if f.pins > 0 {
			return fmt.Errorf("pager: Free of pinned page %d", id)
		}
		p.lru.Remove(f.elem)
		delete(p.frames, id)
	}
	if _, err := p.disk.FreePage(id); err != nil {
		return err
	}
	// Page may be resident-only (never written back) — that is still a
	// legitimate free as long as it was allocated.
	p.stats.Frees++
	p.release(id)
	return nil
}

// release returns id to the free set when slot reuse is on. The set
// stays sorted and duplicate-free, so a double Free cannot make Alloc
// hand one ID out twice.
func (p *Pager) release(id PageID) {
	if !p.reuse || id < 1 || id > p.nextID {
		return
	}
	if i, found := slices.BinarySearch(p.free, id); !found {
		p.free = slices.Insert(p.free, i, id)
	}
}

// Flush writes every dirty pooled page back to disk, in PageID order so
// fault schedules replay deterministically. Every dirty page is
// attempted even after one fails, so a partial flush leaves the
// smallest possible set of unsynced pages; the errors are joined, each
// naming its page, which is how checkpointing reports exactly what is
// not yet durable.
func (p *Pager) Flush() error {
	ids := make([]PageID, 0, len(p.frames))
	for id, f := range p.frames {
		if f.dirty {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var errs []error
	for _, id := range ids {
		if err := p.writeBack(p.frames[id]); err != nil {
			errs = append(errs, fmt.Errorf("pager: flush of page %d: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// Sync forces the backend to persist written pages to stable media
// (a no-op for the in-memory disk). It does not write back dirty pool
// pages — call Flush first.
func (p *Pager) Sync() error { return p.disk.Sync() }

// Close flushes dirty pages and releases the backend. The pager must
// not be used afterwards.
func (p *Pager) Close() error {
	ferr := p.Flush()
	cerr := p.disk.Close()
	return errors.Join(ferr, cerr)
}

// CloseNoFlush releases the backend without writing back dirty pool
// pages — the "process died" close used after a simulated crash:
// whatever reached disk before the crash stays exactly as it is.
func (p *Pager) CloseNoFlush() error { return p.disk.Close() }

// DiskPages returns every page currently stored by the backend, in
// ascending order. Recovery uses it to find (and free) checkpoint pages
// a crash left unreferenced.
func (p *Pager) DiskPages() ([]PageID, error) { return p.disk.IDs() }

// FlipBit flips one bit of the at-rest copy of a page without updating
// its checksum — the bit-rot hook for tests and fault drills. The next
// disk read of the page fails with a *CorruptError.
func (p *Pager) FlipBit(id PageID, bit int) error {
	data, sum, err := p.rest.ReadPage(id)
	if err != nil {
		return fmt.Errorf("pager: FlipBit of page %d: %w", id, err)
	}
	if bit < 0 || bit >= 8*len(data) {
		return fmt.Errorf("pager: bit %d outside page of %d bytes", bit, len(data))
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	buf[bit/8] ^= 1 << (bit % 8)
	return p.rest.WritePage(id, buf, sum)
}

// Scrub re-seals the checksum of every on-disk page whose stored
// checksum no longer matches its bytes and returns the repaired IDs in
// ascending order. It models the recovery step a deployment performs
// once corruption is detected, fsck-style: the page's current bytes
// are accepted as truth and re-sealed. No original bytes come back —
// safe for the I/O-cost-proxy pages of the bulk loader, and surfaced
// (never hidden) for checkpoint pages, whose recovery path verifies
// every object it reads there against the CRC the object above it holds
// (a chain from the log's manifest frame). The chaos harness calls
// it to prove the system resumes cleanly after torn writes and bit rot.
func (p *Pager) Scrub() ([]PageID, error) {
	_, corrupt, err := p.VerifyPages()
	if err != nil {
		return nil, err
	}
	for i, id := range corrupt {
		data, _, err := p.rest.ReadPage(id)
		if err != nil {
			return corrupt[:i], err
		}
		buf := make([]byte, len(data))
		copy(buf, data)
		if err := p.rest.WritePage(id, buf, Checksum(buf)); err != nil {
			return corrupt[:i], err
		}
	}
	return corrupt, nil
}

// VerifyPages checks every at-rest page against its sealed checksum
// without repairing anything, returning the IDs that fail in ascending
// order alongside the number of pages scanned. Unlike Scrub it never
// rewrites bytes: a caller that owns redundancy for its pages (a
// checkpoint manifest plus a WAL, a replica) detects rot here and
// repairs from the authoritative copy instead of accepting the rotted
// bytes as truth. The scan reads the pages at rest — buffer-pool
// residency and disk wrappers are bypassed, like FlipBit and Scrub — so
// it sees exactly what a reopening process would.
func (p *Pager) VerifyPages() (scanned int, corrupt []PageID, err error) {
	ids, err := p.rest.IDs()
	if err != nil {
		return 0, nil, err
	}
	for _, id := range ids {
		data, sum, err := p.rest.ReadPage(id)
		if err != nil {
			return scanned, corrupt, err
		}
		scanned++
		if got := Checksum(data); got != sum {
			corrupt = append(corrupt, id)
		}
	}
	return scanned, corrupt, nil
}

// fetch returns the frame for id, reading it from disk if necessary and
// evicting an unpinned page if the pool is full.
func (p *Pager) fetch(id PageID) (*frame, error) {
	if f, ok := p.frames[id]; ok {
		p.stats.Hits++
		p.lru.MoveToFront(f.elem)
		return f, nil
	}
	data, sum, err := p.disk.ReadPage(id)
	if err != nil {
		return nil, err
	}
	p.stats.Reads++
	if got := Checksum(data); got != sum {
		return nil, &CorruptError{Page: id, Want: sum, Got: got}
	}
	buf := make([]byte, p.pageSize)
	copy(buf, data)
	return p.install(id, buf)
}

// install places data in the pool under id, evicting if needed.
func (p *Pager) install(id PageID, data []byte) (*frame, error) {
	for len(p.frames) >= p.poolPages {
		if err := p.evictOne(); err != nil {
			return nil, err
		}
	}
	f := &frame{id: id, data: data}
	f.elem = p.lru.PushFront(f)
	p.frames[id] = f
	return f, nil
}

// evictOne removes the least recently used unpinned page, writing it back
// if dirty.
func (p *Pager) evictOne() error {
	for e := p.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*frame)
		if f.pins > 0 {
			continue
		}
		if f.dirty {
			if err := p.writeBack(f); err != nil {
				return err
			}
		}
		p.lru.Remove(f.elem)
		delete(p.frames, f.id)
		return nil
	}
	return fmt.Errorf("pager: buffer pool of %d pages exhausted by pinned pages", p.poolPages)
}

// writeBack persists a frame to the disk. The checksum is sealed over
// the intended bytes before the disk sees them — a write the disk tears
// or rots therefore lands under a stale checksum and is detected on the
// next read, never silently returned.
func (p *Pager) writeBack(f *frame) error {
	buf := make([]byte, p.pageSize)
	copy(buf, f.data)
	sum := Checksum(buf)
	if err := p.disk.WritePage(f.id, buf, sum); err != nil {
		return err
	}
	p.stats.Writes++
	f.dirty = false
	return nil
}
