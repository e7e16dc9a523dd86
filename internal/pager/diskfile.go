package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// DiskFile is the page Disk: sealed pages in one flat File. Over an
// *os.File the pages survive process death — the store's checkpoint pages
// (internal/wal); over NewMemFile it is the I/O-counting disk of New and
// the bulk loader.
//
// Layout: a 16-byte header (magic, format version, page size), then
// fixed-width slots, one per PageID starting at 1. Each slot is
//
//	[state byte: 0 free, 1 used][checksum uint32 LE][payload pageSize bytes]
//
// The checksum stored in the slot is the seal the pager computed at
// write-back; DiskFile never re-checksums, so damage to the file —
// torn slot writes, bit rot, truncation inside a payload — surfaces on
// the next ReadPage exactly like injected faults: as a *CorruptError
// from the pager. A slot whose state byte never reached disk reads as
// free, i.e. an unknown page, which the recovery path treats as an
// incomplete checkpoint.
type DiskFile struct {
	f        File
	pageSize int
	used     map[PageID]bool
	maxID    PageID
	// slot is the one buffer every ReadPage and WritePage stages its
	// slot in. ReadPage returns a slice of it — the Disk contract lets
	// the result alias backend storage, and the pager copies it — so it
	// is valid only until the next call.
	slot []byte
}

const (
	diskFileMagic   = "SPGD"
	diskFileVersion = 1
	diskHeaderSize  = 16
)

// CreateDiskFile writes a page file for the given page size into f, which
// must be empty. On error f is closed.
func CreateDiskFile(f File, pageSize int) (*DiskFile, error) {
	if pageSize <= 0 {
		f.Close()
		return nil, fmt.Errorf("pager: page size %d must be positive", pageSize)
	}
	var hdr [diskHeaderSize]byte
	copy(hdr[:4], diskFileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], diskFileVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(pageSize))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, err
	}
	return newDiskFile(f, pageSize), nil
}

func newDiskFile(f File, pageSize int) *DiskFile {
	return &DiskFile{f: f, pageSize: pageSize, used: make(map[PageID]bool), slot: make([]byte, 1+4+pageSize)}
}

// OpenDiskFile opens the page file in f, validating its header and
// scanning the slots to rebuild the set of stored pages. The page size
// is read from the header; wantPageSize, when nonzero, must match it. On
// error f is closed.
func OpenDiskFile(f File, wantPageSize int) (_ *DiskFile, err error) {
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	var hdr [diskHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("pager: short page file header: %w", err)
	}
	if string(hdr[:4]) != diskFileMagic {
		return nil, errors.New("pager: not a page file")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != diskFileVersion {
		return nil, fmt.Errorf("pager: unsupported page file version %d", v)
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if pageSize <= 0 {
		return nil, fmt.Errorf("pager: page file of invalid page size %d", pageSize)
	}
	if wantPageSize != 0 && wantPageSize != pageSize {
		return nil, fmt.Errorf("pager: page file of page size %d, want %d", pageSize, wantPageSize)
	}
	d := newDiskFile(f, pageSize)
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	state := d.slot[:1]
	for id := PageID(1); d.slotOffset(id) < size; id++ {
		if _, err := f.ReadAt(state, d.slotOffset(id)); err != nil {
			return nil, fmt.Errorf("pager: scanning slot %d: %w", id, err)
		}
		// A slot that exists in the file but holds a truncated payload
		// still scans as used; the truncated tail reads as zero bytes
		// under the sealed checksum and fails verification on ReadPage.
		if state[0] == 1 {
			d.used[id] = true
		}
		if id > d.maxID {
			d.maxID = id
		}
	}
	return d, nil
}

// slotSize is the on-disk footprint of one page slot.
func (d *DiskFile) slotSize() int64 { return int64(1 + 4 + d.pageSize) }

// slotOffset is the file offset of the slot for id.
func (d *DiskFile) slotOffset(id PageID) int64 {
	return diskHeaderSize + int64(id-1)*d.slotSize()
}

// PageSize returns the page size recorded in the file header.
func (d *DiskFile) PageSize() int { return d.pageSize }

// ReadPage implements Disk. The returned payload aliases the file's
// slot buffer: it is overwritten by the next ReadPage or WritePage.
func (d *DiskFile) ReadPage(id PageID) ([]byte, uint32, error) {
	if id < 1 || !d.used[id] {
		return nil, 0, fmt.Errorf("%w: page %d", ErrUnknownPage, id)
	}
	buf := d.slot
	n, err := d.f.ReadAt(buf, d.slotOffset(id))
	if err != nil && err != io.EOF {
		return nil, 0, fmt.Errorf("pager: reading page %d: %w", id, err)
	}
	// A short read (file truncated inside the slot) leaves the payload
	// tail zeroed; the sealed checksum then fails upstream, which is the
	// correct surfacing of a torn page — never an invented success.
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	sum := binary.LittleEndian.Uint32(buf[1:5])
	return buf[5:], sum, nil
}

// WritePage implements Disk.
func (d *DiskFile) WritePage(id PageID, data []byte, sum uint32) error {
	if id < 1 {
		return fmt.Errorf("pager: write of invalid page %d", id)
	}
	if len(data) != d.pageSize {
		return fmt.Errorf("pager: write of %d bytes to page %d, page size %d", len(data), id, d.pageSize)
	}
	buf := d.slot
	buf[0] = 1
	binary.LittleEndian.PutUint32(buf[1:5], sum)
	copy(buf[5:], data)
	if _, err := d.f.WriteAt(buf, d.slotOffset(id)); err != nil {
		return fmt.Errorf("pager: writing page %d: %w", id, err)
	}
	d.used[id] = true
	if id > d.maxID {
		d.maxID = id
	}
	return nil
}

// FreePage implements Disk. The slot's state byte is cleared in place;
// the payload bytes are left behind, exactly like a real filesystem's
// freed blocks.
func (d *DiskFile) FreePage(id PageID) (bool, error) {
	if id < 1 || !d.used[id] {
		return false, nil
	}
	d.slot[0] = 0
	if _, err := d.f.WriteAt(d.slot[:1], d.slotOffset(id)); err != nil {
		return false, fmt.Errorf("pager: freeing page %d: %w", id, err)
	}
	delete(d.used, id)
	return true, nil
}

// IDs implements Disk.
func (d *DiskFile) IDs() ([]PageID, error) {
	ids := make([]PageID, 0, len(d.used))
	for id := range d.used {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// MaxID implements Disk.
func (d *DiskFile) MaxID() (PageID, error) { return d.maxID, nil }

// Sync implements Disk: fsync the page file.
func (d *DiskFile) Sync() error { return d.f.Sync() }

// Close implements Disk.
func (d *DiskFile) Close() error { return d.f.Close() }
