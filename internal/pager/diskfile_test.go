package pager

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var _ File = (*os.File)(nil)

// onEachFile runs body once per medium a DiskFile runs on: a real file
// and NewMemFile. open returns a handle on the test's one file — empty at
// first, holding what earlier handles wrote once they are closed.
func onEachFile(t *testing.T, body func(t *testing.T, open func() File)) {
	t.Run("os", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "pages.db")
		body(t, func() File {
			f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		})
	})
	t.Run("mem", func(t *testing.T) {
		f := NewMemFile()
		body(t, func() File { return f })
	})
}

func newFilePager(t *testing.T, f File, pageSize, pool int) *Pager {
	t.Helper()
	d, err := CreateDiskFile(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWithDisk(pageSize, pool, d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// reopenPager opens the page file in f behind a fresh pager.
func reopenPager(t *testing.T, f File, wantPageSize, pool int) *Pager {
	t.Helper()
	d, err := OpenDiskFile(f, wantPageSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWithDisk(d.PageSize(), pool, d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fileSize returns the length of f.
func fileSize(t *testing.T, f File) int64 {
	t.Helper()
	n, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDiskFilePersistsAcrossReopen(t *testing.T) {
	onEachFile(t, func(t *testing.T, open func() File) {
		p := newFilePager(t, open(), 32, 4)
		var ids []PageID
		for i := 0; i < 6; i++ {
			id, data, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			data[0] = byte('A' + i)
			p.Unpin(id)
			ids = append(ids, id)
		}
		// Free one page so the reopen sees a hole.
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := p.Free(ids[2]); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}

		p2 := reopenPager(t, open(), 32, 4)
		got, err := p2.DiskPages()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Fatalf("reopened disk has %d pages, want 5: %v", len(got), got)
		}
		for i, id := range ids {
			if i == 2 {
				if _, err := p2.Read(id); !errors.Is(err, ErrUnknownPage) {
					t.Fatalf("freed page %d: err = %v, want ErrUnknownPage", id, err)
				}
				continue
			}
			data, err := p2.Read(id)
			if err != nil {
				t.Fatalf("page %d: %v", id, err)
			}
			if data[0] != byte('A'+i) {
				t.Fatalf("page %d payload = %q, want %q", id, data[0], byte('A'+i))
			}
			p2.Unpin(id)
		}
		// Allocation resumes past the persisted IDs.
		id, _, err := p2.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if id <= ids[len(ids)-1] {
			t.Fatalf("new page %d not past persisted max %d", id, ids[len(ids)-1])
		}
		p2.Unpin(id)
		if err := p2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDiskFileDetectsOnDiskDamage(t *testing.T) {
	onEachFile(t, func(t *testing.T, open func() File) {
		p := newFilePager(t, open(), 32, 2)
		id, data, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		copy(data, []byte("hello"))
		p.Unpin(id)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}

		// Flip the last payload byte directly in the file, behind the
		// pager's back.
		f := open()
		last := make([]byte, 1)
		end := fileSize(t, f) - 1
		if _, err := f.ReadAt(last, end); err != nil {
			t.Fatal(err)
		}
		last[0] ^= 0xff
		if _, err := f.WriteAt(last, end); err != nil {
			t.Fatal(err)
		}

		p2 := reopenPager(t, f, 0, 2) // page size from header
		if p2.PageSize() != 32 {
			t.Fatalf("header page size = %d", p2.PageSize())
		}
		var ce *CorruptError
		if _, err := p2.Read(id); !errors.As(err, &ce) {
			t.Fatalf("read of damaged page: %v, want CorruptError", err)
		}
		// Scrub accepts the bytes as truth; the page reads again.
		repaired, err := p2.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if len(repaired) != 1 || repaired[0] != id {
			t.Fatalf("scrub repaired %v", repaired)
		}
		if _, err := p2.Read(id); err != nil {
			t.Fatal(err)
		}
		p2.Unpin(id)
		p2.Close()
	})
}

func TestDiskFileTruncatedSlotSurfacesAsCorrupt(t *testing.T) {
	onEachFile(t, func(t *testing.T, open func() File) {
		p := newFilePager(t, open(), 64, 2)
		id, data, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = 0xAB
		}
		p.Unpin(id)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		// Tear the slot: keep the state byte and checksum but cut the
		// payload tail, as a crash mid-write would.
		f := open()
		if err := f.Truncate(fileSize(t, f) - 20); err != nil {
			t.Fatal(err)
		}
		p2 := reopenPager(t, f, 64, 2)
		var ce *CorruptError
		if _, err := p2.Read(id); !errors.As(err, &ce) {
			t.Fatalf("read of torn page: %v, want CorruptError", err)
		}
		p2.Close()
	})
}

func TestOpenDiskFileRejectsGarbage(t *testing.T) {
	onEachFile(t, func(t *testing.T, open func() File) {
		if _, err := OpenDiskFile(open(), 0); err == nil {
			t.Fatal("empty file accepted as page file")
		}
		if _, err := open().WriteAt([]byte("hello world, definitely not pages"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDiskFile(open(), 0); err == nil {
			t.Fatal("garbage file accepted as page file")
		}
	})
}

// TestFlushAttemptsEveryPage asserts the joined-error contract: a
// failing write-back does not stop the flush, every dirty page is
// attempted, and the error names each failed page.
func TestFlushAttemptsEveryPage(t *testing.T) {
	errBoom := errors.New("boom")
	p, sf := newScripted(t, 16, 8)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
		ids = append(ids, id)
	}
	// Fail write-backs 1 and 3 (PageID order): pages 1 and 3 stay dirty,
	// pages 2 and 4 reach disk.
	sf.script(scriptedFaults{failWrites: map[int]error{1: errBoom, 3: errBoom}})
	err := p.Flush()
	if err == nil {
		t.Fatal("flush with two failing pages returned nil")
	}
	if !errors.Is(err, errBoom) {
		t.Fatalf("joined error loses cause: %v", err)
	}
	for _, id := range []PageID{ids[0], ids[2]} {
		if want := "page " + string('0'+byte(id)); !containsStr(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// The two pages that did write are clean: a retry flush (faults
	// cleared) writes exactly the two that failed.
	sf.script(scriptedFaults{})
	before := p.Stats().Writes
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Writes - before; got != 2 {
		t.Fatalf("retry flush wrote %d pages, want 2", got)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestReuseFreedHandsOutLowestFirst: with slot reuse on, Alloc returns
// freed IDs lowest first before minting new ones, the free set survives
// a reopen through the slot scan, a double Free cannot duplicate an ID,
// and a file whose owner frees as much as it allocates stops growing.
// Without ReuseFreed nothing is ever reused.
func TestReuseFreedHandsOutLowestFirst(t *testing.T) {
	alloc := func(p *Pager) PageID {
		t.Helper()
		id, _, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin(id); err != nil {
			t.Fatal(err)
		}
		return id
	}
	onEachFile(t, func(t *testing.T, open func() File) {
		p := newFilePager(t, open(), 32, 4)
		if err := p.ReuseFreed(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 8; i++ {
			if id := alloc(p); id != PageID(i) {
				t.Fatalf("fresh alloc %d returned page %d", i, id)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, id := range []PageID{6, 2, 4, 2} { // 2 twice: a double free
			if err := p.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		if id := alloc(p); id != 2 {
			t.Fatalf("first reuse returned page %d, want 2", id)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen: pages 4 and 6 are free slots below the highest stored ID.
		p2 := reopenPager(t, open(), 32, 4)
		if err := p2.ReuseFreed(); err != nil {
			t.Fatal(err)
		}
		for _, want := range []PageID{4, 6, 9} {
			if id := alloc(p2); id != want {
				t.Fatalf("after reopen alloc returned page %d, want %d", id, want)
			}
		}
		// Stationary churn: free three, allocate three, many times over.
		if err := p2.Flush(); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 50; round++ {
			for _, id := range []PageID{3, 5, 7} {
				if err := p2.Free(id); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				alloc(p2)
			}
			if err := p2.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := p2.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := fileSize(t, open()), int64(diskHeaderSize+9*(1+4+32)); got != want {
			t.Fatalf("page file is %d bytes after stationary churn, want the 9 slots' %d", got, want)
		}
	})

	// The default stays never-reuse: fault schedules and I/O counts of
	// the bulk loader's pagers are pinned on it.
	plain := newFilePager(t, NewMemFile(), 32, 4)
	first := alloc(plain)
	if err := plain.Free(first); err != nil {
		t.Fatal(err)
	}
	if id := alloc(plain); id == first {
		t.Fatalf("pager without ReuseFreed handed page %d out again", id)
	}
	plain.Close()
}

// TestDiskFileReadAliasesSlotBuffer pins the Disk contract DiskFile now
// leans on: a ReadPage result is only valid until the next call, and
// the pager's own reads are unaffected because it copies.
func TestDiskFileReadAliasesSlotBuffer(t *testing.T) {
	onEachFile(t, func(t *testing.T, open func() File) {
		p := newFilePager(t, open(), 16, 1)
		var ids []PageID
		for i := 0; i < 3; i++ {
			id, data, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			data[0] = byte('a' + i)
			p.Unpin(id)
			ids = append(ids, id)
		}
		// A one-page pool: every Read evicts (writes back) the previous
		// page and reads the next through the same slot buffer.
		var seen []byte
		var held [][]byte
		for _, id := range ids {
			data, err := p.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, data)
			seen = append(seen, data[0])
			p.Unpin(id)
		}
		if string(seen) != "abc" {
			t.Fatalf("read back %q, want abc", seen)
		}
		for i, data := range held {
			if data[0] != byte('a'+i) {
				t.Fatalf("pool frame %d was overwritten by a later disk read: %q", i, data[0])
			}
		}
		p.Close()
	})
}
