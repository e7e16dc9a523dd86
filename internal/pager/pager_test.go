package pager

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func mustNew(t *testing.T, pageSize, poolPages int) *Pager {
	t.Helper()
	p, err := New(pageSize, poolPages)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAllocReadRoundTrip(t *testing.T) {
	p := mustNew(t, 64, 4)
	id, data, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 64 {
		t.Fatalf("page size %d", len(data))
	}
	copy(data, []byte("hello"))
	if err := p.MarkDirty(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(id); err != nil {
		t.Fatal(err)
	}
	got, err := p.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "hello" {
		t.Fatalf("page contents %q", got[:5])
	}
	if err := p.Unpin(id); err != nil {
		t.Fatal(err)
	}
	// Still resident: no disk reads should have happened.
	if s := p.Stats(); s.Reads != 0 || s.Allocs != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEvictionWritesBackAndReloads(t *testing.T) {
	p := mustNew(t, 16, 2)
	var ids []PageID
	for i := 0; i < 5; i++ {
		id, data, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(data, uint64(i+100))
		if err := p.Unpin(id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Pool holds 2 pages; 3 allocations must have evicted dirty pages.
	if w := p.Stats().Writes; w < 3 {
		t.Fatalf("expected >=3 write-backs, got %d", w)
	}
	for i, id := range ids {
		data, err := p.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(data); got != uint64(i+100) {
			t.Fatalf("page %d contents %d, want %d", id, got, i+100)
		}
		if err := p.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
	if r := p.Stats().Reads; r < 3 {
		t.Fatalf("expected re-reads after eviction, got %d", r)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	p := mustNew(t, 16, 2)
	id1, _, _ := p.Alloc() // stays pinned
	id2, _, _ := p.Alloc() // stays pinned
	if _, _, err := p.Alloc(); err == nil {
		t.Fatal("third alloc should fail: pool exhausted by pins")
	}
	p.Unpin(id2)
	id3, _, err := p.Alloc()
	if err != nil {
		t.Fatalf("alloc after unpin: %v", err)
	}
	p.Unpin(id3)
	// The pinned page is still in the pool (reading it is a hit); the
	// unpinned one was the eviction victim (reading it goes to disk).
	before := p.Stats()
	if _, err := p.Read(id1); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Hits != before.Hits+1 || s.Reads != before.Reads {
		t.Fatal("pinned page was evicted")
	}
	if _, err := p.Read(id2); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Reads != before.Reads+1 {
		t.Fatal("unpinned page survived eviction pressure")
	}
	p.Unpin(id1)
	p.Unpin(id1)
	p.Unpin(id2)
}

func TestUnpinErrors(t *testing.T) {
	p := mustNew(t, 16, 2)
	id, _, _ := p.Alloc()
	p.Unpin(id)
	if err := p.Unpin(id); err == nil {
		t.Fatal("double Unpin accepted")
	}
	if err := p.Unpin(PageID(999)); err == nil {
		t.Fatal("Unpin of unknown page accepted")
	}
	if err := p.MarkDirty(PageID(999)); err == nil {
		t.Fatal("MarkDirty of non-resident page accepted")
	}
}

func TestReadUnknownPage(t *testing.T) {
	p := mustNew(t, 16, 2)
	if _, err := p.Read(PageID(42)); err == nil {
		t.Fatal("read of unallocated page accepted")
	}
}

func TestFree(t *testing.T) {
	p := mustNew(t, 16, 2)
	id, _, _ := p.Alloc()
	if err := p.Free(id); err == nil {
		t.Fatal("free of pinned page accepted")
	}
	p.Unpin(id)
	if err := p.Free(id); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(id); err == nil {
		t.Fatal("read of freed page accepted")
	}
	if p.Stats().Frees != 1 {
		t.Fatalf("frees = %d", p.Stats().Frees)
	}
}

func TestFlush(t *testing.T) {
	p := mustNew(t, 16, 4)
	id, data, _ := p.Alloc()
	copy(data, []byte("x"))
	p.Unpin(id)
	before := p.Stats().Writes
	p.Flush()
	if p.Stats().Writes != before+1 {
		t.Fatalf("flush wrote %d pages", p.Stats().Writes-before)
	}
	// Second flush: nothing dirty.
	before = p.Stats().Writes
	p.Flush()
	if p.Stats().Writes != before {
		t.Fatal("flush of clean pool performed writes")
	}
}

func TestResetStats(t *testing.T) {
	p := mustNew(t, 16, 2)
	id, _, _ := p.Alloc()
	p.Unpin(id)
	p.Flush()
	p.ResetStats()
	if s := p.Stats(); s != (Stats{}) {
		t.Fatalf("stats after reset: %+v", s)
	}
	// Contents survive a stats reset.
	if _, err := p.Read(id); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id)
}

func TestBadConfigErrors(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("zero page size accepted")
	}
	if _, err := New(-8, 1); err == nil {
		t.Fatal("negative page size accepted")
	}
	if _, err := New(16, 0); err == nil {
		t.Fatal("empty pool accepted")
	}
}

// Property: under random workloads, data written is always data read
// back, and I/O never exceeds one read plus one write per access.
func TestRandomizedWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := mustNew(t, 32, 3)
	contents := map[PageID]byte{}
	var ids []PageID
	accesses := int64(0)
	for i := 0; i < 2000; i++ {
		switch op := rng.Intn(10); {
		case op < 3 || len(ids) == 0:
			id, data, err := p.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			b := byte(rng.Intn(256))
			data[0] = b
			p.MarkDirty(id)
			p.Unpin(id)
			contents[id] = b
			ids = append(ids, id)
			accesses++
		case op < 8: // read and verify
			id := ids[rng.Intn(len(ids))]
			data, err := p.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != contents[id] {
				t.Fatalf("page %d holds %d, want %d", id, data[0], contents[id])
			}
			p.Unpin(id)
			accesses++
		default: // overwrite
			id := ids[rng.Intn(len(ids))]
			data, err := p.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			b := byte(rng.Intn(256))
			data[0] = b
			p.MarkDirty(id)
			p.Unpin(id)
			contents[id] = b
			accesses++
		}
	}
	if st := p.Stats(); st.Reads+st.Writes > 2*accesses {
		t.Fatalf("I/O %d exceeds 2 per access (%d accesses)", st.Reads+st.Writes, accesses)
	}
}

// Property: a larger pool never performs more I/O on the same trace —
// the monotonicity Figure 8(b) depends on (LRU has no Belady anomaly).
func TestPoolSizeMonotonicity(t *testing.T) {
	trace := func(pool int) int64 {
		rng := rand.New(rand.NewSource(9))
		p := mustNew(t, 32, pool)
		var ids []PageID
		for i := 0; i < 50; i++ {
			id, _, _ := p.Alloc()
			p.Unpin(id)
			ids = append(ids, id)
		}
		for i := 0; i < 3000; i++ {
			// Skewed access pattern with locality.
			idx := rng.Intn(len(ids))
			if rng.Float64() < 0.7 {
				idx = rng.Intn(10)
			}
			data, err := p.Read(ids[idx])
			if err != nil {
				t.Fatal(err)
			}
			if rng.Float64() < 0.3 {
				data[0]++
				p.MarkDirty(ids[idx])
			}
			p.Unpin(ids[idx])
		}
		p.Flush()
		st := p.Stats()
		return st.Reads + st.Writes
	}
	prev := trace(2)
	for _, pool := range []int{4, 8, 16, 32, 64} {
		cur := trace(pool)
		if cur > prev {
			t.Fatalf("pool %d did more I/O (%d) than smaller pool (%d)", pool, cur, prev)
		}
		prev = cur
	}
}

// evictAll forces every unpinned page out of the pool so the next Read
// goes to disk (and through checksum verification).
func evictAll(t *testing.T, p *Pager) {
	t.Helper()
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fill the pool with throwaway pinned-then-unpinned pages until the
	// originals are gone.
	for i := 0; i < 2*p.PoolPages(); i++ {
		id, _, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin(id); err != nil {
			t.Fatal(err)
		}
	}
}

// The acceptance check of the robustness issue: a flipped bit in any
// page is detected on the next read and reported as a typed corruption
// error.
func TestFlippedBitDetectedOnRead(t *testing.T) {
	p := mustNew(t, 32, 2)
	id, data, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte("payload"))
	p.MarkDirty(id)
	p.Unpin(id)
	evictAll(t, p)

	for bit := 0; bit < 32*8; bit += 37 { // a spread of bit positions
		if err := p.FlipBit(id, bit); err != nil {
			t.Fatal(err)
		}
		_, err := p.Read(id)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("bit %d: read returned %v, want *CorruptError", bit, err)
		}
		if ce.Page != id || ce.Want == ce.Got {
			t.Fatalf("bit %d: bad corruption report %+v", bit, ce)
		}
		// Flip it back: the page must verify again.
		if err := p.FlipBit(id, bit); err != nil {
			t.Fatal(err)
		}
		got, err := p.Read(id)
		if err != nil {
			t.Fatalf("bit %d: repaired page unreadable: %v", bit, err)
		}
		if string(got[:7]) != "payload" {
			t.Fatalf("bit %d: contents %q", bit, got[:7])
		}
		p.Unpin(id)
		evictAll(t, p)
	}
}

func TestFlipBitErrors(t *testing.T) {
	p := mustNew(t, 16, 2)
	if err := p.FlipBit(PageID(9), 0); err == nil {
		t.Fatal("FlipBit of unknown page accepted")
	}
	id, _, _ := p.Alloc()
	p.Unpin(id)
	if err := p.FlipBit(id, 0); err == nil {
		t.Fatal("FlipBit of never-written page accepted")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.FlipBit(id, 16*8); err == nil {
		t.Fatal("out-of-range bit accepted")
	}
	if err := p.FlipBit(id, -1); err == nil {
		t.Fatal("negative bit accepted")
	}
}

// TestFlipBitKeepsCause: a page the disk never stored and a disk that
// fails the read are different failures, and FlipBit says which.
func TestFlipBitKeepsCause(t *testing.T) {
	p, sf := newScripted(t, 16, 2)
	if err := p.FlipBit(PageID(9), 0); !errors.Is(err, ErrUnknownPage) {
		t.Fatalf("FlipBit of unknown page: %v, want ErrUnknownPage", err)
	}
	id, _, _ := p.Alloc()
	p.Unpin(id)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	errIO := errors.New("input/output error")
	sf.script(scriptedFaults{failReads: map[int]error{1: errIO}})
	if err := p.FlipBit(id, 0); !errors.Is(err, errIO) || errors.Is(err, ErrUnknownPage) {
		t.Fatalf("FlipBit over a failing read: %v, want the I/O error", err)
	}
}

func TestScrubRepairsCorruptPages(t *testing.T) {
	p := mustNew(t, 16, 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, data, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		data[0] = byte(i + 1)
		p.MarkDirty(id)
		p.Unpin(id)
		ids = append(ids, id)
	}
	evictAll(t, p)
	p.FlipBit(ids[0], 3)
	p.FlipBit(ids[2], 40)
	repaired, err := p.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != 2 || repaired[0] != ids[0] || repaired[1] != ids[2] {
		t.Fatalf("scrub repaired %v", repaired)
	}
	if again, err := p.Scrub(); err != nil || len(again) != 0 {
		t.Fatalf("second scrub repaired %v (err %v)", again, err)
	}
	for _, id := range ids {
		if _, err := p.Read(id); err != nil {
			t.Fatalf("page %d unreadable after scrub: %v", id, err)
		}
		p.Unpin(id)
	}
}

// scriptedFaults is a hand-rolled failing device for unit tests: a Disk
// wrapper that fails specific operation ordinals and can corrupt every
// write. Its scripts are set and cleared between steps of a test.
type scriptedFaults struct {
	Disk
	op         int
	failReads  map[int]error
	failWrites map[int]error
	corrupt    bool
}

func (s *scriptedFaults) ReadPage(id PageID) ([]byte, uint32, error) {
	s.op++
	if err := s.failReads[s.op]; err != nil {
		return nil, 0, err
	}
	return s.Disk.ReadPage(id)
}

func (s *scriptedFaults) WritePage(id PageID, data []byte, sum uint32) error {
	s.op++
	if err := s.failWrites[s.op]; err != nil {
		return err
	}
	if s.corrupt && len(data) > 0 {
		data[0] ^= 0xFF
	}
	return s.Disk.WritePage(id, data, sum)
}

// script replaces the device's script and restarts its operation count.
func (s *scriptedFaults) script(next scriptedFaults) {
	next.Disk = s.Disk
	*s = next
}

// newScripted returns a pager over a memory disk behind an (empty)
// scripted device.
func newScripted(t *testing.T, pageSize, poolPages int) (*Pager, *scriptedFaults) {
	t.Helper()
	d, err := CreateDiskFile(NewMemFile(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	sf := &scriptedFaults{Disk: d}
	p, err := NewWithDisk(pageSize, poolPages, sf)
	if err != nil {
		t.Fatal(err)
	}
	return p, sf
}

func TestFaultPolicyFailsOperations(t *testing.T) {
	errBoom := errors.New("boom")
	p, sf := newScripted(t, 16, 2)
	id, _, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(id)
	sf.script(scriptedFaults{failWrites: map[int]error{1: errBoom}})
	if err := p.Flush(); !errors.Is(err, errBoom) {
		t.Fatalf("flush error %v, want boom", err)
	}
	// Fault removed: the flush succeeds and the page is readable.
	sf.script(scriptedFaults{})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	evictAll(t, p)
	sf.script(scriptedFaults{failReads: map[int]error{1: errBoom}})
	if _, err := p.Read(id); !errors.Is(err, errBoom) {
		t.Fatalf("read error %v, want boom", err)
	}
	sf.script(scriptedFaults{})
	if _, err := p.Read(id); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id)
}

func TestCorruptWriteDetectedByChecksum(t *testing.T) {
	p, sf := newScripted(t, 16, 2)
	id, data, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte("abc"))
	p.MarkDirty(id)
	p.Unpin(id)
	sf.script(scriptedFaults{corrupt: true})
	if err := p.Flush(); err != nil {
		t.Fatal(err) // the torn write itself succeeds silently
	}
	sf.script(scriptedFaults{})
	evictAll(t, p)
	_, err = p.Read(id)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("read of torn page returned %v, want *CorruptError", err)
	}
}
