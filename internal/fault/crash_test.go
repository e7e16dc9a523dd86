package fault

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
	"spatialanon/internal/wal"
)

// Both injectors wrap the page disk and the log file of a store.
var (
	_ pager.Disk = (*disk)(nil)
	_ pager.File = (*logFile)(nil)
	_            = wal.Options{PagerFault: (*Crash)(nil).Disk, AppendFault: (*Crash)(nil).Log}
	_            = wal.Options{PagerFault: (*Injector)(nil).Disk, AppendFault: (*Injector)(nil).Log}
)

// memDisk returns a page disk of the given page size on an in-memory
// file.
func memDisk(t *testing.T, pageSize int) pager.Disk {
	t.Helper()
	d, err := pager.CreateDiskFile(pager.NewMemFile(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// size returns the length of f.
func size(t *testing.T, f pager.File) int {
	t.Helper()
	n, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}
	return int(n)
}

func TestCrashFiresAtExactOp(t *testing.T) {
	c := &Crash{At: 3}
	log, d := c.Log(pager.NewMemFile()), c.Disk(memDisk(t, 1))
	// Ops 1 and 2 survive; op 3 dies.
	if n, err := log.Write(make([]byte, 100)); err != nil || n != 100 {
		t.Fatalf("op 1: wrote %d, err=%v", n, err)
	}
	if err := d.WritePage(7, []byte{1}, 0); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if err := log.Sync(); err != nil {
		t.Fatalf("sync while alive: %v", err)
	}
	if _, err := log.Write(make([]byte, 100)); !crashed(err) {
		t.Fatalf("op 3 did not crash: %v", err)
	}
	if c.Err() == nil {
		t.Fatal("Err() nil after crash")
	}
	// Everything after a crash fails, without advancing the clock.
	if err := d.WritePage(8, []byte{1}, 0); err == nil {
		t.Fatal("write after death succeeded")
	}
	if _, _, err := d.ReadPage(7); !crashed(err) {
		t.Fatalf("read after death: %v", err)
	}
	if n, err := log.Write(make([]byte, 10)); !crashed(err) || n != 0 {
		t.Fatalf("append after death: wrote %d, err=%v", n, err)
	}
	if err := log.Sync(); !crashed(err) {
		t.Fatalf("sync after death: %v", err)
	}
	if err := log.Truncate(0); !crashed(err) || size(t, log) != 100 {
		t.Fatalf("truncate after death: %v, %d bytes left", err, size(t, log))
	}
	if c.Ops() != 3 {
		t.Fatalf("ops = %d, want 3", c.Ops())
	}
}

func TestCrashTornPersistsPrefix(t *testing.T) {
	cases := []struct {
		torn float64
		want int
	}{
		{0, 0},
		{0.5, 40},
		{1, 80},
	}
	for _, tc := range cases {
		c := &Crash{At: 1, Torn: tc.torn}
		f := pager.NewMemFile()
		n, err := c.Log(f).Write(make([]byte, 80))
		if !crashed(err) {
			t.Fatalf("torn=%v: did not crash: %v", tc.torn, err)
		}
		if n != tc.want || size(t, f) != tc.want {
			t.Errorf("torn=%v: wrote %d, persisted %d, want %d", tc.torn, n, size(t, f), tc.want)
		}
	}
}

func TestCrashDisabledCountsOps(t *testing.T) {
	c := &Crash{}
	log, d := c.Log(pager.NewMemFile()), c.Disk(memDisk(t, 1))
	for i := 0; i < 5; i++ {
		if _, err := log.Write(make([]byte, 10)); err != nil {
			t.Fatal("disabled crash point fired")
		}
		if err := d.WritePage(1, []byte{1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.Ops() != 10 {
		t.Fatalf("ops = %d, want 10", c.Ops())
	}
	if c.Err() != nil {
		t.Fatalf("Err() = %v on disabled point", c.Err())
	}
}

// crashed reports whether err is, or wraps, a fired crash point.
func crashed(err error) bool { return errors.As(err, new(*CrashError)) }

func TestCrashErrorClassification(t *testing.T) {
	err := fmt.Errorf("append: %w", &CrashError{Op: 4})
	if !crashed(err) {
		t.Error("wrapped CrashError not detected by errors.As")
	}
	if retry.IsTransient(err) {
		t.Error("crash must not be retryable")
	}
	if crashed(errors.New("plain")) {
		t.Error("plain error detected as crash")
	}
	if crashed(nil) {
		t.Error("nil detected as crash")
	}
}

// TestInjectedLogWrites: a failed log write lands a prefix of its bytes
// and returns the typed error; a failed fsync returns its error. Every
// write and every fsync is one operation of the schedule.
func TestInjectedLogWrites(t *testing.T) {
	in := NewInjector(9, Config{TransientWriteRate: 1, TransientSyncRate: 1, After: 2})
	f := pager.NewMemFile()
	log := in.Log(f)
	if _, err := log.Write(make([]byte, 50)); err != nil {
		t.Fatalf("write before After: %v", err)
	}
	if err := log.Sync(); err != nil {
		t.Fatalf("sync before After: %v", err)
	}
	n, err := log.Write(make([]byte, 50))
	var fe *Error
	if !errors.As(err, &fe) || fe.Op != "append" || !retry.IsTransient(err) {
		t.Fatalf("armed write returned %v", err)
	}
	if size(t, f) != 50+n || n > 50 {
		t.Fatalf("failed write landed %d bytes, reported %d", size(t, f)-50, n)
	}
	if err := log.Sync(); !errors.As(err, &fe) || fe.Op != "sync" {
		t.Fatalf("armed sync returned %v", err)
	}
	if in.Ops() != 4 || in.Injected() != 2 {
		t.Fatalf("ops=%d injected=%d, want 4 and 2", in.Ops(), in.Injected())
	}
}

// TestAtRestAndPassThroughDrawNothing: under a pager, FlipBit,
// VerifyPages and Scrub read beneath an injector's disk, and FreePage,
// IDs, MaxID, Sync and Close pass through it; none of them is an
// operation of the schedule.
func TestAtRestAndPassThroughDrawNothing(t *testing.T) {
	in := NewInjector(1, Config{TransientReadRate: 1, BitRotRate: 1, After: 2})
	c := &Crash{At: 2}
	for _, tc := range []struct {
		name string
		wrap func(pager.Disk) pager.Disk
		ops  func() int
	}{
		{"injector", in.Disk, in.Ops},
		{"crash", c.Disk, c.Ops},
	} {
		d := tc.wrap(memDisk(t, 16))
		p, err := pager.NewWithDisk(16, 2, d)
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(id)
		if err := p.Flush(); err != nil {
			t.Fatalf("%s: flush: %v", tc.name, err)
		}
		before := tc.ops()
		if err := p.FlipBit(id, 3); err != nil {
			t.Fatalf("%s: FlipBit: %v", tc.name, err)
		}
		if _, corrupt, err := p.VerifyPages(); err != nil || len(corrupt) != 1 {
			t.Fatalf("%s: VerifyPages found %v (err %v), want the flipped page", tc.name, corrupt, err)
		}
		if repaired, err := p.Scrub(); err != nil || len(repaired) != 1 {
			t.Fatalf("%s: Scrub repaired %v (err %v), want the flipped page", tc.name, repaired, err)
		}
		if _, err := d.IDs(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.MaxID(); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
		if ok, err := d.FreePage(id); !ok || err != nil {
			t.Fatalf("%s: FreePage = %v, %v", tc.name, ok, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if got := tc.ops(); got != before {
			t.Fatalf("%s: %d operations after the flush, want %d", tc.name, got, before)
		}
	}
}
