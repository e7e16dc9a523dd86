package fault

import (
	"errors"
	"fmt"
	"testing"

	"spatialanon/internal/retry"
	"spatialanon/internal/wal"
)

// Crash is consumed by the log writer through its one fault hook.
var _ wal.AppendFault = (*Crash)(nil)

func TestCrashFiresAtExactOp(t *testing.T) {
	c := &Crash{At: 3}
	// Ops 1 and 2 survive; op 3 dies.
	if n, err := c.WriteAttempt(100); err != nil || n != 0 {
		t.Fatalf("op 1: tear=%d err=%v", n, err)
	}
	if err := c.BeforeWrite(7); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if err := c.SyncAttempt(); err != nil {
		t.Fatalf("sync while alive: %v", err)
	}
	if _, err := c.WriteAttempt(100); !wal.IsCrash(err) {
		t.Fatalf("op 3 did not crash: %v", err)
	}
	if c.Err() == nil {
		t.Fatal("Err() nil after crash")
	}
	// Everything after a crash fails, without advancing the clock.
	if err := c.BeforeWrite(8); err == nil {
		t.Fatal("write after death succeeded")
	}
	if err := c.BeforeRead(8); err == nil {
		t.Fatal("read after death succeeded")
	}
	if n, err := c.WriteAttempt(10); !wal.IsCrash(err) || n != 0 {
		t.Fatalf("append after death: tear=%d err=%v", n, err)
	}
	if err := c.SyncAttempt(); !wal.IsCrash(err) {
		t.Fatalf("sync after death: %v", err)
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
		n, err := c.WriteAttempt(80)
		if !wal.IsCrash(err) {
			t.Fatalf("torn=%v: did not crash: %v", tc.torn, err)
		}
		if n != tc.want {
			t.Errorf("torn=%v: persist=%d, want %d", tc.torn, n, tc.want)
		}
	}
}

func TestCrashDisabledCountsOps(t *testing.T) {
	c := &Crash{}
	for i := 0; i < 5; i++ {
		if _, err := c.WriteAttempt(10); err != nil {
			t.Fatal("disabled crash point fired")
		}
		if err := c.BeforeWrite(1); err != nil {
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

func TestCrashErrorClassification(t *testing.T) {
	err := fmt.Errorf("append: %w", &CrashError{Op: 4})
	if !wal.IsCrash(err) {
		t.Error("wrapped CrashError not detected by IsCrash")
	}
	if retry.IsTransient(err) {
		t.Error("crash must not be retryable")
	}
	if wal.IsCrash(errors.New("plain")) {
		t.Error("plain error detected as crash")
	}
	if wal.IsCrash(nil) {
		t.Error("nil detected as crash")
	}
}
