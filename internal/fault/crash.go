package fault

import (
	"fmt"

	"spatialanon/internal/pager"
)

// CrashError is the typed error a Crash point returns once it fires.
// It models process death at a precise point in the durable-operation
// sequence: unlike the taxonomy in Error, a crash is neither retryable
// nor page-scoped — every operation on the crashed files after the crash
// point fails too, because the process is "dead".
type CrashError struct {
	// Op counts durable operations at the moment of death, so a failure
	// report can name the exact crash point that produced it.
	Op int
}

// Error implements error.
func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: simulated crash at durable op %d", e.Op)
}

// Crash is a deterministic crash-point injector. It counts durable
// operations — log writes and page write-backs share one clock — and
// kills the process simulation at the Nth one. Once fired, it stays
// fired: every later operation through either wrapper fails with the
// same CrashError, which is what distinguishes a crash from the
// recoverable faults of an Injector. To share the clock, one Crash
// wraps both the page disk (Disk) and the log (Log); to the log writer
// a crash is one more failed write, and its rollback fails too.
//
// A crash can also be *torn*: the fatal log write persists only a
// prefix of its frame, modelling a power cut mid-write. The chaos
// harness uses this to assert that recovery treats a torn tail as
// "not committed" rather than as corruption. It is not safe for
// concurrent use.
type Crash struct {
	// At is the 1-based ordinal of the durable operation that dies.
	// Zero disables the crash point entirely (useful for counting a
	// workload's total durable operations with Ops).
	At int
	// Torn, in [0,1], applies only when the fatal operation is a log
	// write: the fraction of the final frame that still reaches disk.
	// 0 means the frame vanishes entirely.
	Torn float64

	ops  int
	dead error // the *CrashError, once fired
}

// Ops returns the number of durable operations so far.
func (c *Crash) Ops() int { return c.ops }

// durableOp advances the crash clock by one durable operation and
// reports whether this is the one that dies. A dead process performs
// no further operations, so the clock stops at the fatal ordinal.
func (c *Crash) durableOp() (fatal bool) {
	if c.dead != nil {
		return false
	}
	c.ops++
	if c.ops == c.At {
		c.dead = &CrashError{Op: c.ops}
		return true
	}
	return false
}

// Disk returns d behind the crash point. Each page write is one durable
// operation on the shared clock. Reads are not durable operations — they
// do not advance the clock — but a dead process cannot read either.
func (c *Crash) Disk(d pager.Disk) pager.Disk {
	return &disk{Disk: d, onRead: c.read, onWrite: c.write}
}

// Log returns f behind the crash point. Each log write is one durable
// operation; the fatal one lands ⌊Torn·len⌋ of its bytes, every later
// one nothing. An fsync or a truncate is not a durable operation of its
// own, but a dead process can do neither.
func (c *Crash) Log(f pager.File) pager.File {
	return &logFile{File: f, onWrite: c.logWrite, onSync: c.Err, onTruncate: c.Err}
}

func (c *Crash) read(pager.PageID) error { return c.dead }

func (c *Crash) write(pager.PageID, []byte) error {
	c.durableOp()
	return c.dead
}

func (c *Crash) logWrite(n int) (tear int, err error) {
	if c.durableOp() {
		return min(int(c.Torn*float64(n)), n), c.dead
	}
	return 0, c.dead
}

// Err returns the CrashError if the crash point has fired, else nil.
func (c *Crash) Err() error { return c.dead }
