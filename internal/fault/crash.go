package fault

import (
	"fmt"

	"spatialanon/internal/pager"
)

// CrashError is the typed error a Crash point returns once it fires.
// It models process death at a precise point in the durable-operation
// sequence: unlike the taxonomy in Error, a crash is neither retryable
// nor page-scoped — every durable operation after the crash point fails
// too, because the process is "dead". The WAL detects it structurally
// via the Crashed() method (wal.IsCrash) so the two packages need not
// import each other.
type CrashError struct {
	// Op counts durable operations at the moment of death, so a failure
	// report can name the exact crash point that produced it.
	Op int
}

// Error implements error.
func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: simulated crash at durable op %d", e.Op)
}

// Crashed marks the error as a process-death simulation; the WAL layer
// matches on this method.
func (e *CrashError) Crashed() bool { return true }

// Crash is a deterministic crash-point injector. It counts durable
// operations — WAL frame appends and pager page write-backs share one
// clock, the embedded schedule's — and kills the process simulation at
// the Nth one. Once fired, it stays fired: every later durable
// operation fails with the same CrashError, which is what distinguishes
// a crash from the recoverable faults in Injector and Flaky.
//
// A crash can also be *torn*: the fatal WAL append persists only a
// prefix of its frame, modelling a power cut mid-write. The chaos
// harness uses this to assert that recovery treats a torn tail as
// "not committed" rather than as corruption.
//
// Crash implements pager.FaultPolicy for the write-back side and the
// log writer's wal.AppendFault hook (structurally) for the append side:
// to the writer a crash is one more attempt fault, told apart only by
// wal.IsCrash. It is not safe for concurrent use.
type Crash struct {
	// At is the 1-based ordinal of the durable operation that dies.
	// Zero disables the crash point entirely (useful for counting a
	// workload's total durable operations with Ops).
	At int
	// Torn, in [0,1], applies only when the fatal operation is a WAL
	// append: the fraction of the final frame that still reaches disk.
	// 0 means the frame vanishes entirely.
	Torn float64

	schedule
	dead error // the *CrashError, once fired
}

// durableOp advances the crash clock by one durable operation and
// reports whether this is the one that dies. A dead process performs
// no further operations, so the clock stops at the fatal ordinal.
func (c *Crash) durableOp() (fatal bool) {
	if c.dead != nil {
		return false
	}
	c.ops++
	// The literal &Crash{At: n} has no constructor to arm it: the
	// schedule's After threshold is At's 0-based twin.
	c.after = c.At - 1
	if c.At > 0 && c.armed() {
		c.dead = &CrashError{Op: c.ops}
		return true
	}
	return false
}

// WriteAttempt implements the log writer's append hook: each physical
// frame write is one durable operation. The fatal one reports how many
// bytes of the frame still land, ⌊Torn·frameLen⌋, with the crash
// error; every later attempt fails the same way with nothing landing.
func (c *Crash) WriteAttempt(frameLen int) (tear int, err error) {
	if c.durableOp() {
		return min(int(c.Torn*float64(frameLen)), frameLen), c.dead
	}
	return 0, c.dead
}

// SyncAttempt implements the log writer's fsync hook. An fsync is not
// a durable operation of its own — the append it follows already
// counted — but a dead process cannot sync either.
func (c *Crash) SyncAttempt() error { return c.dead }

// BeforeRead implements pager.FaultPolicy. Reads are not durable
// operations — they do not advance the crash clock — but a dead
// process cannot read either.
func (c *Crash) BeforeRead(id pager.PageID) error { return c.dead }

// BeforeWrite implements pager.FaultPolicy: each page write-back is one
// durable operation on the shared crash clock.
func (c *Crash) BeforeWrite(id pager.PageID) error {
	c.durableOp()
	return c.dead
}

// CorruptWrite implements pager.FaultPolicy; the crash injector never
// corrupts pages that do get written.
func (c *Crash) CorruptWrite(id pager.PageID, data []byte) bool { return false }

// Err returns the CrashError if the crash point has fired, else nil.
func (c *Crash) Err() error { return c.dead }
