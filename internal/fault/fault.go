// Package fault is a deterministic, seed-driven storage fault injector
// with a typed error taxonomy. It exists because the paper's central
// claim — an anonymization *is* a spatial index — cuts both ways: every
// index-corruption failure mode (torn page, lost write, bit rot) is
// silently also a privacy failure mode. The chaos suite in
// internal/verify drives seeded schedules of these faults through the
// pager and the bulk loader and asserts that every injected fault ends
// in a returned error or a verified-consistent tree, never silent
// corruption.
//
// A fault is storage: both injectors, Injector and Crash, are failing
// devices. Disk wraps a pager.Disk and Log wraps a write-ahead log file,
// each deciding per operation whether it reaches the storage underneath;
// what the wrapper does not intercept passes through and draws nothing.
//
// Taxonomy:
//
//   - Transient — the operation failed but a retry may succeed (a busy
//     device, a dropped request). Callers are expected to retry a
//     bounded number of times; see rplustree's loader.
//   - Permanent — the page's device region is gone. Once a permanent
//     fault fires for a page, every later access to that page fails
//     too, so retrying is futile and the error must propagate.
//   - TornWrite — only part of the page's new contents reached disk.
//     Undetectable at write time; the pager's per-page checksum
//     surfaces it as a pager.CorruptError on the next read.
//   - BitRot — bits flipped at rest, likewise surfaced by checksum on
//     the next read.
//
// The Injector consumes a private PRNG seeded by the caller, so a
// schedule is a pure function of (seed, sequence of intercepted
// operations) — the property the chaos harness needs to shrink and
// replay failures.
package fault

import (
	"fmt"
	"maps"
	"math/rand"

	"spatialanon/internal/pager"
)

// Kind classifies an injected fault.
type Kind int

const (
	// Transient faults may succeed if the operation is retried.
	Transient Kind = iota
	// Permanent faults persist: every later access to the page fails.
	Permanent
	// TornWrite corrupts the tail of a page during write-back.
	TornWrite
	// BitRot flips bits of a page during write-back.
	BitRot
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case TornWrite:
		return "torn-write"
	case BitRot:
		return "bit-rot"
	}
	return fmt.Sprintf("fault.Kind(%d)", int(k))
}

// Error is a typed injected I/O error: of a page read or write-back,
// or — Page zero, which is never a valid page ID — of a log write or
// fsync.
type Error struct {
	Op   string // "read" or "write" of a page; "append" or "sync" of the log
	Page pager.PageID
	Kind Kind
}

// Error implements error.
func (e *Error) Error() string {
	if e.Page == 0 {
		return fmt.Sprintf("fault: %s log %s error", e.Kind, e.Op)
	}
	return fmt.Sprintf("fault: %s %s error on page %d", e.Kind, e.Op, e.Page)
}

// Transient reports whether retrying the failed operation can succeed.
// It is the structural convention retry.IsTransient matches, so the
// pager, the WAL writer and the retry helper classify injected faults
// without importing this package.
func (e *Error) Transient() bool { return e.Kind == Transient }

// Config sets the per-operation fault probabilities of an Injector. A
// zero Config injects nothing.
type Config struct {
	// TransientReadRate / TransientWriteRate are the probabilities that
	// one page read / write — a page write-back or a log write — fails
	// with a retryable error.
	TransientReadRate  float64
	TransientWriteRate float64
	// PermanentReadRate / PermanentWriteRate are the probabilities that
	// one page read / write fails permanently. A faulted page is
	// remembered: all its later accesses fail too. A permanently failed
	// log write means the device rejected the command for good, so the
	// log's owner must escalate rather than retry.
	PermanentReadRate  float64
	PermanentWriteRate float64
	// TransientSyncRate is the probability one log fsync fails
	// retryably.
	TransientSyncRate float64
	// TornWriteRate is the probability a write-back persists only a
	// prefix of the page (the tail keeps stale garbage).
	TornWriteRate float64
	// BitRotRate is the probability a write-back lands with flipped
	// bits.
	BitRotRate float64
	// After arms the injector only after this many intercepted
	// operations, so schedules can target mid-load states.
	After int
	// MaxFaults caps the number of injected faults; 0 means unlimited.
	// Repeated failures of an already-permanently-failed page do not
	// count against the cap. A bounded schedule models a device that
	// glitched and came back.
	MaxFaults int
}

// Injector is a deterministic fault injector: its private PRNG makes a
// fault schedule a pure function of (seed, sequence of intercepted
// operations). It is not safe for concurrent use (neither is the pager
// or the log writer), so a caller faulting both a page disk and a log
// keeps one Injector for each.
type Injector struct {
	seed      int64
	cfg       Config
	rng       *rand.Rand
	ops       int
	counts    map[Kind]int
	permanent map[pager.PageID]bool
}

// NewInjector returns an injector whose fault schedule is a pure
// function of seed and the sequence of intercepted operations.
func NewInjector(seed int64, cfg Config) *Injector {
	return &Injector{
		seed:      seed,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		counts:    make(map[Kind]int),
		permanent: make(map[pager.PageID]bool),
	}
}

// Ops returns the number of operations intercepted so far.
func (in *Injector) Ops() int { return in.ops }

// armed reports whether the injector is past its After threshold and
// under its fault budget.
func (in *Injector) armed() bool {
	if in.ops <= in.cfg.After {
		return false
	}
	return in.cfg.MaxFaults == 0 || in.Injected() < in.cfg.MaxFaults
}

// draw decides one intercepted, already counted operation: unarmed it
// passes without touching the PRNG; armed it makes exactly one draw —
// which keeps a schedule stable even when rates change between runs of
// the same seed — and reports the failure kind that draw selects, if
// any, counting it.
func (in *Injector) draw(permanentRate, transientRate float64) (Kind, bool) {
	if !in.armed() {
		return 0, false
	}
	r := in.rng.Float64()
	switch {
	case r < permanentRate:
		in.counts[Permanent]++
		return Permanent, true
	case r < permanentRate+transientRate:
		in.counts[Transient]++
		return Transient, true
	}
	return 0, false
}

// Injected returns the number of faults injected so far (repeat
// failures of an already-permanent page are not counted again).
func (in *Injector) Injected() int {
	n := 0
	for _, c := range in.counts {
		n += c
	}
	return n
}

// Counts returns a copy of the per-kind injection counters.
func (in *Injector) Counts() map[Kind]int { return maps.Clone(in.counts) }

// Derive returns a fresh injector with the same Config whose seed is a
// deterministic function of this injector's seed and the shard index.
// When a workload is sharded across goroutines, each shard gets its own
// injector — injectors are not safe for concurrent use — and any
// shard's schedule can be replayed in isolation from (parent seed,
// shard) alone. The derivation is a splitmix64 mix, so neighboring
// shard indices produce statistically independent streams (seed+1,
// seed+2, ... would correlate under some PRNGs).
func (in *Injector) Derive(shard int) *Injector {
	return NewInjector(DeriveSeed(in.seed, shard), in.cfg)
}

// DeriveSeed is the seed derivation used by Derive, exported so
// harnesses can name a shard's seed in failure reports.
func DeriveSeed(parent int64, shard int) int64 {
	z := uint64(parent) + uint64(shard+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Disk returns d behind the injector. A page read first draws the read
// decision; a page write draws the write decision and then the
// corruption decision on the bytes about to land, which the pager has
// already sealed, so the damage is detected on the next read.
func (in *Injector) Disk(d pager.Disk) pager.Disk {
	return &disk{Disk: d, onRead: in.read, onWrite: in.write}
}

// Log returns f behind the injector. A log write draws the write
// decision; a failed one still lands a random prefix of its bytes — the
// partial write a device error leaves behind — before returning the
// error. A log fsync draws the sync decision.
func (in *Injector) Log(f pager.File) pager.File {
	return &logFile{File: f, onWrite: in.logWrite, onSync: in.logSync}
}

func (in *Injector) read(id pager.PageID) error {
	return in.before("read", id, in.cfg.TransientReadRate, in.cfg.PermanentReadRate)
}

func (in *Injector) write(id pager.PageID, data []byte) error {
	if err := in.before("write", id, in.cfg.TransientWriteRate, in.cfg.PermanentWriteRate); err != nil {
		return err
	}
	in.corrupt(data)
	return nil
}

func (in *Injector) before(op string, id pager.PageID, transientRate, permanentRate float64) error {
	in.ops++
	if in.permanent[id] {
		return &Error{Op: op, Page: id, Kind: Permanent}
	}
	kind, failed := in.draw(permanentRate, transientRate)
	if !failed {
		return nil
	}
	if kind == Permanent {
		in.permanent[id] = true
	}
	return &Error{Op: op, Page: id, Kind: kind}
}

// corrupt is the corruption decision: it may tear or rot data, the bytes
// of one page write about to reach the disk.
func (in *Injector) corrupt(data []byte) {
	in.ops++
	if !in.armed() || len(data) == 0 {
		return
	}
	r := in.rng.Float64()
	switch {
	case r < in.cfg.TornWriteRate:
		// Torn write: a prefix lands, the tail keeps whatever garbage
		// the sector held before.
		cut := in.rng.Intn(len(data))
		for i := cut; i < len(data); i++ {
			data[i] = byte(in.rng.Intn(256))
		}
		in.counts[TornWrite]++
	case r < in.cfg.TornWriteRate+in.cfg.BitRotRate:
		// Bit rot: flip 1-3 bits. XOR with a non-zero mask guarantees
		// the byte actually changes.
		flips := 1 + in.rng.Intn(3)
		for i := 0; i < flips; i++ {
			data[in.rng.Intn(len(data))] ^= byte(1 << in.rng.Intn(8))
		}
		in.counts[BitRot]++
	}
}

// logWrite decides one log write of n bytes: on a fault, how many of
// them land anyway and the error.
func (in *Injector) logWrite(n int) (tear int, err error) {
	in.ops++
	if kind, failed := in.draw(in.cfg.PermanentWriteRate, in.cfg.TransientWriteRate); failed {
		return in.rng.Intn(n + 1), &Error{Op: "append", Kind: kind}
	}
	return 0, nil
}

func (in *Injector) logSync() error {
	in.ops++
	if kind, failed := in.draw(0, in.cfg.TransientSyncRate); failed {
		return &Error{Op: "sync", Kind: kind}
	}
	return nil
}
