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
// or — Page zero, which is never a valid page ID — of a log append or
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
	// one disk read / write-back fails with a retryable error.
	TransientReadRate  float64
	TransientWriteRate float64
	// PermanentReadRate / PermanentWriteRate are the probabilities that
	// one disk read / write-back fails permanently. The faulted page is
	// remembered: all its later accesses fail too.
	PermanentReadRate  float64
	PermanentWriteRate float64
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
	// count against the cap.
	MaxFaults int
}

// schedule is the seeded core under every injector: the private PRNG
// that makes a fault schedule a pure function of (seed, sequence of
// intercepted operations), After arming, the MaxFaults budget and the
// per-kind injection counters. Injector and Flaky embed it and add only
// their rates and their policy methods.
type schedule struct {
	seed      int64
	rng       *rand.Rand
	after     int
	maxFaults int
	ops       int
	counts    map[Kind]int
}

func newSchedule(seed int64, after, maxFaults int) schedule {
	return schedule{
		seed:      seed,
		rng:       rand.New(rand.NewSource(seed)),
		after:     after,
		maxFaults: maxFaults,
		counts:    make(map[Kind]int),
	}
}

// Seed returns the seed the injector was created with.
func (s *schedule) Seed() int64 { return s.seed }

// Ops returns the number of operations intercepted so far.
func (s *schedule) Ops() int { return s.ops }

// armed reports whether the injector is past its After threshold and
// under its fault budget.
func (s *schedule) armed() bool {
	if s.ops <= s.after {
		return false
	}
	return s.maxFaults == 0 || s.Injected() < s.maxFaults
}

// draw decides one intercepted, already counted operation: unarmed it
// passes without touching the PRNG; armed it makes exactly one draw —
// which keeps a schedule stable even when rates change between runs of
// the same seed — and reports the failure kind that draw selects, if
// any, counting it.
func (s *schedule) draw(permanentRate, transientRate float64) (Kind, bool) {
	if !s.armed() {
		return 0, false
	}
	r := s.rng.Float64()
	switch {
	case r < permanentRate:
		s.counts[Permanent]++
		return Permanent, true
	case r < permanentRate+transientRate:
		s.counts[Transient]++
		return Transient, true
	}
	return 0, false
}

// Injected returns the number of faults injected so far (repeat
// failures of an already-permanent page are not counted again).
func (s *schedule) Injected() int {
	n := 0
	for _, c := range s.counts {
		n += c
	}
	return n
}

// Counts returns a copy of the per-kind injection counters.
func (s *schedule) Counts() map[Kind]int { return maps.Clone(s.counts) }

// Injector is a deterministic fault injector implementing
// pager.FaultPolicy. It is not safe for concurrent use (neither is the
// pager).
type Injector struct {
	schedule
	cfg       Config
	permanent map[pager.PageID]bool
}

// NewInjector returns an injector whose fault schedule is a pure
// function of seed and the sequence of intercepted operations.
func NewInjector(seed int64, cfg Config) *Injector {
	return &Injector{
		schedule:  newSchedule(seed, cfg.After, cfg.MaxFaults),
		cfg:       cfg,
		permanent: make(map[pager.PageID]bool),
	}
}

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

// BeforeRead implements pager.FaultPolicy.
func (in *Injector) BeforeRead(id pager.PageID) error {
	return in.before("read", id, in.cfg.TransientReadRate, in.cfg.PermanentReadRate)
}

// BeforeWrite implements pager.FaultPolicy.
func (in *Injector) BeforeWrite(id pager.PageID) error {
	return in.before("write", id, in.cfg.TransientWriteRate, in.cfg.PermanentWriteRate)
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

// CorruptWrite implements pager.FaultPolicy: it may mutate the bytes
// about to reach disk (after the pager sealed the page checksum, so the
// damage is detectable on the next read). It reports whether the page
// was corrupted.
func (in *Injector) CorruptWrite(id pager.PageID, data []byte) bool {
	in.ops++
	if !in.armed() || len(data) == 0 {
		return false
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
		return true
	case r < in.cfg.TornWriteRate+in.cfg.BitRotRate:
		// Bit rot: flip 1-3 bits. XOR with a non-zero mask guarantees
		// the byte actually changes.
		flips := 1 + in.rng.Intn(3)
		for i := 0; i < flips; i++ {
			data[in.rng.Intn(len(data))] ^= byte(1 << in.rng.Intn(8))
		}
		in.counts[BitRot]++
		return true
	}
	return false
}
