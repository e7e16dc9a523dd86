package fault

// FlakyConfig sets the per-attempt fault probabilities of a Flaky
// injector. A zero config injects nothing.
type FlakyConfig struct {
	// TransientWriteRate is the probability one physical frame write
	// attempt fails retryably. A transient write fault tears a random
	// prefix of the frame into the log — exactly the partial write a
	// power-cut-free device error leaves behind — so the writer's
	// truncate-before-retry discipline is exercised on every schedule.
	TransientWriteRate float64
	// TransientSyncRate is the probability one fsync attempt fails
	// retryably.
	TransientSyncRate float64
	// PermanentWriteRate is the probability one frame write attempt
	// fails permanently: the device rejected the command for good, so
	// retrying is futile and the store must escalate (poison itself)
	// rather than spin.
	PermanentWriteRate float64
	// After arms the injector only after this many intercepted
	// attempts, so schedules can target mid-workload states.
	After int
	// MaxFaults caps the number of injected faults; 0 means unlimited.
	// A bounded schedule is how resurrection tests model "the device
	// glitched and came back": once the budget is spent the log is
	// clean again and recovery can succeed.
	MaxFaults int
}

// Flaky is a deterministic fault injector for the WAL append path: it
// intercepts physical write and fsync attempts (the wal.AppendFault
// contract, satisfied structurally) and fails them on a schedule that
// is a pure function of (seed, sequence of intercepted attempts). It
// is not safe for concurrent use — neither is the WAL writer.
type Flaky struct {
	schedule
	cfg FlakyConfig
}

// NewFlaky returns an injector whose fault schedule is a pure function
// of seed and the sequence of intercepted attempts.
func NewFlaky(seed int64, cfg FlakyConfig) *Flaky {
	return &Flaky{schedule: newSchedule(seed, cfg.After, cfg.MaxFaults), cfg: cfg}
}

// Derive returns a fresh Flaky with the same config whose seed is a
// deterministic function of this injector's seed and the shard index —
// the append-path analogue of Injector.Derive. Sharded serving runs
// one WAL writer per shard on its own goroutine, and injectors are not
// safe for concurrent use, so each shard must own a derived injector;
// any shard's schedule replays in isolation from (parent seed, shard).
func (f *Flaky) Derive(shard int) *Flaky {
	return NewFlaky(DeriveSeed(f.seed, shard), f.cfg)
}

// WriteAttempt is consulted before one physical frame write of
// frameLen bytes. On a fault it reports how many bytes of the frame
// land anyway (a torn prefix; zero means nothing reached the log) and
// the typed error; on a clean attempt it returns (0, nil) and the
// writer performs the full write itself.
func (f *Flaky) WriteAttempt(frameLen int) (tear int, err error) {
	f.ops++
	if kind, failed := f.draw(f.cfg.PermanentWriteRate, f.cfg.TransientWriteRate); failed {
		// A failed write still lands a random prefix of the frame.
		return f.rng.Intn(frameLen + 1), &Error{Op: "append", Kind: kind}
	}
	return 0, nil
}

// SyncAttempt is consulted before one fsync of the log.
func (f *Flaky) SyncAttempt() error {
	f.ops++
	if kind, failed := f.draw(0, f.cfg.TransientSyncRate); failed {
		return &Error{Op: "sync", Kind: kind}
	}
	return nil
}
