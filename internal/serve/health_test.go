package serve

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"spatialanon/internal/fault"
	"spatialanon/internal/pager"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/wal"

	"spatialanon/internal/dataset"
	"spatialanon/internal/retry"
)

// gate is a test log device that wedges the committer: every log write
// after Create's own manifest append blocks until release. It models
// the pathological fsync stall admission control exists for.
type gate struct {
	release chan struct{}
	entered chan struct{}
	calls   int
	once    sync.Once
}

func newGate() *gate {
	return &gate{release: make(chan struct{}), entered: make(chan struct{})}
}

// wrap puts the gate in front of a log file (wal.Options.AppendFault).
func (g *gate) wrap(f pager.File) pager.File { return gatedLog{f, g} }

type gatedLog struct {
	pager.File
	g *gate
}

func (f gatedLog) Write(p []byte) (int, error) {
	g := f.g
	g.calls++
	if g.calls > 1 { // Create's manifest append passes through
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return f.File.Write(p)
}

// newFaultyStore builds a store whose log files are wrapped by af.
func newFaultyStore(t testing.TB, af func(pager.File) pager.File, checkpointEvery int) *wal.Store {
	t.Helper()
	st, err := wal.Create(wal.Options{
		Dir:             t.TempDir(),
		Tree:            rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: testK},
		NoSync:          true,
		CheckpointEvery: checkpointEvery,
		AppendFault:     af,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestOverloadShedsTyped: with the committer wedged mid-fsync, the
// bounded queue must fill and further submissions must be rejected
// immediately with ErrOverloaded — no unbounded blocking, no
// deadlock — and every shed write must be absent from the store while
// every accepted one commits once the stall clears.
func TestOverloadShedsTyped(t *testing.T) {
	g := newGate()
	st := newFaultyStore(t, g.wrap, 0)
	defer st.Close()
	const depth = 4
	s, err := New(st, Options{MaxBatch: 2, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, depth+8, 31)

	// Wedge the committer on the first write's fsync-analogue.
	var wg sync.WaitGroup
	results := make([]error, len(recs))
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = s.Insert(recs[i])
		}()
	}
	submit(0)
	<-g.entered

	// Fill the queue exactly (committer is blocked, so nothing drains).
	for i := 1; i <= depth; i++ {
		submit(i)
		for len(s.reqCh) < i {
			time.Sleep(time.Millisecond)
		}
	}

	// The queue is full: this caller must be shed, typed and instantly.
	if err := s.Insert(recs[len(recs)-1]); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit against full queue: %v, want ErrOverloaded", err)
	}
	if s.Stats().Shed == 0 {
		t.Fatal("shed counter not incremented")
	}

	close(g.release)
	wg.Wait()
	acked := 0
	for _, err := range results[:depth+1] {
		if err == nil {
			acked++
		} else if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != acked {
		t.Fatalf("store holds %d records, %d were acknowledged", st.Len(), acked)
	}
}

// TestDeadlineExpiresByTicks: submissions that wait through more
// group commits than their deadline are rejected with
// ErrDeadlineExceeded at dequeue — a queue-position property, not a
// wall-clock one — and expired writes never reach the store.
func TestDeadlineExpiresByTicks(t *testing.T) {
	g := newGate()
	st := newFaultyStore(t, g.wrap, 0)
	defer st.Close()
	const n = 6
	s, err := New(st, Options{MaxBatch: 1, QueueDepth: n, DeadlineTicks: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, n+1, 37)

	var wg sync.WaitGroup
	results := make([]error, len(recs))
	wg.Add(1)
	go func() { defer wg.Done(); results[0] = s.Insert(recs[0]) }()
	<-g.entered
	// Queue n more behind the wedged commit, all enqueued at tick 0.
	for i := 1; i <= n; i++ {
		i := i
		wg.Add(1)
		go func() { defer wg.Done(); results[i] = s.Insert(recs[i]) }()
		for len(s.reqCh) < i {
			time.Sleep(time.Millisecond)
		}
	}
	close(g.release)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	acked, expired := 0, 0
	for i, err := range results {
		switch {
		case err == nil:
			acked++
		case errors.Is(err, ErrDeadlineExceeded):
			expired++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// MaxBatch=1: request k commits at tick k, so everything queued
	// deeper than DeadlineTicks+1 must expire.
	if expired == 0 {
		t.Fatal("no submission expired despite DeadlineTicks=1 and a deep queue")
	}
	if got := s.Stats().Expired; got != int64(expired) {
		t.Fatalf("Expired counter %d, callers saw %d", got, expired)
	}
	if st.Len() != acked {
		t.Fatalf("store holds %d records, %d acked", st.Len(), acked)
	}
}

// TestDegradedReadonlyThenRecover walks the full circuit: a permanent
// device fault poisons the store mid-stream; the server degrades to
// read-only serving the last audited epoch; Recover resurrects it in
// place; writes work again and nothing acknowledged is lost.
func TestDegradedReadonlyThenRecover(t *testing.T) {
	fl := fault.NewInjector(41, fault.Config{PermanentWriteRate: 1, After: 40, MaxFaults: 1})
	st := newFaultyStore(t, fl.Log, 0)
	defer st.Close()
	s, err := New(st, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := makeRecords(t, 60, 41)
	var acked []int64
	var degradedErr error
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			degradedErr = err
			break
		}
		acked = append(acked, r.ID)
	}
	if degradedErr == nil {
		t.Fatal("fault schedule never fired")
	}
	if !errors.Is(degradedErr, ErrDegraded) || !errors.Is(degradedErr, wal.ErrPoisoned) {
		t.Fatalf("poisoning submit error %v, want ErrDegraded wrapping wal.ErrPoisoned", degradedErr)
	}
	if s.State() != StateDegraded {
		t.Fatalf("state %v after poison, want degraded", s.State())
	}

	// Degraded-readonly: reads keep serving the last audited epoch.
	v := s.View()
	if v == nil {
		t.Fatal("no view while degraded")
	}
	if int(v.Len()) != len(acked) {
		t.Fatalf("degraded view has %d records, %d were acked", v.Len(), len(acked))
	}
	if _, err := v.Release(0); err != nil {
		t.Fatalf("degraded release: %v", err)
	}
	// Writes are refused with the typed degraded error.
	if err := s.Insert(recs[len(recs)-1]); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write while degraded: %v, want ErrDegraded", err)
	}
	if s.Err() == nil {
		t.Fatal("Err() nil while degraded")
	}

	// Resurrection: the fault budget is spent, so recovery must land.
	if err := s.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if s.State() != StateHealthy {
		t.Fatalf("state %v after recover, want healthy", s.State())
	}
	if s.Err() != nil {
		t.Fatalf("Err() %v after recover", s.Err())
	}
	if got := s.Stats().Recoveries; got != 1 {
		t.Fatalf("Recoveries %d, want 1", got)
	}
	// The republished epoch serves the recovered state, and writes work.
	if int(s.View().Len()) != len(acked) {
		t.Fatalf("recovered view has %d records, want %d", s.View().Len(), len(acked))
	}
	extra := recs[len(recs)-1]
	if err := s.Insert(extra); err != nil {
		t.Fatalf("insert after recover: %v", err)
	}
	if int(s.View().Len()) != len(acked)+1 {
		t.Fatalf("view has %d records after post-recovery insert, want %d", s.View().Len(), len(acked)+1)
	}
	// Recover on a healthy server is a no-op.
	if err := s.Recover(); err != nil {
		t.Fatalf("recover while healthy: %v", err)
	}
}

// TestCloseReapsPoisonedCommitter: Close must terminate the committer
// goroutine even when the store died mid-stream — no goroutine leak,
// no hang — and late submitters get typed errors, not parked forever.
func TestCloseReapsPoisonedCommitter(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		fl := fault.NewInjector(43, fault.Config{PermanentWriteRate: 1, After: 6, MaxFaults: 1})
		st := newFaultyStore(t, fl.Log, 0)
		s, err := New(st, Options{MaxBatch: 2, QueueDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		recs := makeRecords(t, 16, int64(47+round))
		var wg sync.WaitGroup
		for i := range recs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.Insert(recs[i]) // some acked, some typed failures — all must return
			}(i)
		}
		wg.Wait()
		if err := s.Close(); err == nil {
			t.Fatal("Close of a degraded server reported healthy")
		}
		st.Close()
	}
	// Every committer must be gone. Allow the runtime a moment to
	// retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTransientBatchFailureDoesNotDegrade: a transient fault that
// exhausts the writer's retries fails only the batch that hit it —
// the callers see the transient error, the server stays healthy, and
// a resubmission lands.
func TestTransientBatchFailureDoesNotDegrade(t *testing.T) {
	// retry.Budget consecutive write faults outlast the writer's retries:
	// the transient error surfaces.
	fl := fault.NewInjector(53, fault.Config{TransientWriteRate: 1, After: 2, MaxFaults: retry.Budget})
	st := newFaultyStore(t, fl.Log, 0)
	defer st.Close()
	s, err := New(st, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := makeRecords(t, 3, 53)
	err = s.Insert(recs[0])
	if err == nil {
		t.Fatal("insert succeeded through the injected fault")
	}
	if !retry.IsTransient(err) {
		t.Fatalf("transient marker lost: %v", err)
	}
	if s.State() != StateHealthy {
		t.Fatalf("transient failure tripped the breaker: %v", s.State())
	}
	if err := s.Insert(recs[0]); err != nil {
		t.Fatalf("resubmission: %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d records, want 1", st.Len())
	}
}

// TestCommitRetryAbsorbsTransient: a fault the log writer's retries —
// the one owner of append faults — can absorb is absorbed invisibly: the
// caller never sees the fault, and the server's retry counter reports
// the writer's absorption.
func TestCommitRetryAbsorbsTransient(t *testing.T) {
	fl := fault.NewInjector(53, fault.Config{TransientWriteRate: 1, After: 2, MaxFaults: 1})
	st := newFaultyStore(t, fl.Log, 0)
	defer st.Close()
	s, err := New(st, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := makeRecords(t, 3, 53)
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			t.Fatalf("insert under absorbed fault: %v", err)
		}
	}
	if got := s.Stats().Retries; got == 0 {
		t.Fatal("no retry recorded despite an injected transient fault")
	}
	if st.Len() != len(recs) {
		t.Fatalf("store holds %d records, want %d", st.Len(), len(recs))
	}
}

// TestServerScrubRepairs: the background scrubber must detect
// injected bit rot in a live checkpoint page between batches,
// repair it from the live tree, and leave a reopenable image.
func TestServerScrubRepairs(t *testing.T) {
	st := newFaultyStore(t, nil, 8)
	s, err := New(st, Options{MaxBatch: 1, ScrubEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(t, 40, 59)
	for _, r := range recs[:20] {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// The committer owns the store, and it scrubs AFTER acknowledging a
	// batch: wait for that scrub (one per commit here) before aiming the
	// drill at the store from this goroutine.
	waitScrubs := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); s.Stats().ScrubScans < n; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("scrubber ran %d of %d passes", s.Stats().ScrubScans, n)
			}
		}
	}
	waitScrubs(20)
	pages := st.SnapshotPages()
	if len(pages) == 0 {
		t.Fatal("no checkpoint pages after 20 inserts with CheckpointEvery=8")
	}
	if err := st.FlipBit(pages[0], 9); err != nil {
		t.Fatal(err)
	}
	// The next commits give the scrubber its turn.
	for _, r := range recs[20:] {
		if err := s.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	waitScrubs(40)
	stats := s.Stats()
	if stats.ScrubScans == 0 || stats.ScrubCorrupt == 0 || stats.ScrubRepaired == 0 {
		t.Fatalf("scrub counters %+v: rot not detected/repaired", stats)
	}
	if s.State() != StateHealthy {
		t.Fatalf("state %v after scrub repair", s.State())
	}
	// The store's checkpoint counters surface through Stats: 40 inserts
	// at CheckpointEvery=8 are five checkpoints plus the repair, and the
	// repair (like the store's first checkpoint) rewrote every leaf.
	if ck := stats.Checkpoint; ck.Checkpoints < 6 || ck.Full < 2 || ck.Written.Leaves == 0 || ck.PagesFreed == 0 {
		t.Fatalf("checkpoint counters %+v", ck)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The repaired image must recover on a clean reopen.
	st2, err := wal.Open(wal.Options{
		Dir:  st.Options().Dir,
		Tree: rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: testK},
	})
	if err != nil {
		t.Fatalf("reopen after scrub repair: %v", err)
	}
	defer st2.Close()
	if st2.Len() != before {
		t.Fatalf("reopened store holds %d records, want %d", st2.Len(), before)
	}
}

// TestErrorTaxonomy pins the sentinel identities: every rejection
// class is distinguishable with errors.Is and no sentinel matches
// another.
func TestErrorTaxonomy(t *testing.T) {
	sentinels := []error{ErrOverloaded, ErrDeadlineExceeded, ErrDegraded, ErrRecovering, ErrClosed}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("sentinel identity broken: Is(%v, %v) = %v", a, b, i == j)
			}
		}
	}
	// ErrClosed is what a closed server actually returns.
	st := newFaultyStore(t, nil, 0)
	defer st.Close()
	s, err := New(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(makeRecords(t, 1, 61)[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close: %v, want ErrClosed", err)
	}
	if err := s.Recover(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recover after close: %v, want ErrClosed", err)
	}
}
