package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialanon/internal/dataset"
	"spatialanon/internal/fault"
	"spatialanon/internal/pager"
	"spatialanon/internal/rplustree"
	"spatialanon/internal/wal"
)

// errBrake is the failure a braked page access reports; every Recover
// caller in the storm must see it through the wrap chain.
var errBrake = errors.New("recovery brake: device unreachable")

// brake is a page device that, once armed, parks the first page access
// of the recovery reopen until released and then fails it — a
// freeze-frame of a recovery attempt in flight, long enough to pile
// concurrent Recover callers onto the committer.
type brake struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBrake() *brake {
	return &brake{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *brake) gate() error {
	if !b.armed.Load() {
		return nil
	}
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return errBrake
}

// wrap puts the brake in front of a page disk (wal.Options.PagerFault).
func (b *brake) wrap(d pager.Disk) pager.Disk { return brakedDisk{d, b} }

type brakedDisk struct {
	pager.Disk
	b *brake
}

func (d brakedDisk) ReadPage(id pager.PageID) ([]byte, uint32, error) {
	if err := d.b.gate(); err != nil {
		return nil, 0, err
	}
	return d.Disk.ReadPage(id)
}

func (d brakedDisk) WritePage(id pager.PageID, data []byte, sum uint32) error {
	if err := d.b.gate(); err != nil {
		return err
	}
	return d.Disk.WritePage(id, data, sum)
}

// TestRecoverSingleFlight: N concurrent Recover callers against a
// still-failing store must coalesce into ONE recovery attempt whose
// verdict they all share — not N sequential recovery storms each
// re-running the store rebuild and re-draining the queue. The brake
// holds the one attempt's reopen mid-page-access while the other
// callers pile up, then fails it; every caller must report the braked
// device error, the attempt counter must show coalescing, and a
// release of the brake must let a single follow-up Recover succeed
// with nothing acknowledged lost.
func TestRecoverSingleFlight(t *testing.T) {
	fl := fault.NewInjector(53, fault.Config{PermanentWriteRate: 1, After: 40, MaxFaults: 1})
	b := newBrake()
	st, err := wal.Create(wal.Options{
		Dir:             t.TempDir(),
		Tree:            rplustree.Config{Schema: dataset.LandsEndSchema(), BaseK: testK},
		NoSync:          true,
		CheckpointEvery: 4, // guarantee checkpoint pages for the reopen to read
		AppendFault:     fl.Log,
		PagerFault:      b.wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := New(st, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Poison the store mid-stream.
	recs := makeRecords(t, 60, 53)
	acked := 0
	var degradedErr error
	for _, r := range recs {
		if err := s.Insert(r); err != nil {
			degradedErr = err
			break
		}
		acked++
	}
	if degradedErr == nil {
		t.Fatal("fault schedule never fired")
	}
	if s.State() != StateDegraded {
		t.Fatalf("state %v after poison, want degraded", s.State())
	}

	// Storm: N callers race into recovery while the one real attempt is
	// frozen inside the reopen.
	b.armed.Store(true)
	const callers = 8
	var wg sync.WaitGroup
	results := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Recover()
		}(i)
	}
	<-b.entered
	// The committer is wedged inside st.Recover; give the straggler
	// callers time to park on the unbuffered recover channel so the
	// attempt in flight adopts them.
	time.Sleep(50 * time.Millisecond)
	close(b.release)
	wg.Wait()

	for i, err := range results {
		if err == nil {
			t.Fatalf("caller %d: recovery reported success with the device braked", i)
		}
		if !errors.Is(err, errBrake) {
			t.Fatalf("caller %d: %v, want the braked device error", i, err)
		}
	}
	// Single-flight is the point: one attempt for the whole storm. A
	// straggler that parked after the verdict may legitimately start a
	// second, but never one attempt per caller.
	if got := s.Stats().RecoverAttempts; got < 1 || got > 2 {
		t.Fatalf("RecoverAttempts %d for %d concurrent callers, want 1 (2 at most)", got, callers)
	}
	if s.State() != StateDegraded {
		t.Fatalf("state %v after failed recovery, want degraded", s.State())
	}
	if got := s.Stats().Recoveries; got != 0 {
		t.Fatalf("Recoveries %d after failed recovery, want 0", got)
	}

	// Brake off: recovery lands, nothing acknowledged is lost.
	b.armed.Store(false)
	if err := s.Recover(); err != nil {
		t.Fatalf("recover after brake release: %v", err)
	}
	if s.State() != StateHealthy {
		t.Fatalf("state %v after recover, want healthy", s.State())
	}
	if got := s.Stats().Recoveries; got != 1 {
		t.Fatalf("Recoveries %d, want 1", got)
	}
	if int(s.View().Len()) != acked {
		t.Fatalf("recovered view has %d records, %d were acked", s.View().Len(), acked)
	}
	if err := s.Insert(recs[len(recs)-1]); err != nil {
		t.Fatalf("insert after recover: %v", err)
	}
}
