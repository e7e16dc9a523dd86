package fault

import (
	"errors"
	"fmt"
	"testing"

	"spatialanon/internal/pager"
	"spatialanon/internal/retry"
)

// mapDisk is a page disk that stores any ID and any payload size: the
// schedule tests write page 0 and pages of odd sizes, which a DiskFile
// refuses. Only reads and writes are used.
type mapDisk struct {
	pager.Disk
	pages map[pager.PageID][]byte
}

func (d mapDisk) ReadPage(id pager.PageID) ([]byte, uint32, error) {
	p, ok := d.pages[id]
	if !ok {
		return nil, 0, pager.ErrUnknownPage
	}
	return p, 0, nil
}

func (d mapDisk) WritePage(id pager.PageID, data []byte, _ uint32) error {
	d.pages[id] = data
	return nil
}

// faulted returns a memory disk holding pages 0..99, behind in.
func faulted(in *Injector) pager.Disk {
	d := mapDisk{pages: make(map[pager.PageID][]byte)}
	for id := pager.PageID(0); id < 100; id++ {
		d.WritePage(id, []byte{byte(id)}, 0)
	}
	return in.Disk(d)
}

// replaySchedule replays n page reads and writes through an injector and
// records which ordinals faulted with what kind.
func replaySchedule(in *Injector, n int) []string {
	d := faulted(in)
	var out []string
	for i := 0; i < n; i++ {
		id := pager.PageID(i % 7)
		var err error
		if i%2 == 0 {
			_, _, err = d.ReadPage(id)
		} else {
			err = d.WritePage(id, []byte{1, 2, 3}, 0)
		}
		if err != nil {
			var fe *Error
			if !errors.As(err, &fe) {
				out = append(out, fmt.Sprintf("%d:untyped", i))
				continue
			}
			out = append(out, fmt.Sprintf("%d:%s:%s:%d", i, fe.Kind, fe.Op, fe.Page))
		}
	}
	return out
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		TransientReadRate: 0.05, TransientWriteRate: 0.05,
		PermanentReadRate: 0.01, PermanentWriteRate: 0.01,
	}
	a := replaySchedule(NewInjector(42, cfg), 500)
	b := replaySchedule(NewInjector(42, cfg), 500)
	if len(a) == 0 {
		t.Fatal("schedule injected no faults; rates too low for the test")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c := replaySchedule(NewInjector(43, cfg), 500)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := NewInjector(1, Config{})
	if faults := replaySchedule(in, 1000); len(faults) != 0 {
		t.Fatalf("zero config injected %v", faults)
	}
	// A page write is two operations: the write decision, then the
	// corruption decision.
	if in.Injected() != 0 || in.Ops() != 1500 {
		t.Fatalf("injected=%d ops=%d", in.Injected(), in.Ops())
	}
}

func TestTransientClassification(t *testing.T) {
	_, _, err := faulted(NewInjector(7, Config{TransientReadRate: 1})).ReadPage(3)
	if err == nil {
		t.Fatal("rate-1 transient did not fire")
	}
	if !retry.IsTransient(err) {
		t.Fatalf("transient error not classified as transient: %v", err)
	}
	if retry.IsTransient(errors.New("plain")) {
		t.Fatal("plain error classified transient")
	}
	if retry.IsTransient(nil) {
		t.Fatal("nil classified transient")
	}
	// Wrapped transient errors still classify.
	if !retry.IsTransient(fmt.Errorf("flush: %w", err)) {
		t.Fatal("wrapped transient error not classified")
	}
}

func TestPermanentPageStaysFailed(t *testing.T) {
	in := NewInjector(7, Config{PermanentWriteRate: 1, MaxFaults: 1})
	d := faulted(in)
	page := []byte{1}
	err := d.WritePage(5, page, 0)
	if err == nil {
		t.Fatal("rate-1 permanent did not fire")
	}
	if retry.IsTransient(err) {
		t.Fatal("permanent error classified transient")
	}
	// Budget is exhausted, but the failed page keeps failing — on reads
	// too, not just writes.
	if err := d.WritePage(5, page, 0); err == nil {
		t.Fatal("permanent page succeeded on retry")
	}
	if _, _, err := d.ReadPage(5); err == nil {
		t.Fatal("permanent page succeeded on read")
	}
	// Other pages are unaffected (budget spent).
	if err := d.WritePage(6, page, 0); err != nil {
		t.Fatalf("healthy page failed: %v", err)
	}
	if in.Injected() != 1 {
		t.Fatalf("repeat failures counted: %d", in.Injected())
	}
}

func TestAfterDelaysArming(t *testing.T) {
	d := faulted(NewInjector(3, Config{TransientReadRate: 1, After: 10}))
	for i := 0; i < 10; i++ {
		if _, _, err := d.ReadPage(pager.PageID(i)); err != nil {
			t.Fatalf("op %d faulted before After threshold", i)
		}
	}
	if _, _, err := d.ReadPage(99); err == nil {
		t.Fatal("armed injector did not fault")
	}
}

func TestMaxFaultsCapsInjection(t *testing.T) {
	d := faulted(NewInjector(3, Config{TransientReadRate: 1, MaxFaults: 3}))
	faults := 0
	for i := 0; i < 100; i++ {
		if _, _, err := d.ReadPage(pager.PageID(i)); err != nil {
			faults++
		}
	}
	if faults != 3 {
		t.Fatalf("injected %d faults, cap was 3", faults)
	}
}

func TestCorruptWriteKinds(t *testing.T) {
	pageSize := 64
	for name, cfg := range map[string]Config{
		"torn":   {TornWriteRate: 1},
		"bitrot": {BitRotRate: 1},
	} {
		in := NewInjector(11, cfg)
		d := faulted(in)
		clean := make([]byte, pageSize)
		for i := range clean {
			clean[i] = byte(i)
		}
		changed := 0
		for trial := 0; trial < 20; trial++ {
			data := append([]byte(nil), clean...)
			if err := d.WritePage(pager.PageID(trial), data, 0); err != nil || in.Injected() != trial+1 {
				t.Fatalf("%s: rate-1 corruption did not fire (%v)", name, err)
			}
			if fmt.Sprint(data) != fmt.Sprint(clean) {
				changed++
			}
		}
		// A torn write may cut at the very end and by chance reproduce
		// the original bytes; bit rot always changes them. Either way
		// the overwhelming majority of trials must differ.
		if changed < 18 {
			t.Fatalf("%s: only %d/20 corruptions changed the page", name, changed)
		}
		if in.Injected() != 20 {
			t.Fatalf("%s: injected=%d", name, in.Injected())
		}
	}
}

func TestCountsAndString(t *testing.T) {
	in := NewInjector(5, Config{TransientReadRate: 1})
	faulted(in).ReadPage(1)
	counts := in.Counts()
	if counts[Transient] != 1 {
		t.Fatalf("counts %v", counts)
	}
	counts[Transient] = 99 // mutation of the copy must not leak back
	if in.Counts()[Transient] != 1 {
		t.Fatal("Counts returned a live reference")
	}
	for k, want := range map[Kind]string{
		Transient: "transient", Permanent: "permanent",
		TornWrite: "torn-write", BitRot: "bit-rot", Kind(9): "fault.Kind(9)",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q", int(k), k.String())
		}
	}
}
